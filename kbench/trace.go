package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"strconv"
	"time"

	"ksymmetry/internal/automorphism"
	"ksymmetry/internal/graph"
	"ksymmetry/internal/ksym"
	"ksymmetry/internal/partition"
	"ksymmetry/internal/publish"
	"ksymmetry/internal/refine"
	"ksymmetry/internal/sampling"
)

// span is one traced call into a layer: spans of one release or one
// analyst draw share a trace id, and a root span has parent 0.
type span struct {
	Trace  int     `json:"trace"`
	ID     int     `json:"id"`
	Parent int     `json:"parent"`
	Name   string  `json:"name"`
	Start  float64 `json:"start_s"` // since the tracer started
	End    float64 `json:"end_s"`
	Alloc  uint64  `json:"alloc_bytes"` // heap bytes allocated during the span
	alloc0 uint64
}

// tracer keeps spans in memory until the run ends.
type tracer struct {
	t0     time.Time
	spans  []span
	traces int
	allocs []metrics.Sample
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), allocs: []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}}
}

func (t *tracer) allocated() uint64 {
	metrics.Read(t.allocs)
	return t.allocs[0].Value.Uint64()
}

// begin opens a span; a parent of 0 starts a new trace.
func (t *tracer) begin(parent int, name string) int {
	trace := 0
	if parent == 0 {
		t.traces++
		trace = t.traces
	} else {
		trace = t.spans[parent-1].Trace
	}
	t.spans = append(t.spans, span{Trace: trace, ID: len(t.spans) + 1, Parent: parent, Name: name,
		Start: time.Since(t.t0).Seconds(), alloc0: t.allocated()})
	return len(t.spans)
}

func (t *tracer) end(id int) {
	s := &t.spans[id-1]
	s.End = time.Since(t.t0).Seconds()
	s.Alloc = t.allocated() - s.alloc0
}

// call runs f as a child span of parent.
func (t *tracer) call(parent int, name string, f func() error) error {
	id := t.begin(parent, name)
	err := f()
	t.end(id)
	return err
}

// selfTimes sums, per span name, each span's duration minus the time its
// children cover, over the spans from index from on; allocs sums their
// allocated bytes.
func (t *tracer) selfTimes(from int) (self map[string]float64, allocs map[string]uint64) {
	self, allocs = map[string]float64{}, map[string]uint64{}
	children := map[int]float64{}
	for _, s := range t.spans[from:] {
		if s.Parent != 0 {
			children[s.Parent] += s.End - s.Start
		}
	}
	for _, s := range t.spans[from:] {
		self[s.Name] += s.End - s.Start - children[s.ID]
		allocs[s.Name] += s.Alloc
	}
	return self, allocs
}

// write saves the spans as JSON under .bench_build/traces.
func (t *tracer) write(root, name string) error {
	dir := filepath.Join(root, ".bench_build", "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, name+".json"), data, 0o644)
}

// layerSpans maps a span name to the per-layer metrics of its self time
// and allocation.
var layerSpans = map[string]struct{ time, alloc string }{
	"graph.read":          {"graph.read_s", "graph.read_alloc_mb"},
	"graph.csr":           {"graph.csr_s", ""},
	"refine.tdv":          {"refine.tdv_s", ""},
	"automorphism.orbits": {"automorphism.orbits_s", "automorphism.alloc_mb"},
	"ksym.anonymize":      {"ksym.anonymize_s", "ksym.alloc_mb"},
	"graph.write":         {"graph.write_s", ""},
	"publish.write":       {"publish.write_s", ""},
	"publish.read":        {"publish.read_s", "publish.read_alloc_mb"},
	"sampling.batch":      {"sampling.batch_s", "sampling.alloc_mb"},
}

const mib = 1 << 20

// tracedRelease is `ksym -in … -k … -release …` (with -tdp when j.tdv),
// called layer by layer in the order and with the arguments pipeline.Run
// and the command use: load, the ladder's first rung, Algorithm 1, G′ to
// standard output, the release file.
func (b *bench) tracedRelease(t *tracer, j batchJob, path string, counts map[string]float64) (gens []automorphism.Perm, err error) {
	ctx := context.Background()
	root := t.begin(0, "pipeline.run")
	defer t.end(root)
	var g *graph.Graph
	if err := t.call(root, "graph.read", func() (err error) { g, err = graph.ReadFile(j.in.path); return }); err != nil {
		return nil, err
	}
	var p *partition.Partition
	if j.tdv {
		var c *graph.CSR
		t.call(root, "graph.csr", func() error { c = graph.NewCSR(g); return nil })
		err = t.call(root, "refine.tdv", func() (err error) { p, err = refine.TotalDegreePartitionWorkersCSRCtx(ctx, c, 1); return })
		if err == nil {
			counts["refine.cells"] += float64(p.NumCells())
		}
	} else {
		opts := &automorphism.Options{NodeBudget: automorphism.DefaultNodeBudget}
		err = t.call(root, "automorphism.orbits", func() (err error) { p, gens, err = automorphism.OrbitPartitionCtx(ctx, g, opts); return })
		counts["automorphism.generators"] += float64(len(gens))
	}
	if err != nil {
		return nil, err
	}
	var res *ksym.Result
	if err := t.call(root, "ksym.anonymize", func() (err error) { res, err = ksym.AnonymizeFCtx(ctx, g, p, ksym.ConstantTarget(j.k)); return }); err != nil {
		return nil, err
	}
	counts["ksym.copy_ops"] += float64(res.CopyOps)
	devNull, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		return nil, err
	}
	defer devNull.Close()
	if err := t.call(root, "graph.write", func() error { return res.Graph.Write(devNull) }); err != nil {
		return nil, err
	}
	if err := t.call(root, "publish.write", func() error { return publish.FromResult(res).WriteFile(path) }); err != nil {
		return nil, err
	}
	if st, err := os.Stat(path); err == nil {
		counts["publish.mb"] += float64(st.Size()) / mib
	}
	return gens, nil
}

// tracedDraw is `ksample -release … -count … -out-dir …` called layer by
// layer: read the release, draw the batch with ksample's options, write
// the samples.
func (b *bench) tracedDraw(t *tracer, j batchJob, path string, counts map[string]float64) error {
	ctx := context.Background()
	root := t.begin(0, "ksample.draw")
	defer t.end(root)
	var rel *publish.Release
	if err := t.call(root, "publish.read", func() (err error) { rel, err = publish.ReadFile(path); return }); err != nil {
		return err
	}
	var samples []*graph.Graph
	opts := &sampling.Options{Seed: 1, Method: sampling.SamplerApproximate}
	if err := t.call(root, "sampling.batch", func() (err error) {
		samples, err = sampling.BatchCtx(ctx, rel.Graph, rel.Partition, rel.OriginalN, j.samples, opts)
		return
	}); err != nil {
		return err
	}
	dir := b.sampleDir(j)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	return t.call(root, "graph.write_samples", func() error {
		for i, s := range samples {
			counts["sampling.edges"] += float64(s.M())
			if err := s.WriteFile(filepath.Join(dir, fmt.Sprintf("sample_%03d.edges", i))); err != nil {
				return err
			}
		}
		return nil
	})
}

// tracedBatch runs rounds of the jobs layer by layer under the tracer and
// reports each layer's self time and allocation per round (medians over
// rounds), checking every release and draw as the untraced run does. On
// the exact rung it also checks the search's generators, and compares the
// cells with the release the ksym command makes.
func (b *bench) tracedBatch(jobs []batchJob) error {
	t := newTracer()
	perRound := map[string][]float64{}
	for round := 0; b.more(round); round++ {
		from := len(t.spans)
		counts := map[string]float64{}
		for _, j := range jobs {
			b.endSetup()
			relPath := b.releasePath(j)
			gens, err := b.tracedRelease(t, j, relPath, counts)
			var rel *release
			if err == nil {
				rel, err = b.checkRelease(j, relPath)
			}
			if err == nil && !j.tdv {
				err = b.checkExactRung(j, rel, gens)
			}
			b.op("traced release "+j.name(), err)
			runtime.GC() // drop G′ before the draw reads its own copy
			err = fmt.Errorf("no release to draw from")
			if rel != nil {
				if err = b.tracedDraw(t, j, relPath, counts); err == nil {
					err = b.checkSamples(j, rel)
				}
			}
			b.op("traced draw "+j.name(), err)
			runtime.GC()
		}
		self, allocs := t.selfTimes(from)
		for name, m := range layerSpans {
			perRound[m.time] = append(perRound[m.time], self[name])
			if m.alloc != "" {
				perRound[m.alloc] = append(perRound[m.alloc], float64(allocs[name])/mib)
			}
		}
		total := map[string]float64{}
		for _, s := range t.spans[from:] {
			if s.Parent == 0 {
				total[s.Name] += s.End - s.Start
			}
		}
		perRound["trace.release_s"] = append(perRound["trace.release_s"], total["pipeline.run"])
		perRound["trace.sample_s"] = append(perRound["trace.sample_s"], total["ksample.draw"])
		for name, v := range counts {
			perRound[name] = append(perRound[name], v)
		}
	}
	for name, vs := range perRound {
		b.set(name, median(vs))
	}
	return t.write(b.root, fmt.Sprintf("%s-seed%d", b.workload, b.seed))
}

// checkExactRung checks the exact rung's generators: each maps G's edges
// onto themselves, their orbits are the cells of the traced release, and
// the release the ksym command makes has the same cells.
func (b *bench) checkExactRung(j batchJob, rel *release, gens []automorphism.Perm) error {
	g, _ := j.in.graph()
	perms := make([][]int, len(gens))
	for i, p := range gens {
		perms[i] = p
	}
	cells := rel.originalLabels()
	if err := checkGenerators(g, perms, cells); err != nil {
		return err
	}
	cmdPath := b.releasePath(j) + ".cmd"
	if _, err := b.command("ksym", "-in", j.in.path, "-k", strconv.Itoa(j.k), "-release", cmdPath); err != nil {
		return err
	}
	cmdRel, err := readRelease(cmdPath)
	if err != nil {
		return err
	}
	return samePartition(cmdRel.originalLabels(), cells, "the ksym command's cells against the generators' orbits")
}
