package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strconv"

	"ksymmetry/internal/datasets"
	"ksymmetry/internal/graph"
)

// The two batch workloads: a publisher runs `ksym -release` on each input
// and an analyst runs `ksample` on each release, one process at a time.

// input is one generated input graph, with the checker's own view of it,
// built the first time a check needs it (never inside set-up).
type input struct {
	name, path string
	g          *csr
	degrees    []int
	tdv        []int32 // coarsest equitable partition, canonical
}

func (in *input) graph() (*csr, error) {
	if in.g == nil {
		g, err := readGraph(in.path)
		if err != nil {
			return nil, err
		}
		in.g, in.degrees = g, sortedDegrees(g)
	}
	return in.g, nil
}

func (in *input) coarsest() []int32 {
	if in.tdv == nil {
		in.tdv = coarsestEquitable(in.g)
	}
	return in.tdv
}

// writeInput generates an input with internal/datasets and writes it in
// the edge-list format.
func (b *bench) writeInput(name string, g *graph.Graph) (*input, error) {
	in := &input{name: name, path: filepath.Join(b.dir, name+".edges")}
	return in, g.WriteFile(in.path)
}

// batchJob is one release and the analyst draw from it.
type batchJob struct {
	in      *input
	k       int
	tdv     bool // ksym -tdp: start the ladder at the 𝒯𝒟𝒱 rung
	samples int
}

func (j batchJob) name() string { return fmt.Sprintf("%s-k%d", j.in.name, j.k) }

func (b *bench) releasePath(j batchJob) string {
	return filepath.Join(b.dir, j.name()+".release")
}

func (b *bench) sampleDir(j batchJob) string {
	return filepath.Join(b.dir, j.name()+"-samples")
}

// checkRelease reads a release of j with the benchmark's own parser and
// checks it against j's input and k.
func (b *bench) checkRelease(j batchJob, path string) (*release, error) {
	g, err := j.in.graph()
	if err != nil {
		return nil, err
	}
	rel, err := readRelease(path)
	if err != nil {
		return nil, err
	}
	if err := checkRelease(rel, g, j.k); err != nil {
		return nil, err
	}
	if j.tdv {
		if err := checkTDV(rel, j.in.coarsest()); err != nil {
			return nil, err
		}
	}
	return rel, nil
}

// checkSamples checks the draw's sample files against the release.
func (b *bench) checkSamples(j batchJob, rel *release) error {
	for i := 0; i < j.samples; i++ {
		s, err := readGraph(filepath.Join(b.sampleDir(j), fmt.Sprintf("sample_%03d.edges", i)))
		if err != nil {
			return err
		}
		if err := checkSample(s, rel, j.k, j.in.degrees); err != nil {
			return fmt.Errorf("sample %d: %w", i, err)
		}
	}
	return nil
}

// batchRound is what one round of a batch workload measured.
type batchRound struct {
	release, sample float64   // total wall time of the releases and of the draws
	releases        []float64 // each release's wall time
	vertices        int       // vertices added over the round's releases
	rssMB           float64
}

// untracedRound runs every job once through the shipped commands.
func (b *bench) untracedRound(jobs []batchJob) batchRound {
	var r batchRound
	for _, j := range jobs {
		b.endSetup()
		path := b.releasePath(j)
		args := []string{"-in", j.in.path, "-k", strconv.Itoa(j.k), "-release", path}
		if j.tdv {
			args = append(args, "-tdp")
		}
		p, err := b.command("ksym", args...)
		r.release += p.wall.Seconds()
		r.releases = append(r.releases, p.wall.Seconds())
		r.rssMB = max(r.rssMB, p.rssMB)
		var rel *release
		if err == nil {
			rel, err = b.checkRelease(j, path)
		}
		b.op("release "+j.name(), err)
		if rel != nil {
			r.vertices += rel.verticesAdded()
		}

		err = fmt.Errorf("no release to draw from")
		if rel != nil {
			dir := b.sampleDir(j)
			if err = os.MkdirAll(dir, 0o755); err == nil {
				p, err = b.command("ksample", "-release", path, "-count", strconv.Itoa(j.samples), "-out-dir", dir)
				r.sample += p.wall.Seconds()
				r.rssMB = max(r.rssMB, p.rssMB)
			}
			if err == nil {
				err = b.checkSamples(j, rel)
			}
		}
		b.op("draw "+j.name(), err)
	}
	return r
}

// runBatch runs rounds of jobs until the run's time is up and reports the
// end-to-end metrics, or with -trace 1 the per-layer ones.
func (b *bench) runBatch(jobs []batchJob) error {
	if b.trace {
		return b.tracedBatch(jobs)
	}
	var release, sample, vertices, typical, tails, rate []float64
	rss := 0.0
	for round := 0; b.more(round); round++ {
		r := b.untracedRound(jobs)
		release = append(release, r.release)
		sample = append(sample, r.sample)
		vertices = append(vertices, float64(r.vertices))
		typical = append(typical, median(r.releases))
		if _, tail, ok := tailPercentile(r.releases); ok {
			tails = append(tails, tail)
		} else {
			tails = append(tails, maxOf(r.releases))
		}
		rate = append(rate, float64(len(r.releases))/r.release)
		rss = max(rss, r.rssMB)
	}
	b.set("release_s", median(release))
	b.set("sample_s", median(sample))
	b.set("vertices_added", median(vertices))
	b.set("peak_rss_mb", rss)
	// A batch job is one release, and the job figures are a round's. The
	// tail is the highest percentile with ten releases beyond it, or the
	// slowest release when a round has fewer than forty.
	b.set("job_p50_s", median(typical))
	b.set("job_tail_s", median(tails))
	b.set("jobs_per_s", median(rate))
	return nil
}

// paperNetworks are the calibrated stand-ins for the paper's Enron, Hepth
// and Net-trace networks (Table 1). A run releases several instances of
// each, from distinct seeds, so that its figures do not hang on one
// graph's orbit structure. The counts give a round the forty releases a
// tail needs. Releases sort by kind: 6 Enron, 10 Hepth at k = 5, 10
// Hepth at k = 10, then 14 Net-trace; so the median falls in the middle
// of the Hepth releases at k = 10 and the tail among the faster Net-trace
// ones, not on a boundary between two kinds of release. (The exact
// search on a Net-trace stand-in takes about 200 ms on most seeds and
// twice that on some, so the Net-trace releases are kept to seven.)
var paperNetworks = []struct {
	name      string
	gen       func(seed int64) *graph.Graph
	instances int
}{
	{"enron", datasets.Enron, 3},
	{"hepth", datasets.Hepth, 10},
	{"nettrace", datasets.NetTrace, 7},
}

// runPaperExact: the three stand-ins at k = 5 and 10 on the exact rung,
// 20 approximate samples from each release (Figures 8–11).
func runPaperExact(b *bench) error {
	var jobs []batchJob
	for n, net := range paperNetworks {
		for i := 0; i < net.instances; i++ {
			in, err := b.writeInput(fmt.Sprintf("%s-%d", net.name, i), net.gen(b.seed*100+int64(10*n+i)))
			if err != nil {
				return err
			}
			for _, k := range []int{5, 10} {
				jobs = append(jobs, batchJob{in: in, k: k, samples: 20})
			}
		}
	}
	return b.runBatch(jobs)
}

// scaleN is the scale-tdv graph's size: the largest datasets.ScaleTiers
// tier whose release and sampling fit a 7 GB, 2-CPU machine with room to
// spare (each of ksym and ksample peaks near 1.2 GB on it).
const scaleN = 1_000_000

// runScaleTDV: one hub-heavy Barabási–Albert graph (m0 = m = 3) released
// on the 𝒯𝒟𝒱 rung at k = 2, then three analyst samples.
func runScaleTDV(b *bench) error {
	in, err := b.writeInput("ba", datasets.ScaleGraph("BA", scaleN, b.seed))
	if err != nil {
		return err
	}
	return b.runBatch([]batchJob{{in: in, k: 2, tdv: true, samples: 3}})
}
