package main

import (
	"bytes"
	"slices"
	"testing"

	"ksymmetry/internal/automorphism"
	"ksymmetry/internal/datasets"
	"ksymmetry/internal/graph"
	"ksymmetry/internal/ksym"
	"ksymmetry/internal/publish"
	"ksymmetry/internal/refine"
	"ksymmetry/internal/sampling"
)

// fig3Release anonymizes the paper's Figure 3 graph at k = 3 on its exact
// orbit partition and returns the input, the parsed release, the search's
// generators, and the release as written.
func fig3Release(t *testing.T) (*csr, *release, [][]int, []byte) {
	t.Helper()
	g := datasets.Fig3()
	orb, gens, err := automorphism.OrbitPartition(g, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := ksym.Anonymize(g, orb, 3)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := publish.FromResult(res).Write(&buf); err != nil {
		t.Fatal(err)
	}
	rel, err := parseRelease(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	perms := make([][]int, len(gens))
	for i, p := range gens {
		perms[i] = p
	}
	return toCSR(t, g), rel, perms, buf.Bytes()
}

func toCSR(t *testing.T, g *graph.Graph) *csr {
	t.Helper()
	var buf bytes.Buffer
	if err := g.Write(&buf); err != nil {
		t.Fatal(err)
	}
	c, err := parseGraph(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// withCells replaces the release's cells.
func withCells(r *release, cells [][]int32) *release {
	out := *r
	out.cells = cells
	out.cellOf = make([]int32, r.g.n)
	for i, c := range cells {
		for _, v := range c {
			out.cellOf[v] = int32(i)
		}
	}
	return &out
}

// withoutEdge removes the edge u-v from the release's graph.
func withoutEdge(t *testing.T, r *release, u, v int) *release {
	t.Helper()
	var us, vs []int32
	for a := 0; a < r.g.n; a++ {
		for _, b := range r.g.row(a) {
			if int32(a) < b && !(a == u && int(b) == v) && !(a == v && int(b) == u) {
				us, vs = append(us, int32(a)), append(vs, b)
			}
		}
	}
	if len(us) != r.g.edges()-1 {
		t.Fatalf("no edge %d-%d to remove", u, v)
	}
	g, err := buildCSR(r.g.n, us, vs)
	if err != nil {
		t.Fatal(err)
	}
	out := *r
	out.g = g
	return &out
}

func TestValidReleasePassesEveryCheck(t *testing.T) {
	g, rel, gens, _ := fig3Release(t)
	if rel.verticesAdded() != 10 {
		t.Errorf("Figure 3 at k = 3 adds %d vertices, the paper's Figure 5(b) adds 10", rel.verticesAdded())
	}
	if err := checkRelease(rel, g, 3); err != nil {
		t.Fatal(err)
	}
	if err := checkGenerators(g, gens, rel.originalLabels()); err != nil {
		t.Fatal(err)
	}
}

func TestCellOfSizeKMinusOneIsRejected(t *testing.T) {
	g, rel, _, _ := fig3Release(t)
	// Split one vertex off the first cell of exactly k vertices.
	var cells [][]int32
	split := false
	for _, c := range rel.cells {
		if len(c) == 3 && !split {
			cells = append(cells, c[:2], c[2:])
			split = true
			continue
		}
		cells = append(cells, c)
	}
	if !split {
		t.Fatal("no cell of k vertices to split")
	}
	bad := withCells(rel, cells)
	if err := checkCellSizes(bad, 3); err == nil {
		t.Fatal("checkCellSizes accepted a cell of k − 1 vertices")
	}
	if err := checkRelease(bad, g, 3); err == nil {
		t.Fatal("checkRelease accepted a cell of k − 1 vertices")
	}
}

func TestMissingOriginalEdgeIsRejected(t *testing.T) {
	g, rel, _, _ := fig3Release(t)
	bad := withoutEdge(t, rel, 2, 3) // v3–v4 of Figure 3
	if err := checkOriginalEdges(bad, g); err == nil {
		t.Fatal("checkOriginalEdges accepted a release without an original edge")
	}
}

func TestNonEquitableCellIsRejected(t *testing.T) {
	g, rel, _, _ := fig3Release(t)
	// Drop one edge between two copies: the originals keep G's edges and
	// every cell keeps its size, but the copies' cells stop being
	// equitable.
	u := -1
	for v := rel.origN; v < rel.g.n && u < 0; v++ {
		for _, w := range rel.g.row(v) {
			if int(w) >= rel.origN {
				u = v
				bad := withoutEdge(t, rel, v, int(w))
				if err := checkOriginalEdges(bad, g); err != nil {
					t.Fatalf("the corruption touched an original edge: %v", err)
				}
				if err := checkEquitable(bad); err == nil {
					t.Fatal("checkEquitable accepted a non-equitable cell")
				}
				break
			}
		}
	}
	if u < 0 {
		t.Fatal("no edge between copies to drop")
	}
}

func TestNonAutomorphismGeneratorIsRejected(t *testing.T) {
	g, rel, gens, _ := fig3Release(t)
	// Swap v3 (degree 4) with v8 (degree 2): not an automorphism.
	bad := make([]int, g.n)
	for v := range bad {
		bad[v] = v
	}
	bad[2], bad[7] = 7, 2
	if err := checkGenerators(g, append(slices.Clone(gens), bad), rel.originalLabels()); err == nil {
		t.Fatal("checkGenerators accepted a non-automorphism")
	}
	// Without its generators the orbits are singletons, not the cells.
	if err := checkGenerators(g, nil, rel.originalLabels()); err == nil {
		t.Fatal("checkGenerators accepted orbits that are not the cells")
	}
}

func TestTDVCheckRejectsAFinerPartition(t *testing.T) {
	g, rel, _, _ := fig3Release(t)
	// On Figure 3 the coarsest equitable partition is the orbit partition.
	if err := checkTDV(rel, coarsestEquitable(g)); err != nil {
		t.Fatal(err)
	}
	discrete := make([][]int32, rel.g.n)
	for v := range discrete {
		discrete[v] = []int32{int32(v)}
	}
	if err := checkTDV(withCells(rel, discrete), coarsestEquitable(g)); err == nil {
		t.Fatal("checkTDV accepted the discrete partition")
	}
}

func TestCoarsestEquitableMatchesRefine(t *testing.T) {
	for name, g := range map[string]*graph.Graph{
		"petersen": datasets.Petersen(),
		"fig1":     datasets.Fig1(),
		"hepth":    datasets.Hepth(3),
		"nettrace": datasets.NetTrace(3),
		"ba":       datasets.BarabasiAlbert(3000, 3, 3, 3),
	} {
		want := make([]int32, g.N())
		p := refine.TotalDegreePartition(g)
		for v := range want {
			want[v] = int32(p.CellIndexOf(v))
		}
		if err := samePartition(coarsestEquitable(toCSR(t, g)), canonical(want), name); err != nil {
			t.Error(err)
		}
	}
}

// asymmetricTree is the smallest tree with no non-trivial automorphism: a
// path 0–5 with a pendant 6 at vertex 2. Its 𝒯𝒟𝒱 is discrete.
func asymmetricTree() *graph.Graph {
	g := datasets.Path(6)
	g.AddVertex()
	g.AddEdge(2, 6)
	return g
}

func TestSampleChecks(t *testing.T) {
	g := asymmetricTree()
	res, err := ksym.Anonymize(g, refine.TotalDegreePartition(g), 2)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := publish.FromResult(res).Write(&buf); err != nil {
		t.Fatal(err)
	}
	rel, err := parseRelease(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	in := toCSR(t, g)
	samples, err := sampling.Batch(res.Graph, res.Partition, g.N(), 5, &sampling.Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range samples {
		if err := checkSample(toCSR(t, s), rel, 2, sortedDegrees(in)); err != nil {
			t.Fatal(err)
		}
	}
	if err := checkSample(toCSR(t, datasets.Path(7)), rel, 2, sortedDegrees(in)); err == nil {
		t.Fatal("checkSample accepted a sample without G's degree sequence")
	}
	if err := checkSample(toCSR(t, datasets.Path(6)), rel, 2, sortedDegrees(in)); err == nil {
		t.Fatal("checkSample accepted a sample of the wrong size")
	}
}

func TestParseReleaseRejectsTruncation(t *testing.T) {
	_, _, _, data := fig3Release(t)
	if _, err := parseRelease(bytes.TrimSuffix(data, []byte("%end\n"))); err == nil {
		t.Fatal("parseRelease accepted a release without its end marker")
	}
}

func TestTailPercentile(t *testing.T) {
	xs := make([]float64, 50)
	for i := range xs {
		xs[i] = float64(50 - i)
	}
	pct, v, ok := tailPercentile(xs)
	if !ok || pct != 80 || v != 40 {
		t.Fatalf("tailPercentile of 1..50 = p%d %v %v, want p80 40 true", pct, v, ok)
	}
	if _, _, ok := tailPercentile(xs[:39]); ok {
		t.Fatal("tailPercentile reported a tail of 39 values")
	}
}
