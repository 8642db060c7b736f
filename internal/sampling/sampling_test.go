package sampling

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"ksymmetry/internal/automorphism"
	"ksymmetry/internal/datasets"
	"ksymmetry/internal/graph"
	"ksymmetry/internal/ksym"
	"ksymmetry/internal/partition"
)

func orb(t *testing.T, g *graph.Graph) *partition.Partition {
	t.Helper()
	p, _, err := automorphism.OrbitPartition(g, nil)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// anonFig3 returns the Fig. 3 graph anonymized with the given k.
func anonFig3(t *testing.T, k int) (*graph.Graph, *ksym.Result) {
	t.Helper()
	g := datasets.Fig3()
	res, err := ksym.Anonymize(g, orb(t, g), k)
	if err != nil {
		t.Fatal(err)
	}
	return g, res
}

// exactSample and approxSample run one sample the way Batch does: the
// inverse-degree default weights and an RNG seeded with seed.
func exactSample(gp *graph.Graph, vp *partition.Partition, n int, seed int64) (*graph.Graph, error) {
	return exact(context.Background(), gp, vp, n, InverseDegreeProbabilities(gp, vp), rand.New(rand.NewSource(seed)))
}

func approxSample(gp *graph.Graph, vp *partition.Partition, n int, seed int64) (*graph.Graph, error) {
	return approximate(context.Background(), graph.NewCSR(gp), vp, n, InverseDegreeProbabilities(gp, vp), rand.New(rand.NewSource(seed)))
}

func TestInverseDegreeProbabilities(t *testing.T) {
	g := datasets.Star(3)
	p := orb(t, g)
	probs := InverseDegreeProbabilities(g, p)
	if len(probs) != 2 {
		t.Fatalf("probs = %v", probs)
	}
	sum := 0.0
	for _, w := range probs {
		sum += w
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Fatalf("probabilities sum to %v", sum)
	}
	// Leaf cell (degree 1) weight must exceed hub cell (degree 3).
	hub, leaf := p.CellIndexOf(0), p.CellIndexOf(1)
	if probs[leaf] <= probs[hub] {
		t.Fatalf("inverse-degree weights wrong: leaf %v ≤ hub %v", probs[leaf], probs[hub])
	}
}

func TestUniformProbabilities(t *testing.T) {
	p := partition.MustFromCells(4, [][]int{{0, 1}, {2}, {3}})
	probs := UniformProbabilities(p)
	for _, w := range probs {
		if math.Abs(w-1.0/3.0) > 1e-12 {
			t.Fatalf("uniform probs = %v", probs)
		}
	}
}

func TestExactSampleSize(t *testing.T) {
	g, res := anonFig3(t, 3)
	for seed := int64(0); seed < 10; seed++ {
		s, err := exactSample(res.Graph, res.Partition, g.N(), seed)
		if err != nil {
			t.Fatal(err)
		}
		// ≥ n, overshoot bounded by the largest cell of the backbone.
		if s.N() < g.N() || s.N() > g.N()+2 {
			t.Fatalf("seed %d: sample size %d, want ≈%d", seed, s.N(), g.N())
		}
	}
}

func TestExactSampleFullSize(t *testing.T) {
	// Requesting |V(G')| must regrow everything.
	_, res := anonFig3(t, 3)
	s, err := exactSample(res.Graph, res.Partition, res.Graph.N(), 7)
	if err != nil {
		t.Fatal(err)
	}
	if s.N() != res.Graph.N() {
		t.Fatalf("full regrow: %d != %d", s.N(), res.Graph.N())
	}
	if _, ok := graph.Isomorphic(s, res.Graph); !ok {
		t.Fatal("full regrow should reproduce G' up to isomorphism")
	}
}

func TestExactErrors(t *testing.T) {
	_, res := anonFig3(t, 2)
	if _, err := exactSample(res.Graph, res.Partition, 0, 1); err == nil {
		t.Fatal("n=0 should error")
	}
	if _, err := exactSample(res.Graph, res.Partition, res.Graph.N()+1, 1); err == nil {
		t.Fatal("n > |V(G')| should error")
	}
}

func TestApproximateSampleSize(t *testing.T) {
	g, res := anonFig3(t, 3)
	for seed := int64(0); seed < 10; seed++ {
		s, err := approxSample(res.Graph, res.Partition, g.N(), seed)
		if err != nil {
			t.Fatal(err)
		}
		if s.N() != g.N() {
			t.Fatalf("seed %d: sample size %d, want %d", seed, s.N(), g.N())
		}
	}
}

func TestApproximateFullSize(t *testing.T) {
	_, res := anonFig3(t, 2)
	s, err := approxSample(res.Graph, res.Partition, res.Graph.N(), 3)
	if err != nil {
		t.Fatal(err)
	}
	if s.N() != res.Graph.N() {
		t.Fatalf("full sample: %d != %d", s.N(), res.Graph.N())
	}
	if s.M() != res.Graph.M() {
		t.Fatalf("full sample edges: %d != %d", s.M(), res.Graph.M())
	}
}

func TestApproximateRespectsQuotas(t *testing.T) {
	// Every 𝒱' cell must contribute at least one vertex (S initialized
	// to 1), and no cell more than its size.
	g, res := anonFig3(t, 5)
	s, err := approxSample(res.Graph, res.Partition, g.N(), 11)
	if err != nil {
		t.Fatal(err)
	}
	if s.N() != g.N() {
		t.Fatalf("sample size %d", s.N())
	}
}

func TestApproximateErrors(t *testing.T) {
	_, res := anonFig3(t, 2)
	if _, err := approxSample(res.Graph, res.Partition, 2, 1); err == nil {
		t.Fatal("n below cell count should error")
	}
	if _, err := approxSample(res.Graph, res.Partition, res.Graph.N()+1, 1); err == nil {
		t.Fatal("n above graph size should error")
	}
}

func TestApproximateDeepPath(t *testing.T) {
	// A 100k-vertex path forces the DFS to its full depth; the explicit
	// frame stack must absorb it (the recursive walk risked exhausting
	// the goroutine stack on exactly this shape).
	const n = 100_000
	g := graph.New(n)
	for v := 0; v+1 < n; v++ {
		g.AddEdge(v, v+1)
	}
	s, err := approxSample(g, partition.Unit(n), n, 7)
	if err != nil {
		t.Fatal(err)
	}
	if s.N() != n {
		t.Fatalf("deep-path sample has %d vertices, want %d", s.N(), n)
	}
	if s.M() != n-1 {
		t.Fatalf("deep-path sample has %d edges, want %d", s.M(), n-1)
	}
}

func TestValidateRejectsEmptyPartition(t *testing.T) {
	g := graph.New(0)
	empty := partition.MustFromCells(0, nil)
	for _, m := range []Sampler{SamplerExact, SamplerApproximate} {
		if _, err := Batch(g, empty, 1, 1, &Options{Method: m}); err == nil {
			t.Fatalf("method %d must reject a partition with no cells", m)
		}
	}
}

func TestApproximateConnectedOnConnectedInput(t *testing.T) {
	// Fig. 3's anonymized graph is connected; DFS sampling from it
	// should usually produce a connected subgraph. With restarts the
	// guarantee is "few components"; assert the common case across
	// seeds but tolerate restart-induced splits.
	g, res := anonFig3(t, 3)
	connected := 0
	const trials = 20
	for seed := int64(0); seed < trials; seed++ {
		s, err := approxSample(res.Graph, res.Partition, g.N(), seed)
		if err != nil {
			t.Fatal(err)
		}
		if s.IsConnected() {
			connected++
		}
	}
	if connected < trials/2 {
		t.Fatalf("only %d/%d samples connected", connected, trials)
	}
}

func TestSamplersPreserveDegreeShape(t *testing.T) {
	// The sampled graph of the star's anonymization must still be
	// star-like: one hub cell vertex and many leaves.
	g := datasets.Star(6)
	p := orb(t, g)
	res, err := ksym.Anonymize(g, p, 3)
	if err != nil {
		t.Fatal(err)
	}
	s, err := approxSample(res.Graph, res.Partition, g.N(), 5)
	if err != nil {
		t.Fatal(err)
	}
	if s.N() != g.N() {
		t.Fatalf("sample size %d", s.N())
	}
	if s.MaxDegree() < 2 {
		t.Fatalf("sampled star lost its hub: max degree %d", s.MaxDegree())
	}
}

func TestExactSamplerUniformVsInverse(t *testing.T) {
	// Both probability schemes must produce valid samples (ablation).
	g, res := anonFig3(t, 4)
	for _, probs := range [][]float64{
		InverseDegreeProbabilities(res.Graph, res.Partition),
		UniformProbabilities(res.Partition),
	} {
		s, err := exact(context.Background(), res.Graph, res.Partition, g.N(), probs, rand.New(rand.NewSource(2)))
		if err != nil {
			t.Fatal(err)
		}
		if s.N() < g.N() {
			t.Fatalf("sample too small: %d", s.N())
		}
	}
}

func TestExactDeterministicForSeed(t *testing.T) {
	g, res := anonFig3(t, 3)
	a, err := exactSample(res.Graph, res.Partition, g.N(), 99)
	if err != nil {
		t.Fatal(err)
	}
	b, err := exactSample(res.Graph, res.Partition, g.N(), 99)
	if err != nil {
		t.Fatal(err)
	}
	if !a.Equal(b) {
		t.Fatal("same seed produced different samples")
	}
}

// TestPickerSkipsZeroWeightCells pins the weightedPicker contract that
// a zero-weight cell is never drawn. Before the fix, rng.Float64()
// returning exactly 0 made SearchFloat64s land on a zero-mass leading
// entry of the cumulative table and return an eligible zero-weight
// cell. The table must therefore exclude zero-weight cells outright.
func TestPickerSkipsZeroWeightCells(t *testing.T) {
	probs := []float64{0, 0.5, 0, 0.5, 0}
	wp := newWeightedPicker(probs, func(i int) bool { return true })
	for _, c := range wp.cells {
		if probs[c] == 0 {
			t.Fatalf("zero-weight cell %d present in the cumulative table %v", c, wp.cells)
		}
	}
	if len(wp.cells) != 2 || wp.cells[0] != 1 || wp.cells[1] != 3 {
		t.Fatalf("table should hold exactly the positive-weight cells, got %v", wp.cells)
	}
	// x == 0 maps to the first positive-weight cell, not cell 0.
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 10_000; i++ {
		got := wp.pick(rng)
		if got != 1 && got != 3 {
			t.Fatalf("draw %d returned cell %d with weight %v", i, got, probs[got])
		}
	}
	// Rebuild after eligibility shrinks must also keep the invariant.
	alive := []bool{true, false, true, true, true}
	wp = newWeightedPicker(probs, func(i int) bool { return alive[i] })
	if len(wp.cells) != 1 || wp.cells[0] != 3 {
		t.Fatalf("eligible positive-weight cells should be [3], got %v", wp.cells)
	}
	// All weights zero: no drawable cell, pick must report exhaustion.
	wp = newWeightedPicker([]float64{0, 0}, func(i int) bool { return true })
	if got := wp.pick(rng); got != -1 {
		t.Fatalf("all-zero weights should exhaust, got cell %d", got)
	}
}
