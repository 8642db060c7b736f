package ksym

import (
	"context"
	"math/rand"
	"testing"
	"testing/quick"

	"ksymmetry/internal/automorphism"
	"ksymmetry/internal/datasets"
	"ksymmetry/internal/graph"
	"ksymmetry/internal/partition"
)

// orb computes the exact automorphism partition, failing the test on
// search-budget exhaustion.
func orb(t *testing.T, g *graph.Graph) *partition.Partition {
	t.Helper()
	p, _, err := automorphism.OrbitPartition(g, nil)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func randomGraph(n int, prob float64, seed int64) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	g := graph.New(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if rng.Float64() < prob {
				g.AddEdge(i, j)
			}
		}
	}
	return g
}

func TestOrbitCopyFig3(t *testing.T) {
	// Copying V3 = {v4,v5} of the Fig. 3 graph (0-indexed {3,4}) must
	// add two vertices attached to v3 and mirror the internal edges —
	// the Fig. 3(b) picture.
	g := datasets.Fig3()
	p := orb(t, g)
	ci := p.CellIndexOf(3)
	h, q := OrbitCopy(g, p, ci)
	if h.N() != 10 {
		t.Fatalf("N = %d, want 10", h.N())
	}
	// New vertices 8, 9 are copies of 3 and 4: both adjacent to v3
	// (vertex 2) like the originals, plus mirrored external edges to
	// nothing else in other cells except 5/6 neighbors... v4's external
	// neighbors are {2,5}; its copy must attach to exactly {2,5}.
	if !h.HasEdge(8, 2) || !h.HasEdge(8, 5) {
		t.Fatalf("copy of v4 has neighbors %v, want {2,5}", h.Neighbors(8))
	}
	if !h.HasEdge(9, 2) || !h.HasEdge(9, 6) {
		t.Fatalf("copy of v5 has neighbors %v, want {2,6}", h.Neighbors(9))
	}
	if h.HasEdge(8, 3) || h.HasEdge(9, 4) || h.HasEdge(8, 9) {
		t.Fatal("copy must not connect to the original cell; {3,4} has no internal edges")
	}
	// Union cell {3,4,8,9}.
	cell := q.CellOfVertex(3)
	if len(cell) != 4 {
		t.Fatalf("union cell = %v, want 4 vertices", cell)
	}
	// The union partition must be a sub-automorphism partition: every
	// pair in the union cell is joined by an automorphism of h
	// stabilizing q. At minimum the cell must lie inside one orbit of h.
	ho := orb(t, h)
	if ho.CellIndexOf(3) != ho.CellIndexOf(8) || ho.CellIndexOf(4) != ho.CellIndexOf(9) {
		t.Fatal("copies are not automorphically equivalent to originals")
	}
}

func TestOrbitCopyInternalEdges(t *testing.T) {
	// Copying a cell with internal edges must mirror them among the
	// copies (rule 2 of Definition 3): use K3's single orbit.
	g := datasets.Complete(3)
	p := orb(t, g)
	h, q := OrbitCopy(g, p, 0)
	if h.N() != 6 || h.M() != 6 {
		t.Fatalf("N=%d M=%d, want 6, 6 (two disjoint triangles)", h.N(), h.M())
	}
	for _, e := range [][2]int{{3, 4}, {3, 5}, {4, 5}} {
		if !h.HasEdge(e[0], e[1]) {
			t.Fatalf("missing mirrored internal edge %v", e)
		}
	}
	if h.HasEdge(0, 3) {
		t.Fatal("copy connected to original")
	}
	if q.NumCells() != 1 || len(q.Cell(0)) != 6 {
		t.Fatalf("partition after copy = %v", q)
	}
}

func TestOrbitCopyFig4Counterexample(t *testing.T) {
	// Copying the singleton {v1} of P3 yields C4; all four vertices of
	// C4 are in one orbit, so 𝒱' ≠ Orb(G') (Example 4).
	g := datasets.Fig4()
	p := orb(t, g)
	ci := p.CellIndexOf(0)
	h, q := OrbitCopy(g, p, ci)
	if h.N() != 4 || h.M() != 4 {
		t.Fatalf("N=%d M=%d, want C4", h.N(), h.M())
	}
	ho := orb(t, h)
	if ho.NumCells() != 1 {
		t.Fatalf("Orb(C4) = %v, want single orbit", ho)
	}
	if q.NumCells() != 2 {
		t.Fatalf("𝒱' = %v, want 2 cells (finer than Orb)", q)
	}
	if !q.IsFinerThan(ho) {
		t.Fatal("𝒱' must refine Orb(G')")
	}
}

func TestAnonymizeFig3K2(t *testing.T) {
	// k=2 (Fig. 5a): only V2={v3} and V5={v8} need copying: +2
	// vertices.
	g := datasets.Fig3()
	res, err := Anonymize(g, orb(t, g), 2)
	if err != nil {
		t.Fatal(err)
	}
	if res.VerticesAdded() != 2 {
		t.Fatalf("vertices added = %d, want 2", res.VerticesAdded())
	}
	if res.CopyOps != 2 {
		t.Fatalf("copy ops = %d, want 2", res.CopyOps)
	}
	if got := orb(t, res.Graph); !IsKSymmetric(got, 2) {
		t.Fatalf("result not 2-symmetric: %v", got)
	}
}

func TestAnonymizeFig3K3(t *testing.T) {
	// k=3 (Fig. 5b): all five orbits are copied. Size-2 orbits get one
	// copy (+2 each), singletons get two (+2 each): +10 vertices.
	g := datasets.Fig3()
	res, err := Anonymize(g, orb(t, g), 3)
	if err != nil {
		t.Fatal(err)
	}
	if res.VerticesAdded() != 10 {
		t.Fatalf("vertices added = %d, want 10", res.VerticesAdded())
	}
	if got := orb(t, res.Graph); !IsKSymmetric(got, 3) {
		t.Fatalf("result not 3-symmetric: %v", got)
	}
}

func TestAnonymizePreservesOriginal(t *testing.T) {
	g := datasets.Fig1()
	res, err := Anonymize(g, orb(t, g), 4)
	if err != nil {
		t.Fatal(err)
	}
	// Vertex/edge insertion only: G must be the induced prefix.
	for _, e := range g.Edges() {
		if !res.Graph.HasEdge(e[0], e[1]) {
			t.Fatalf("original edge %v lost", e)
		}
	}
	if res.Graph.N() < g.N() || res.Graph.M() < g.M() {
		t.Fatal("anonymization may only insert")
	}
}

func TestAnonymizeAlreadySymmetric(t *testing.T) {
	// C6 is vertex-transitive: one orbit of size 6, so k ≤ 6 needs no
	// modification.
	g := datasets.Cycle(6)
	res, err := Anonymize(g, orb(t, g), 5)
	if err != nil {
		t.Fatal(err)
	}
	if res.VerticesAdded() != 0 || res.EdgesAdded() != 0 || res.CopyOps != 0 {
		t.Fatalf("C6 with k=5 should be untouched, got +%dv +%de", res.VerticesAdded(), res.EdgesAdded())
	}
	if !res.Graph.Equal(g) {
		t.Fatal("graph changed")
	}
}

func TestAnonymizeErrors(t *testing.T) {
	g := datasets.Fig3()
	p := orb(t, g)
	if _, err := Anonymize(g, p, 0); err == nil {
		t.Fatal("k=0 should error")
	}
	wrong := partition.Unit(3)
	if _, err := Anonymize(g, wrong, 2); err == nil {
		t.Fatal("mismatched partition should error")
	}
	if _, err := AnonymizeFCtx(context.Background(), g, p, func([]int) int { return 0 }); err == nil {
		t.Fatal("target < 1 should error")
	}
}

func TestAnonymizeK1IsNoOp(t *testing.T) {
	g := randomGraph(20, 0.2, 5)
	res, err := Anonymize(g, orb(t, g), 1)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Graph.Equal(g) {
		t.Fatal("k=1 must be a no-op")
	}
}

func TestIsKSymmetric(t *testing.T) {
	p := partition.MustFromCells(5, [][]int{{0, 1, 2}, {3, 4}})
	if !IsKSymmetric(p, 2) {
		t.Fatal("min cell 2 should be 2-symmetric")
	}
	if IsKSymmetric(p, 3) {
		t.Fatal("min cell 2 is not 3-symmetric")
	}
}

func TestOrderIndependence(t *testing.T) {
	// Lemma 3: the result of a sequence of orbit copy operations is
	// independent of order, up to isomorphism. Anonymize processes
	// cells in a fixed order; compare against manually permuted orders.
	g := datasets.Fig3()
	p := orb(t, g)
	k := 3
	build := func(order []int) *graph.Graph {
		h := g.Clone()
		cellOf := make([]int, g.N())
		for v := 0; v < g.N(); v++ {
			cellOf[v] = p.CellIndexOf(v)
		}
		for _, i := range order {
			cell := p.Cell(i)
			for size := len(cell); size < k; size += len(cell) {
				copyCell(h, &cellOf, i, cell)
			}
		}
		return h
	}
	ref := build([]int{0, 1, 2, 3, 4})
	for _, order := range [][]int{{4, 3, 2, 1, 0}, {2, 0, 4, 1, 3}, {1, 4, 0, 3, 2}} {
		got := build(order)
		if _, ok := graph.Isomorphic(ref, got); !ok {
			t.Fatalf("order %v gave non-isomorphic result", order)
		}
	}
}

func TestDegreeThresholdTarget(t *testing.T) {
	g := datasets.Star(5) // center degree 5, leaves degree 1
	p := orb(t, g)
	target := DegreeThresholdTarget(g, 4, 3)
	res, err := AnonymizeFCtx(context.Background(), g, p, target)
	if err != nil {
		t.Fatal(err)
	}
	// The hub (degree 5 > δ=3) is excluded; the leaf orbit already has
	// 5 ≥ 4 vertices: nothing to do.
	if res.VerticesAdded() != 0 {
		t.Fatalf("hub-excluded star should be untouched, added %d", res.VerticesAdded())
	}
	// Without exclusion the hub must be copied 3 times.
	res2, err := Anonymize(g, p, 4)
	if err != nil {
		t.Fatal(err)
	}
	if res2.VerticesAdded() != 3 {
		t.Fatalf("protected star: added %d vertices, want 3", res2.VerticesAdded())
	}
	if res2.EdgesAdded() != 15 {
		// Each hub copy attaches to all 5 leaves.
		t.Fatalf("protected star: added %d edges, want 15", res2.EdgesAdded())
	}
}

func TestTopFractionTarget(t *testing.T) {
	g := datasets.Star(9) // 10 vertices; top 10% = the hub
	p := orb(t, g)
	res, err := AnonymizeFCtx(context.Background(), g, p, TopFractionTarget(g, 3, 0.1))
	if err != nil {
		t.Fatal(err)
	}
	if res.VerticesAdded() != 0 {
		t.Fatalf("excluding the hub should leave the star untouched, added %d", res.VerticesAdded())
	}
	// Fraction 0 protects everything.
	res2, err := AnonymizeFCtx(context.Background(), g, p, TopFractionTarget(g, 3, 0))
	if err != nil {
		t.Fatal(err)
	}
	if res2.VerticesAdded() != 2 {
		t.Fatalf("frac=0: added %d vertices, want 2 hub copies", res2.VerticesAdded())
	}
}

func TestTopFractionTargetClamp(t *testing.T) {
	g := datasets.Star(9) // 10 vertices: hub 0 (degree 9), leaves 1..9
	hub := []int{0}
	leaves := []int{1, 2, 3, 4, 5, 6, 7, 8, 9}
	cases := []struct {
		frac                string
		f                   float64
		wantHub, wantLeaves int
	}{
		{"0", 0, 3, 3},       // nothing excluded: both cells protected
		{"0.1", 0.1, 1, 3},   // only the hub excluded
		{"0.5", 0.5, 1, 1},   // hub + 4 leaves: both cells touched
		{"1.0", 1.0, 1, 1},   // everything excluded
		{"1.1", 1.1, 1, 1},   // m must clamp to N instead of slicing past it
		{"-0.5", -0.5, 3, 3}, // m must clamp to 0
	}
	for _, tc := range cases {
		target := TopFractionTarget(g, 3, tc.f)
		if got := target(hub); got != tc.wantHub {
			t.Errorf("frac=%s: hub target = %d, want %d", tc.frac, got, tc.wantHub)
		}
		if got := target(leaves); got != tc.wantLeaves {
			t.Errorf("frac=%s: leaf target = %d, want %d", tc.frac, got, tc.wantLeaves)
		}
	}
}

func TestExclusionReducesCost(t *testing.T) {
	// The §5.2 claim, on a hub-heavy graph: excluding hubs cuts cost.
	g := graph.New(30)
	for i := 1; i < 20; i++ {
		g.AddEdge(0, i)
	}
	for i := 20; i < 30; i++ {
		g.AddEdge(i, 1)
	}
	p := orb(t, g)
	full, err := Anonymize(g, p, 5)
	if err != nil {
		t.Fatal(err)
	}
	excl, err := AnonymizeFCtx(context.Background(), g, p, TopFractionTarget(g, 5, 0.07))
	if err != nil {
		t.Fatal(err)
	}
	if excl.EdgesAdded() >= full.EdgesAdded() {
		t.Fatalf("exclusion did not reduce edge cost: %d vs %d", excl.EdgesAdded(), full.EdgesAdded())
	}
}

func TestPropertyAnonymizeIsKSymmetric(t *testing.T) {
	// End-to-end soundness: for random graphs and k ∈ {2,3}, the output
	// of Algorithm 1 is k-symmetric by the exact orbit computation.
	f := func(seed int64) bool {
		g := randomGraph(10, 0.25, seed)
		p, _, err := automorphism.OrbitPartition(g, nil)
		if err != nil {
			return false
		}
		for _, k := range []int{2, 3} {
			res, err := Anonymize(g, p, k)
			if err != nil {
				return false
			}
			po, _, err := automorphism.OrbitPartition(res.Graph, nil)
			if err != nil {
				return false
			}
			if !IsKSymmetric(po, k) {
				return false
			}
			if !res.Partition.IsFinerThan(po) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyCostBound(t *testing.T) {
	// §3.3: vertices added ≤ (k-1)·|V(G)|.
	f := func(seed int64) bool {
		g := randomGraph(12, 0.2, seed)
		p, _, err := automorphism.OrbitPartition(g, nil)
		if err != nil {
			return false
		}
		k := 4
		res, err := Anonymize(g, p, k)
		if err != nil {
			return false
		}
		return res.VerticesAdded() <= (k-1)*g.N()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}
