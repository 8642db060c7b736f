package refine

import (
	"context"
	"errors"
	"testing"

	"ksymmetry/internal/datasets"
	"ksymmetry/internal/graph"
	"ksymmetry/internal/partition"
)

// parallelTestGraphs are all above parallelRefineMinN so the round
// refiner actually runs (smaller inputs route to the sequential
// kernel before it is even constructed).
func parallelTestGraphs() map[string]*graph.Graph {
	return map[string]*graph.Graph{
		"ba4096":  datasets.BarabasiAlbert(4096, 3, 3, 11),
		"ws3000":  datasets.WattsStrogatz(3000, 4, 0.1, 12),
		"er2500":  datasets.ErdosRenyiGM(2500, 6000, 13),
		"cyc2048": datasets.Cycle(2048),
	}
}

// TestParallelRefinementMatchesSequential: the round-based parallel
// refinement must produce the exact partition the sequential worklist
// kernel does, at every worker count — both are the unique coarsest
// equitable refinement, and the cell numbering is canonical.
func TestParallelRefinementMatchesSequential(t *testing.T) {
	ctx := context.Background()
	for name, g := range parallelTestGraphs() {
		c := graph.NewCSR(g)
		want, err := equitable(ctx, c, partition.Unit(c.N()))
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range []int{2, 4, 8} {
			got, err := TotalDegreePartitionWorkersCSRCtx(ctx, c, w)
			if err != nil {
				t.Fatalf("%s workers=%d: %v", name, w, err)
			}
			if !want.Equal(got) {
				t.Errorf("%s workers=%d: parallel TDP differs from sequential (%d vs %d cells)",
					name, w, got.NumCells(), want.NumCells())
			}
		}
	}
}

// TestParallelRefinementNontrivialInitial exercises the initial-
// partition entry point: rounds must respect (only ever refine) the
// given cells, exactly like the sequential kernel.
func TestParallelRefinementNontrivialInitial(t *testing.T) {
	ctx := context.Background()
	g := datasets.BarabasiAlbert(4096, 3, 3, 11)
	c := graph.NewCSR(g)
	cellOf := make([]int, g.N())
	for v := range cellOf {
		cellOf[v] = v % 3
	}
	initial := partition.FromCellOf(cellOf)
	want, err := equitable(ctx, c, initial)
	if err != nil {
		t.Fatal(err)
	}
	got, err := EquitableWorkersCSRCtx(ctx, c, initial, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !want.Equal(got) {
		t.Fatalf("parallel refinement of a 3-cell initial partition differs from sequential")
	}
}

// TestParallelRefinementSmallRoutesSequential: under the size cutover
// (or with a one-worker pool) the workers entry point must defer to —
// and therefore exactly match — the sequential kernel.
func TestParallelRefinementSmallRoutesSequential(t *testing.T) {
	ctx := context.Background()
	g := datasets.Cycle(100)
	c := graph.NewCSR(g)
	want, err := equitable(ctx, c, partition.Unit(c.N()))
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{1, 4} {
		got, err := TotalDegreePartitionWorkersCSRCtx(ctx, c, w)
		if err != nil {
			t.Fatal(err)
		}
		if !want.Equal(got) {
			t.Fatalf("workers=%d: small-graph result differs from sequential", w)
		}
	}
}

// TestParallelRefinementVerify drives the exact verification pass
// directly: a genuinely equitable coloring must be accepted, and a
// non-equitable one (as if a hash collision had merged two distinct
// profiles) must be rejected — that rejection is what arms the
// sequential fallback.
func TestParallelRefinementVerify(t *testing.T) {
	ctx := context.Background()

	// A cycle with every vertex in one cell is equitable (2-regular,
	// all neighbors in-cell).
	c := graph.NewCSR(datasets.Cycle(64))
	r := &roundRefiner{csr: c, workers: 2}
	r.color = make([]int32, c.N())
	r.order = make([]int32, c.N())
	for v := 0; v < c.N(); v++ {
		r.order[v] = int32(v)
	}
	ok, err := r.verify(ctx, 1)
	if err != nil || !ok {
		t.Fatalf("verify(equitable cycle) = %v, %v; want true, nil", ok, err)
	}

	// A star with every vertex in one cell is NOT equitable: the hub's
	// degree differs from the leaves'.
	c = graph.NewCSR(datasets.Star(64))
	r = &roundRefiner{csr: c, workers: 2}
	r.color = make([]int32, c.N())
	r.order = make([]int32, c.N())
	for v := 0; v < c.N(); v++ {
		r.order[v] = int32(v)
	}
	ok, err = r.verify(ctx, 1)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("verify accepted a non-equitable coloring; the collision fallback would never fire")
	}
}

// TestParallelRefinementCancelled: a dead context must surface as
// context.Canceled from inside the round loop, not as a partial
// partition.
func TestParallelRefinementCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	c := graph.NewCSR(datasets.BarabasiAlbert(4096, 3, 3, 11))
	if _, err := TotalDegreePartitionWorkersCSRCtx(ctx, c, 4); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}
