// Package refine implements equitable partition refinement (1-WL /
// iterated degree refinement, the "graph stabilization" of Klin &
// Tinhofer cited in §7 of the paper). The stabilized unit partition is
// the total degree partition 𝒯𝒟𝒱(G), which the paper reports to equal
// the automorphism partition Orb(G) on all of its real networks and
// recommends as a scalable substitute when exact search is infeasible.
//
// Refinement is also the workhorse inside the individualization-
// refinement automorphism search (package automorphism): Orb(G) is
// always finer than any equitable partition, so refined cells bound the
// search. Both entry points run on a frozen CSR view, through the
// worklist kernel in refiner.go or, on large graphs with a worker pool,
// the round-based pass in parallel.go; the search additionally uses the
// incremental Refiner API directly.
package refine

import (
	"context"

	"ksymmetry/internal/graph"
	"ksymmetry/internal/intkey"
	"ksymmetry/internal/parallel"
	"ksymmetry/internal/partition"
)

// TotalDegreePartitionWorkersCSRCtx returns 𝒯𝒟𝒱(G): the coarsest
// equitable partition of G, obtained by stabilizing the unit partition.
// It is always coarser than (or equal to) Orb(G). workers ≤ 0 means
// GOMAXPROCS; a resolved pool of one (or a graph under the size
// cutover) runs the sequential kernel. The partition is byte-identical
// at every worker count.
func TotalDegreePartitionWorkersCSRCtx(ctx context.Context, c *graph.CSR, workers int) (*partition.Partition, error) {
	if c.N() == 0 {
		return partition.FromCellOf(nil), nil
	}
	return EquitableWorkersCSRCtx(ctx, c, partition.Unit(c.N()), workers)
}

// TotalDegreePartition is TotalDegreePartitionWorkersCSRCtx on one
// worker and a fresh CSR view of g, without a context.
func TotalDegreePartition(g *graph.Graph) *partition.Partition {
	p, _ := TotalDegreePartitionWorkersCSRCtx(context.Background(), graph.NewCSR(g), 1)
	return p
}

// EquitableWorkersCSRCtx refines the initial partition of c's vertices
// until it is equitable: any two vertices in the same cell have, for
// every cell C, the same number of neighbors in C. The result is the
// coarsest equitable partition finer than initial. Refinement polls the
// context with amortized cost and returns its error (and a nil
// partition) if it fires before the fixpoint is reached. Workers are
// resolved as in TotalDegreePartitionWorkersCSRCtx.
func EquitableWorkersCSRCtx(ctx context.Context, c *graph.CSR, initial *partition.Partition, workers int) (*partition.Partition, error) {
	n := c.N()
	if initial.N() != n {
		panic("refine: partition size does not match graph")
	}
	w := parallel.Resolve(workers, n)
	if w < 2 || n < parallelRefineMinN {
		return equitable(ctx, c, initial)
	}
	r := &roundRefiner{csr: c, workers: w}
	p, ok, err := r.run(ctx, initial)
	if err != nil {
		return nil, err
	}
	if !ok {
		// A signature collision merged two distinct profiles. The
		// sequential kernel is exact; the answer stays deterministic
		// because the fallback condition itself is deterministic.
		obsParFallbacks.Inc()
		return equitable(ctx, c, initial)
	}
	return p, nil
}

// equitable is the sequential worklist kernel behind
// EquitableWorkersCSRCtx.
func equitable(ctx context.Context, c *graph.CSR, initial *partition.Partition) (*partition.Partition, error) {
	r := NewRefiner(c)
	r.Reset(initial)
	if err := r.RunCtx(ctx); err != nil {
		return nil, err
	}
	return r.Partition(), nil
}

// IsEquitable reports whether p is equitable with respect to g.
func IsEquitable(g *graph.Graph, p *partition.Partition) bool {
	for _, cell := range p.Cells() {
		if len(cell) == 1 {
			continue
		}
		ref := cellProfile(g, p, cell[0])
		for _, v := range cell[1:] {
			if cellProfile(g, p, v) != ref {
				return false
			}
		}
	}
	return true
}

func cellProfile(g *graph.Graph, p *partition.Partition, v int) string {
	counts := make([]int, p.NumCells())
	for _, w := range g.Neighbors(v) {
		counts[p.CellIndexOf(w)]++
	}
	return intkey.Of(counts)
}
