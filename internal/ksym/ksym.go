// Package ksym implements the paper's primary contribution: the
// k-symmetry anonymization model (EDBT 2010, §3), its f-symmetry
// generalization with hub exclusion (§5.2), and graph backbones with
// backbone-minimal anonymization (§4.1, §5.1).
//
// The central operation is orbit copying (Definition 3): duplicating a
// cell of a sub-automorphism partition while preserving the cell's
// adjacency pattern to every other cell, so that every vertex becomes
// automorphically equivalent to its copy. Algorithm 1 repeats orbit
// copying until every cell reaches size k, producing a graph in which
// no structural knowledge whatsoever can narrow an adversary's
// candidate set below k (§2.1).
package ksym

import (
	"context"
	"fmt"

	"ksymmetry/internal/graph"
	"ksymmetry/internal/partition"
)

// ctxCheckCopies is the amortized cancellation-poll interval for copy
// loops: ctx.Err() is consulted once per ~4096 copied vertices, so
// cancellation latency stays in the microseconds without a branch-heavy
// hot path.
const ctxCheckCopies = 4096

// canceller amortizes context polling over units of work (copied
// vertices, scanned components). The zero ctx is not allowed; wrap
// context.Background() for never-cancelled callers.
type canceller struct {
	ctx  context.Context
	work int
}

func (c *canceller) tick(cost int) error {
	c.work += cost
	if c.work < ctxCheckCopies {
		return nil
	}
	c.work = 0
	return c.ctx.Err()
}

// Result is the outcome of an anonymization run.
type Result struct {
	// Graph is the anonymized graph G'. For AnonymizeFCtx the original
	// graph is exactly the subgraph induced by vertices 0..OriginalN-1
	// (only vertex/edge insertions are performed); for
	// MinimalAnonymizeFCtx the original embeds up to isomorphism, since
	// the output is rebuilt from the backbone.
	Graph *graph.Graph
	// Partition is the resulting sub-automorphism partition 𝒱' of G':
	// each cell is the union of an input cell with all of its copies.
	Partition *partition.Partition
	// OriginalN and OriginalM are the input graph's vertex and edge
	// counts.
	OriginalN, OriginalM int
	// CopyOps is the total number of orbit copying operations applied.
	CopyOps int
}

// VerticesAdded returns the anonymization cost in new vertices.
func (r *Result) VerticesAdded() int { return r.Graph.N() - r.OriginalN }

// EdgesAdded returns the anonymization cost in new edges.
func (r *Result) EdgesAdded() int { return r.Graph.M() - r.OriginalM }

// Target assigns each cell of the input partition its required minimum
// size — the function f of the f-symmetry model (Definition 5). The
// basic k-symmetry model is the constant function k.
type Target func(cell []int) int

// ConstantTarget returns the k-symmetry target: every orbit must reach
// size k.
func ConstantTarget(k int) Target {
	return func([]int) int { return k }
}

// DegreeThresholdTarget returns the §5.2 hub-exclusion target: cells
// whose vertices have degree above delta are left unprotected (target
// 1); all other cells must reach size k. Cells of a sub-automorphism
// partition have uniform degree, so the cell's first vertex is
// representative.
func DegreeThresholdTarget(g *graph.Graph, k, delta int) Target {
	return func(cell []int) int {
		if g.Degree(cell[0]) > delta {
			return 1
		}
		return k
	}
}

// TopFractionTarget returns a target excluding the ⌈frac·N⌉ vertices of
// highest degree (descending order, ties by index as in the resilience
// experiment): any cell containing an excluded vertex is left
// unprotected; all others must reach size k. This is the sweep
// parameter of Figures 10 and 11.
func TopFractionTarget(g *graph.Graph, k int, frac float64) Target {
	m := int(float64(g.N())*frac + 0.5)
	// Clamp to [0, N]: frac > 1 (or a rounding overshoot) would slice
	// past the degree-ordered vertex list, and frac < 0 would panic.
	if m < 0 {
		m = 0
	}
	if m > g.N() {
		m = g.N()
	}
	excluded := make(map[int]bool, m)
	for _, v := range g.VerticesByDegreeDesc()[:m] {
		excluded[v] = true
	}
	return func(cell []int) int {
		for _, v := range cell {
			if excluded[v] {
				return 1
			}
		}
		return k
	}
}

// OrbitCopy applies a single orbit copying operation Ocp(G, 𝒱, V)
// (Definition 3) to the cell with index cellIdx, returning the new
// graph and the partition in which the copied cell is merged with its
// copy (Lemma 1). The inputs are not modified.
func OrbitCopy(g *graph.Graph, p *partition.Partition, cellIdx int) (*graph.Graph, *partition.Partition) {
	if p.N() != g.N() {
		panic("ksym: partition does not match graph")
	}
	if cellIdx < 0 || cellIdx >= p.NumCells() {
		panic(fmt.Sprintf("ksym: cell index %d out of range [0,%d)", cellIdx, p.NumCells()))
	}
	h := g.Clone()
	cellOf := make([]int, g.N())
	for v := 0; v < g.N(); v++ {
		cellOf[v] = p.CellIndexOf(v)
	}
	copyCell(h, &cellOf, cellIdx, p.Cell(cellIdx))
	return h, partition.FromCellOf(cellOf)
}

// CopyCellInPlace applies one orbit copying operation directly to g:
// the vertex set orig (which must all belong to cell cellID of the
// partition encoded by cellOf) is duplicated per Definition 3, and the
// new vertices are appended to cellOf under the same cell id. It is the
// allocation-free primitive behind OrbitCopy, exposed for callers that
// apply long operation sequences (Algorithm 3's regrow step).
func CopyCellInPlace(g *graph.Graph, cellOf *[]int, cellID int, orig []int) {
	copyCell(g, cellOf, cellID, orig)
}

// copyCell performs one in-place orbit copying operation of the vertex
// set orig (all of whose members must belong to cell cellID). New
// vertices are appended to g and to cellOf with the same cell id.
func copyCell(g *graph.Graph, cellOf *[]int, cellID int, orig []int) {
	obsOrbitCopies.Inc()
	obsVerticesCopied.Add(int64(len(orig)))
	first := g.AddVertices(len(orig))
	copyOf := make(map[int]int, len(orig))
	inOrig := make(map[int]bool, len(orig))
	for i, v := range orig {
		copyOf[v] = first + i
		inOrig[v] = true
		*cellOf = append(*cellOf, cellID)
	}
	for _, v := range orig {
		// Snapshot: adding edges must not interfere with iteration.
		nbrs := append([]int(nil), g.Neighbors(v)...)
		for _, u := range nbrs {
			if inOrig[u] {
				// Rule 2: internal edge (u,v) → edge (u',v').
				g.AddEdge(copyOf[u], copyOf[v])
			} else {
				// Rule 1: external edge (u,v), u in another cell →
				// edge (u,v').
				g.AddEdge(u, copyOf[v])
			}
		}
	}
}

// Anonymize is AnonymizeFCtx with ConstantTarget(k) and no context:
// Algorithm 1 itself. k must be at least 1.
func Anonymize(g *graph.Graph, orb *partition.Partition, k int) (*Result, error) {
	if k < 1 {
		return nil, fmt.Errorf("ksym: k must be ≥ 1, got %d", k)
	}
	return AnonymizeFCtx(context.Background(), g, orb, ConstantTarget(k))
}

// AnonymizeFCtx implements Algorithm 1 in its f-symmetry generalization
// (Definition 5): repeatedly orbit-copy every cell of the given
// sub-automorphism partition (normally Orb(G)) until each cell,
// together with its copies, reaches the size its target gives. With
// ConstantTarget(k) it is exactly Algorithm 1, and the returned graph
// is k-symmetric (Theorem 2). The copy loop polls ctx.Err() every
// ~4096 copied vertices and returns the context's error as soon as it
// fires.
func AnonymizeFCtx(ctx context.Context, g *graph.Graph, orb *partition.Partition, target Target) (*Result, error) {
	if err := orb.Validate(g.N()); err != nil {
		return nil, fmt.Errorf("ksym: invalid partition: %w", err)
	}
	h := g.Clone()
	cellOf := make([]int, g.N())
	for v := 0; v < g.N(); v++ {
		cellOf[v] = orb.CellIndexOf(v)
	}
	res := &Result{OriginalN: g.N(), OriginalM: g.M()}
	tick := canceller{ctx: ctx}
	for i := 0; i < orb.NumCells(); i++ {
		orig := orb.Cell(i)
		want := target(orig)
		if want < 1 {
			return nil, fmt.Errorf("ksym: target for cell %d is %d, must be ≥ 1", i, want)
		}
		// Each operation copies the original cell (Lemma 2): after N
		// operations the union cell has (N+1)·|orig| vertices.
		for size := len(orig); size < want; size += len(orig) {
			if err := tick.tick(len(orig)); err != nil {
				return nil, err
			}
			copyCell(h, &cellOf, i, orig)
			res.CopyOps++
		}
	}
	res.Graph = h
	res.Partition = partition.FromCellOf(cellOf)
	return res, nil
}

// IsKSymmetric reports whether a graph whose automorphism partition is
// orb satisfies k-symmetry anonymity (Definition 1): every orbit has at
// least k vertices.
func IsKSymmetric(orb *partition.Partition, k int) bool {
	return orb.NumCells() > 0 && orb.MinCellSize() >= k
}
