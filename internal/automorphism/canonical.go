package automorphism

import (
	"context"
	"fmt"
	"slices"
	"sort"

	"ksymmetry/internal/graph"
	"ksymmetry/internal/refine"
)

// Canonical labeling: CanonicalFormCtx relabels a graph into a canonical
// representative of its isomorphism class, so two graphs are isomorphic
// iff their certificates are equal. The search individualizes vertices
// of an invariantly-chosen refinement cell, recurses, and keeps the
// lexicographically smallest adjacency encoding over all leaves —
// the same individualization-refinement family nauty uses, without its
// automorphism-based subtree cuts (a twin cut covers the common cases;
// MaxLeaves bounds the rest).

// DefaultMaxLeaves caps the canonical search's leaf count.
const DefaultMaxLeaves = 1 << 14

// ErrCanonicalBudget is returned when the leaf budget is exhausted.
var ErrCanonicalBudget = fmt.Errorf("automorphism: canonical-form leaf budget exceeded")

// CanonicalFormCtx returns a relabeling perm (old id → canonical id)
// and the certificate of g's isomorphism class. maxLeaves ≤ 0 selects
// DefaultMaxLeaves. The search polls ctx.Err() once per tree node and
// on an amortized cadence inside the node's quadratic scans (the
// quotient refinement of CanonicalColors, the twin filter of
// branchCandidates), and returns the context's error as soon as it
// fires.
func CanonicalFormCtx(ctx context.Context, g *graph.Graph, maxLeaves int) (Perm, string, error) {
	if maxLeaves <= 0 {
		maxLeaves = DefaultMaxLeaves
	}
	n := g.N()
	if n == 0 {
		return Perm{}, "0|0|", nil
	}
	c := &canonSearch{ctx: ctx, g: g, ref: refine.NewRefiner(graph.NewCSR(g)), budget: maxLeaves}
	if err := c.rec(make([]int, n)); err != nil {
		return nil, "", err
	}
	return c.bestPerm, fmt.Sprintf("%d|%d|%s", n, g.M(), c.bestKey), nil
}

type canonSearch struct {
	ctx      context.Context
	g        *graph.Graph
	ref      *refine.Refiner // reused across the whole tree
	budget   int
	leaves   int
	bestKey  string
	bestPerm Perm
}

// refineStep refines init to its equitable fixpoint and returns the
// canonical colors, the invariant branch target (-1 when the coloring
// is discrete), and the maximum color.
func (c *canonSearch) refineStep(init []int) ([]int, int, int, error) {
	if err := c.ctx.Err(); err != nil {
		return nil, 0, 0, err
	}
	c.ref.ResetColors(init)
	if err := c.ref.RunCtx(c.ctx); err != nil {
		return nil, 0, 0, err
	}
	colors, err := c.ref.CanonicalColors(c.ctx, nil)
	if err != nil {
		return nil, 0, 0, err
	}
	// Count color multiplicities; find the smallest color with
	// multiplicity ≥ 2 (an invariant choice, since refinement ids are
	// canonical by content).
	maxColor := 0
	for _, col := range colors {
		if col > maxColor {
			maxColor = col
		}
	}
	count := make([]int, maxColor+1)
	for _, col := range colors {
		count[col]++
	}
	target := -1
	for col := 0; col <= maxColor; col++ {
		if count[col] >= 2 {
			target = col
			break
		}
	}
	return colors, target, maxColor, nil
}

// leaf scores one discrete labeling against the best so far.
func (c *canonSearch) leaf(colors []int) error {
	c.leaves++
	if c.leaves > c.budget {
		return ErrCanonicalBudget
	}
	perm := rankPerm(colors)
	key := labeledAdjacencyKey(c.g, perm)
	if c.bestKey == "" || key < c.bestKey {
		c.bestKey = key
		c.bestPerm = perm
	}
	return nil
}

// branchCandidates lists the target cell's members, skipping twins of
// already-listed ones (mapping twin → twin yields the same leaf set).
// Returns nil when target is -1. The twin scan is quadratic in the cell
// size (about 500k checks at the root of Cycle(1000)), so it polls ctx
// on the amortized cadence of mappingSearch.try: the counter advances by
// the checks a member costs, scaled by its row length.
func branchCandidates(ctx context.Context, g *graph.Graph, colors []int, target int) ([]int, error) {
	if target == -1 {
		return nil, nil
	}
	var branched []int
	work := 0
	for v := 0; v < g.N(); v++ {
		if colors[v] != target {
			continue
		}
		work += (len(branched) + 1) * (g.Degree(v) + 1)
		if work >= 1<<16 {
			work = 0
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		twin := false
		for _, u := range branched {
			if sameNeighborhood(g, u, v) {
				twin = true
				break
			}
		}
		if !twin {
			branched = append(branched, v)
		}
	}
	return branched, nil
}

func (c *canonSearch) rec(init []int) error {
	colors, target, maxColor, err := c.refineStep(init)
	if err != nil {
		return err
	}
	if target == -1 {
		return c.leaf(colors)
	}
	branches, err := branchCandidates(c.ctx, c.g, colors, target)
	if err != nil {
		return err
	}
	for _, v := range branches {
		next := append([]int(nil), colors...)
		next[v] = maxColor + 1
		if err := c.rec(next); err != nil {
			return err
		}
	}
	return nil
}

// sameNeighborhood reports open or closed neighborhood equality — the
// twin relation, under which swapping u and v is an automorphism. Both
// checks walk the sorted rows in place, without allocating.
func sameNeighborhood(g *graph.Graph, u, v int) bool {
	nu, nv := g.Neighbors(u), g.Neighbors(v)
	if len(nu) != len(nv) {
		return false
	}
	if slices.Equal(nu, nv) {
		return true
	}
	// Closed: N(u) ∪ {u} == N(v) ∪ {v}. Merge u into nu and v into nv on
	// the fly (neither row contains its own vertex) and compare the two
	// sorted sequences element by element.
	i, j := 0, 0
	uIn, vIn := false, false
	for k := 0; k <= len(nu); k++ {
		a, b := 0, 0
		if !uIn && (i == len(nu) || u < nu[i]) {
			a, uIn = u, true
		} else {
			a, i = nu[i], i+1
		}
		if !vIn && (j == len(nv) || v < nv[j]) {
			b, vIn = v, true
		} else {
			b, j = nv[j], j+1
		}
		if a != b {
			return false
		}
	}
	return true
}

// rankPerm converts a discrete coloring into the permutation sending
// each vertex to its color rank.
func rankPerm(colors []int) Perm {
	idx := make([]int, len(colors))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return colors[idx[a]] < colors[idx[b]] })
	perm := make(Perm, len(colors))
	for rank, v := range idx {
		perm[v] = rank
	}
	return perm
}

// labeledAdjacencyKey serializes the upper-triangular adjacency matrix
// of g relabeled by perm.
func labeledAdjacencyKey(g *graph.Graph, perm Perm) string {
	n := g.N()
	bits := make([]byte, n*(n-1)/2)
	for i := range bits {
		bits[i] = '0'
	}
	pos := func(i, j int) int {
		if i > j {
			i, j = j, i
		}
		// Index of (i,j), i<j, in row-major upper triangle.
		return i*(2*n-i-1)/2 + (j - i - 1)
	}
	for _, e := range g.Edges() {
		bits[pos(perm[e[0]], perm[e[1]])] = '1'
	}
	return string(bits)
}
