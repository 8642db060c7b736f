// Package sampling implements the backbone-based sampling strategies of
// §4.2: the analyst receives the published k-symmetric graph G' with its
// partition 𝒱' and |V(G)|, and extracts approximate versions of the
// original network from it. Exact sampling (Algorithm 3) regrows the
// detected backbone by weighted orbit copying; approximate sampling
// (Algorithms 4 and 5) selects vertices by a quota-guided depth-first
// traversal of G' in linear time.
package sampling

import (
	"context"
	"fmt"
	"math/rand"
	"sort"

	"ksymmetry/internal/graph"
	"ksymmetry/internal/ksym"
	"ksymmetry/internal/partition"
)

// ctxCheckWork is the amortized cancellation-poll interval shared by the
// samplers' loops (budget distribution, regrow copies, DFS steps).
const ctxCheckWork = 4096

// Sampler selects which algorithm a Batch runs per sample.
type Sampler int

const (
	// SamplerApproximate is the quota-guided DFS sampler
	// (Algorithms 4 and 5), the default.
	SamplerApproximate Sampler = iota
	// SamplerExact is the backbone-regrow sampler (Algorithm 3).
	SamplerExact
)

// Options configures a Batch.
type Options struct {
	// Probabilities is p[1..|𝒱'|]: the chance of assigning the next
	// vertex budget to each cell. nil selects the paper's default,
	// inverse-degree weights (§4.2.2): real networks are right-skewed,
	// so low-degree cells receive proportionally more of the budget.
	Probabilities []float64
	// Seed is the base seed: sample i draws from an RNG seeded with
	// DeriveSeed(Seed, i), so the batch's output is byte-identical at
	// every worker count.
	Seed int64
	// Parallelism bounds the worker pool; 0 selects GOMAXPROCS.
	Parallelism int
	// Method selects the algorithm run per sample (SamplerApproximate
	// by default).
	Method Sampler
}

// InverseDegreeProbabilities returns the §4.2.2 default weights
// p[i] = d_i⁻¹ / Σ d_j⁻¹, where d_i is the degree of cell i's vertices
// (cells of a sub-automorphism partition are degree-uniform). Isolated
// vertices are weighted as degree 1.
func InverseDegreeProbabilities(g *graph.Graph, p *partition.Partition) []float64 {
	ws := make([]float64, p.NumCells())
	total := 0.0
	for i := 0; i < p.NumCells(); i++ {
		d := g.Degree(p.Cell(i)[0])
		if d < 1 {
			d = 1
		}
		ws[i] = 1 / float64(d)
		total += ws[i]
	}
	for i := range ws {
		ws[i] /= total
	}
	return ws
}

// UniformProbabilities returns equal weights for every cell — the
// ablation alternative to the inverse-degree default.
func UniformProbabilities(p *partition.Partition) []float64 {
	ws := make([]float64, p.NumCells())
	for i := range ws {
		ws[i] = 1 / float64(p.NumCells())
	}
	return ws
}

// resolveProbs returns the per-cell budget weights — the caller's, or
// the inverse-degree default — validated against the partition.
func (o *Options) resolveProbs(g *graph.Graph, p *partition.Partition) ([]float64, error) {
	if p.NumCells() == 0 {
		return nil, fmt.Errorf("sampling: partition has no cells")
	}
	probs := o.Probabilities
	if probs == nil {
		probs = InverseDegreeProbabilities(g, p)
	}
	if len(probs) != p.NumCells() {
		return nil, fmt.Errorf("sampling: %d probabilities for %d cells", len(probs), p.NumCells())
	}
	return probs, nil
}

// pickerMaxRejects bounds how many ineligible draws a weightedPicker
// tolerates before rebuilding its cumulative table over the current
// eligible set. Rejection keeps a draw O(log cells) while the eligible
// set shrinks slowly; the rebuild caps the tail when most retained
// weight has become ineligible.
const pickerMaxRejects = 16

// weightedPicker draws cell indices with probability proportional to
// fixed weights among a shrinking eligible subset. It replaces the
// former per-draw O(cells) linear scan: the cumulative-weight table is
// built once (and rebuilt only after pickerMaxRejects consecutive
// ineligible draws), so a draw is a binary search plus expected O(1)
// rejections — O(n·log cells) over a whole sample instead of
// O(n·cells).
type weightedPicker struct {
	probs    []float64
	eligible func(i int) bool
	cells    []int     // eligible cell ids at the last rebuild
	cum      []float64 // cum[j] = Σ probs[cells[0..j]]

	// Local observability tallies, flushed once per budget loop.
	rejects  int64
	rebuilds int64
}

// flushObs publishes the picker's tallies to the obs "sampling" scope.
func (wp *weightedPicker) flushObs() {
	obsRejections.Add(wp.rejects)
	obsRebuilds.Add(wp.rebuilds)
	wp.rejects, wp.rebuilds = 0, 0
}

func newWeightedPicker(probs []float64, eligible func(i int) bool) *weightedPicker {
	wp := &weightedPicker{
		probs:    probs,
		eligible: eligible,
		cells:    make([]int, 0, len(probs)),
		cum:      make([]float64, 0, len(probs)),
	}
	wp.rebuild()
	return wp
}

func (wp *weightedPicker) rebuild() {
	wp.cells = wp.cells[:0]
	wp.cum = wp.cum[:0]
	total := 0.0
	for i, w := range wp.probs {
		// Zero-weight cells are excluded from the table entirely, not
		// just assigned zero mass: a draw of exactly rng.Float64() == 0
		// would land SearchFloat64s on a leading zero-mass entry and
		// return a cell the proportional-to-weight contract says can
		// never be drawn. Skipping them leaves every kept cell's
		// cumulative value unchanged, so draw sequences are identical
		// except in that pathological case.
		if w > 0 && wp.eligible(i) {
			total += w
			wp.cells = append(wp.cells, i)
			wp.cum = append(wp.cum, total)
		}
	}
}

func (wp *weightedPicker) total() float64 {
	if len(wp.cum) == 0 {
		return 0
	}
	return wp.cum[len(wp.cum)-1]
}

// pick draws an eligible cell with probability proportional to its
// weight, or -1 when no eligible cell carries positive weight (the
// same exhaustion condition as the linear scan it replaces).
func (wp *weightedPicker) pick(rng *rand.Rand) int {
	for rebuilt := false; ; rebuilt = true {
		if total := wp.total(); total > 0 {
			for try := 0; try < pickerMaxRejects; try++ {
				x := rng.Float64() * total
				j := sort.SearchFloat64s(wp.cum, x)
				if j >= len(wp.cum) {
					j = len(wp.cum) - 1
				}
				if i := wp.cells[j]; wp.eligible(i) {
					return i
				}
				wp.rejects++
			}
		}
		if rebuilt {
			return -1
		}
		wp.rebuilds++
		wp.rebuild()
		if wp.total() <= 0 {
			return -1
		}
	}
}

// exact implements Algorithm 3: detect the backbone of (G',𝒱'), then
// distribute the n - |V(B)| remaining vertex budget over backbone cells
// with probability probs[i] (the cell weights resolveProbs returns),
// subject to never exceeding the published cell sizes, and regrow by
// orbit copying. rng drives every random choice. The output has at
// least n vertices and overshoots by at most the size of the
// last-copied cell. Backbone detection, budget distribution, and the
// regrow loop all poll the context with amortized cost and return its
// error as soon as it fires.
func exact(ctx context.Context, gp *graph.Graph, vp *partition.Partition, n int, probs []float64, rng *rand.Rand) (*graph.Graph, error) {
	if n < 1 || n > gp.N() {
		return nil, fmt.Errorf("sampling: target size %d outside [1,%d]", n, gp.N())
	}
	// One worker: the samples of a Batch already occupy the pool.
	bb, err := ksym.BackboneWorkersCtx(ctx, gp, vp, 1)
	if err != nil {
		return nil, err
	}
	// Map backbone cells onto 𝒱' cells to reuse the given probabilities
	// and enforce the size constraint.
	cellOfB := make([]int, bb.Partition.NumCells())
	bprobs := make([]float64, bb.Partition.NumCells())
	for i := 0; i < bb.Partition.NumCells(); i++ {
		orig := vp.CellIndexOf(bb.OrigOf[bb.Partition.Cell(i)[0]])
		cellOfB[i] = orig
		bprobs[i] = probs[orig]
	}
	cpn := make([]int, bb.Partition.NumCells())
	budget := n - bb.Graph.N()
	picker := newWeightedPicker(bprobs, func(i int) bool {
		bi := len(bb.Partition.Cell(i))
		return (cpn[i]+2)*bi <= len(vp.Cell(cellOfB[i]))
	})
	draws := 0
	for budget > 0 {
		// Each draw is a binary search (plus occasional table rebuilds);
		// poll amortized so a pathological many-cell release stays
		// cancellable.
		draws++
		if draws%ctxCheckWork == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		i := picker.pick(rng)
		if i < 0 {
			break // no cell can grow further within the published sizes
		}
		cpn[i]++
		budget -= len(bb.Partition.Cell(i))
	}
	picker.flushObs()
	// Regrow: repeat Ocp(B, ℬ, B_i) cpn[i] times (each operation copies
	// the original backbone cell, as in Algorithm 1).
	h := bb.Graph.Clone()
	cellOf := make([]int, h.N())
	for v := 0; v < h.N(); v++ {
		cellOf[v] = bb.Partition.CellIndexOf(v)
	}
	copied := 0
	for i := 0; i < bb.Partition.NumCells(); i++ {
		for c := 0; c < cpn[i]; c++ {
			copied += len(bb.Partition.Cell(i))
			if copied >= ctxCheckWork {
				copied = 0
				if err := ctx.Err(); err != nil {
					return nil, err
				}
			}
			ksym.CopyCellInPlace(h, &cellOf, i, bb.Partition.Cell(i))
		}
	}
	obsSamples.Inc()
	return h, nil
}

// approximate implements Algorithms 4 and 5: distribute per-cell vertex
// quotas S[i] (each cell contributes at least one vertex, the rest drawn
// with probability probs[i]), then select vertices by a depth-first
// traversal of G' from a random root, honoring the quotas, and return
// the subgraph induced by the selected vertices. The traversal only
// descends through selected vertices, so the sample is connected when
// G' is well-covered; if the walk blocks before reaching n vertices, it
// restarts from an unvisited vertex (a documented extension — the paper
// leaves this case unspecified). rng drives every random choice.
//
// The DFS is a pure neighbor walk, so it runs on a frozen CSR view of
// G'; Batch freezes the view once and shares it across every sample,
// since the view is only read. The visit order is identical to the
// adjacency-slice walk (CSR rows preserve neighbor order), so outputs
// are byte-identical. The quota distribution and the DFS poll the
// context every ~4096 steps and return its error as soon as it fires.
func approximate(ctx context.Context, gp *graph.CSR, vp *partition.Partition, n int, probs []float64, rng *rand.Rand) (*graph.Graph, error) {
	if n < vp.NumCells() || n > gp.N() {
		return nil, fmt.Errorf("sampling: target size %d outside [%d,%d]", n, vp.NumCells(), gp.N())
	}
	// Algorithm 4, lines 1-6: quotas.
	s := make([]int, vp.NumCells())
	for i := range s {
		s[i] = 1
	}
	budget := n - vp.NumCells()
	picker := newWeightedPicker(probs, func(i int) bool { return s[i] < len(vp.Cell(i)) })
	draws := 0
	for budget > 0 {
		draws++
		if draws%ctxCheckWork == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		i := picker.pick(rng)
		if i < 0 {
			break
		}
		s[i]++
		budget--
	}
	picker.flushObs()
	// Algorithm 4, lines 7-12 and Algorithm 5: quota-guided DFS. The
	// walk keeps its own frame stack (vertex + neighbor cursor) instead
	// of recursing, so path-like graphs cannot overflow the goroutine
	// stack; the visit order is exactly the recursive one — descend into
	// a selected neighbor immediately, resume the parent's neighbor scan
	// afterwards.
	visited := make([]bool, gp.N())
	selected := make([]bool, gp.N())
	remaining := n
	steps := 0
	type frame struct{ v, i int }
	var stack []frame
	dfs := func(root int) error {
		stack = append(stack[:0], frame{v: root})
		for len(stack) > 0 {
			if remaining < 1 {
				return nil
			}
			steps++
			if steps%ctxCheckWork == 0 {
				if err := ctx.Err(); err != nil {
					return err
				}
			}
			f := &stack[len(stack)-1]
			nbrs := gp.Neighbors(f.v)
			if f.i == len(nbrs) {
				stack = stack[:len(stack)-1]
				continue
			}
			u := int(nbrs[f.i])
			f.i++
			if visited[u] {
				continue
			}
			visited[u] = true
			if t := vp.CellIndexOf(u); s[t] > 0 {
				selected[u] = true
				s[t]--
				remaining--
				stack = append(stack, frame{v: u})
			}
		}
		return nil
	}
	start := func(r int) error {
		visited[r] = true
		if t := vp.CellIndexOf(r); s[t] > 0 {
			selected[r] = true
			s[t]--
			remaining--
			return dfs(r)
		}
		return nil
	}
	if err := start(rng.Intn(gp.N())); err != nil {
		return nil, err
	}
	// Restart from unvisited vertices in cells with open quota until the
	// target is met or nothing remains.
	restarts := int64(0)
	for remaining > 0 {
		r := -1
		for v := 0; v < gp.N(); v++ {
			steps++
			if steps%ctxCheckWork == 0 {
				if err := ctx.Err(); err != nil {
					return nil, err
				}
			}
			if !visited[v] && s[vp.CellIndexOf(v)] > 0 {
				r = v
				break
			}
		}
		if r < 0 {
			break
		}
		restarts++
		if err := start(r); err != nil {
			return nil, err
		}
	}
	obsDFSSteps.Add(int64(steps))
	obsRestarts.Add(restarts)
	var keep []int
	for v := 0; v < gp.N(); v++ {
		if selected[v] {
			keep = append(keep, v)
		}
	}
	sub, _ := gp.InducedSubgraph(keep)
	obsSamples.Inc()
	return sub, nil
}
