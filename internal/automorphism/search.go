package automorphism

import (
	"context"
	"errors"
	"fmt"
	"sort"

	"ksymmetry/internal/graph"
	"ksymmetry/internal/intkey"
	"ksymmetry/internal/parallel"
	"ksymmetry/internal/partition"
	"ksymmetry/internal/refine"
)

// ErrBudgetExceeded is returned when the backtracking search gives up
// before producing an exact answer. Callers can fall back to the
// refinement partition (refine.TotalDegreePartitionWorkersCSRCtx), the
// paper's own large-graph fallback (§7).
var ErrBudgetExceeded = errors.New("automorphism: search node budget exceeded")

// errPruned aborts a pairwise search whose pair the committed orbit
// union-find has meanwhile proven equivalent (see parallel.go). It never
// escapes the package: the classifier's commit step converts it into
// "matched, no new generator".
var errPruned = errors.New("automorphism: search pruned by shared orbit")

// Options tunes the search.
type Options struct {
	// NodeBudget caps the number of backtracking nodes explored per
	// pairwise search. 0 means DefaultNodeBudget.
	NodeBudget int64
	// DisableOrbitPruning turns off merging of discovered generators'
	// orbits (every pair is searched independently). Only useful for
	// the ablation benchmark; the result is unchanged, just slower.
	DisableOrbitPruning bool
	// Workers is the number of goroutines executing search work units
	// concurrently. 0 or 1 means sequential. The result — orbit
	// partition AND generator set — is byte-identical at every worker
	// count: work units commit in a fixed (cell, round, candidate)
	// order regardless of which worker finishes first (DESIGN.md §12).
	Workers int
	// BestEffort turns per-pair budget exhaustion into "not proven
	// equivalent" instead of a global ErrBudgetExceeded: vertices whose
	// pairwise search blows its budget stay in separate cells. The
	// result is the orbit partition of the subgroup generated by the
	// automorphisms found within budget — a valid sub-automorphism
	// partition, finer than (or equal to) Orb(G), so anonymizing with
	// it never weakens the k-symmetry guarantee (it can only cost more
	// copies). This is the middle rung of the pipeline's degradation
	// ladder between exact Orb(G) and 𝒯𝒟𝒱(G).
	BestEffort bool
}

func (o *Options) workers() int {
	if o == nil || o.Workers < 2 {
		return 1
	}
	return o.Workers
}

// DefaultNodeBudget is the per-search node cap used when Options is nil
// or zero.
const DefaultNodeBudget = 1 << 22

func (o *Options) budget() int64 {
	if o == nil || o.NodeBudget == 0 {
		return DefaultNodeBudget
	}
	return o.NodeBudget
}

func (o *Options) bestEffort() bool { return o != nil && o.BestEffort }

func (o *Options) orbitPruningDisabled() bool { return o != nil && o.DisableOrbitPruning }

// OrbitPartition is OrbitPartitionCtx without a context.
func OrbitPartition(g *graph.Graph, opts *Options) (*partition.Partition, []Perm, error) {
	return OrbitPartitionCtx(context.Background(), g, opts)
}

// OrbitPartitionCtx computes the automorphism partition Orb(G) exactly,
// along with the automorphism generators discovered on the way. For
// every pair of vertices it either finds an automorphism mapping one to
// the other or proves none exists, so the returned partition is exactly
// Orb(G) unless ErrBudgetExceeded is returned. The backtracking search
// polls ctx.Err() every ~64k scan steps (reusing the node-budget
// counter, so the hot path stays allocation-free) and returns the
// context's error as soon as it fires.
func OrbitPartitionCtx(ctx context.Context, g *graph.Graph, opts *Options) (*partition.Partition, []Perm, error) {
	n := g.N()
	if n == 0 {
		return partition.FromCellOf(nil), nil, nil
	}
	// Refine the unit partition once; the fixpoint doubles as 𝒯𝒟𝒱(G)
	// and as the saved parent state every pairwise search restores
	// instead of re-refining the whole graph (the IR-tree shortcut).
	// One frozen CSR view feeds every worker's Refiner.
	csr := graph.NewCSR(g)
	r := refine.NewRefiner(csr)
	r.ResetColors(make([]int, n))
	if err := r.RunCtx(ctx); err != nil {
		return nil, nil, err
	}
	tdp := r.Partition()
	base := r.Save()
	// Base refinement colors, shared across all pairwise searches: the
	// fast path searches with these; only pairs whose fast search
	// exceeds its small budget pay for per-pair individualized
	// refinement.
	baseColors, err := r.CanonicalColors(ctx, nil)
	if err != nil {
		return nil, nil, err
	}
	uf := newUnionFind(n)
	var gens []Perm
	// Twin pre-pass: two vertices with identical open neighborhoods
	// (N(u) = N(v)) or identical closed neighborhoods (N[u] = N[v]) are
	// swapped by a transposition fixing everything else, which is an
	// automorphism. Degree-1 twins dominate the symmetry of real social
	// networks, so this collapses most pairs before any search runs.
	for _, pair := range twinPairs(g) {
		u, v := pair[0], pair[1]
		if uf.find(u) == uf.find(v) {
			continue
		}
		t := Identity(n)
		t[u], t[v] = v, u
		gens = append(gens, t)
		uf.union(u, v)
	}
	obsTwinPairs.Add(int64(len(gens)))

	c := &classifier{
		g:           g,
		csr:         csr,
		opts:        opts,
		base:        base,
		baseColors:  baseColors,
		baseByColor: colorIndex(baseColors, nil),
		uf:          uf,
		gens:        gens,
	}
	total := 0
	for _, cell := range tdp.Cells() {
		if len(cell) < 2 {
			continue
		}
		rd := &round{root: cell[0]}
		cs := &cellStream{}
		for _, v := range cell[1:] {
			cs.units = append(cs.units, &unit{rd: rd, dst: v})
		}
		cs.units[len(cs.units)-1].last = true
		total += len(cs.units)
		c.cells = append(c.cells, cs)
	}
	if total > 0 {
		c.workers = parallel.Resolve(opts.workers(), total)
		if err := c.run(ctx); err != nil {
			return nil, nil, err
		}
	}
	cellOf := make([]int, n)
	for i := range cellOf {
		cellOf[i] = uf.find(i)
	}
	return partition.FromCellOf(cellOf), c.gens, nil
}

// twinPairs returns pairs (u,v) with identical open neighborhoods
// N(u) = N(v), or identical closed neighborhoods N[u] = N[v]. Each pair
// is emitted against the first vertex seen with that signature, so
// union-closing the pairs groups every twin class.
func twinPairs(g *graph.Graph) [][2]int {
	var pairs [][2]int
	open := map[string]int{}
	closed := map[string]int{}
	for v := 0; v < g.N(); v++ {
		nbrs := g.Neighbors(v)
		key := intkey.Of(nbrs)
		if u, ok := open[key]; ok {
			pairs = append(pairs, [2]int{u, v})
		} else {
			open[key] = v
		}
		cn := make([]int, 0, len(nbrs)+1)
		cn = append(cn, nbrs...)
		cn = append(cn, v)
		sort.Ints(cn)
		ckey := intkey.Of(cn)
		if u, ok := closed[ckey]; ok {
			pairs = append(pairs, [2]int{u, v})
		} else {
			closed[ckey] = v
		}
	}
	return pairs
}

// fastSearchBudget caps the cheap first attempt of each pairwise
// search. Backtracking is exhaustive whatever the pruning colors, so a
// completed fast search (found or not) is authoritative; only a
// budget-exceeded fast search falls through to the refined one.
const fastSearchBudget = 1 << 15

// colorIndex builds the dense vertex-by-color index used for candidate
// enumeration. colors must be dense canonical ranks (0..numCells-1).
// dst, when large enough, is reused.
func colorIndex(colors []int, dst [][]int) [][]int {
	maxColor := -1
	for _, c := range colors {
		if c > maxColor {
			maxColor = c
		}
	}
	if cap(dst) >= maxColor+1 {
		dst = dst[:maxColor+1]
		for i := range dst {
			dst[i] = dst[i][:0]
		}
	} else {
		dst = make([][]int, maxColor+1)
	}
	for v, c := range colors {
		dst[c] = append(dst[c], v)
	}
	return dst
}

// mappingSearch backtracks over color-respecting assignments looking
// for an automorphism mapping src to dst. The struct is reusable: a
// worker owns one and resets ca/cb/byColor/order/budget per pair; f and
// inv are recycled across runs.
type mappingSearch struct {
	ctx    context.Context
	g      *graph.Graph
	ca, cb []int
	budget int64
	nodes  int64
	// work counts candidate-scan steps for the cancellation poll: a
	// single node can scan a whole color class (up to n candidates), so
	// polling by node count alone leaves arbitrarily long gaps. scans
	// accumulates the drained work counter; backtracks counts retracted
	// assignments. Both are plain tallies flushed to obs once per run.
	work       int64
	scans      int64
	backtracks int64
	order      []int
	f, inv     []int
	// byColor indexes the target graph's vertices by cb color (dense
	// canonical ranks). May be shared read-only across searches with
	// the same cb; when nil, run builds it from cb.
	byColor [][]int
	// prune, when non-nil, is polled on the same amortized cadence as
	// the cancellation check; a true return aborts the search with
	// errPruned (the shared orbit union-find has already proven the
	// pair equivalent, so the answer is no longer needed).
	prune func() bool
}

func (s *mappingSearch) run(src, dst int) (Perm, bool, error) {
	if s.ctx == nil {
		s.ctx = context.Background()
	}
	n := s.g.N()
	if len(s.f) != n {
		s.f = make([]int, n)
		s.inv = make([]int, n)
	}
	for i := range s.f {
		s.f[i] = -1
		s.inv[i] = -1
	}
	if s.byColor == nil {
		s.byColor = colorIndex(s.cb, nil)
	}
	if s.order == nil {
		s.order = searchOrder(s.g, s.ca, src)
	}
	s.nodes, s.work, s.scans, s.backtracks = 0, 0, 0, 0
	s.f[src] = dst
	s.inv[dst] = src
	ok, err := s.try(1)
	s.flushObs(err)
	if err != nil {
		return nil, false, err
	}
	if !ok {
		return nil, false, nil
	}
	// f is worker scratch reused by the next pair — copy the witness.
	return append(Perm(nil), s.f...), true, nil
}

// flushObs publishes the search's local tallies (one flush per pairwise
// search, so the backtracking loop never touches an atomic).
func (s *mappingSearch) flushObs(err error) {
	obsNodes.Add(s.nodes)
	obsScans.Add(s.scans + s.work)
	obsBacktracks.Add(s.backtracks)
	if errors.Is(err, ErrBudgetExceeded) {
		obsExhausted.Inc()
	}
}

func (s *mappingSearch) try(k int) (bool, error) {
	if k == len(s.order) {
		return true, nil
	}
	s.nodes++
	if s.nodes > s.budget {
		return false, ErrBudgetExceeded
	}
	u := s.order[k]
	var cands []int
	if c := s.ca[u]; c < len(s.byColor) {
		cands = s.byColor[c]
	}
	// Amortized cancellation + prune poll, scaled by the real per-node
	// cost: each node scans up to one whole color class, so the counter
	// advances by the candidate count (not by 1 per node) and the poll
	// fires every ~64k scan steps — microsecond-scale latency at one
	// Err() call (plus one atomic epoch load) per thousands of nodes.
	s.work += int64(len(cands)) + 1
	if s.work >= 1<<16 {
		s.scans += s.work
		s.work = 0
		if err := s.ctx.Err(); err != nil {
			return false, err
		}
		if s.prune != nil && s.prune() {
			return false, errPruned
		}
	}
	for _, v := range cands {
		if s.inv[v] != -1 || !s.consistent(u, v) {
			continue
		}
		s.f[u] = v
		s.inv[v] = u
		ok, err := s.try(k + 1)
		if err != nil {
			return false, err
		}
		if ok {
			return true, nil
		}
		s.f[u] = -1
		s.inv[v] = -1
		s.backtracks++
	}
	return false, nil
}

func (s *mappingSearch) consistent(u, v int) bool {
	mapped := 0
	for _, w := range s.g.Neighbors(u) {
		if fw := s.f[w]; fw != -1 {
			if !s.g.HasEdge(v, fw) {
				return false
			}
			mapped++
		}
	}
	cnt := 0
	for _, w := range s.g.Neighbors(v) {
		if s.inv[w] != -1 {
			cnt++
		}
	}
	return cnt == mapped
}

// searchOrder returns a vertex order starting at src that keeps the
// mapped frontier connected (BFS over a min-heap keyed by color rarity,
// then index), so that adjacency constraints bind as early as possible.
func searchOrder(g *graph.Graph, colors []int, src int) []int {
	n := g.N()
	maxColor := 0
	for _, c := range colors {
		if c > maxColor {
			maxColor = c
		}
	}
	count := make([]int, maxColor+1)
	for _, c := range colors {
		count[c]++
	}
	// Heap key: count[color]*n + vertex index (unique, strictly ordered).
	key := func(v int) int64 { return int64(count[colors[v]])*int64(n) + int64(v) }
	h := &intHeap{}
	seen := make([]bool, n)
	push := func(v int) {
		if !seen[v] {
			seen[v] = true
			h.push(key(v))
		}
	}
	order := make([]int, 0, n)
	push(src)
	next := 0 // scan cursor for disconnected components
	for len(order) < n {
		if h.len() == 0 {
			for seen[next] {
				next++
			}
			push(next)
		}
		v := int(h.pop() % int64(n))
		order = append(order, v)
		for _, w := range g.Neighbors(v) {
			push(w)
		}
	}
	return order
}

// intHeap is a minimal binary min-heap of int64 keys.
type intHeap struct{ a []int64 }

func (h *intHeap) len() int { return len(h.a) }

func (h *intHeap) push(x int64) {
	h.a = append(h.a, x)
	i := len(h.a) - 1
	for i > 0 {
		p := (i - 1) / 2
		if h.a[p] <= h.a[i] {
			break
		}
		h.a[p], h.a[i] = h.a[i], h.a[p]
		i = p
	}
}

func (h *intHeap) pop() int64 {
	top := h.a[0]
	last := len(h.a) - 1
	h.a[0] = h.a[last]
	h.a = h.a[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < len(h.a) && h.a[l] < h.a[smallest] {
			smallest = l
		}
		if r < len(h.a) && h.a[r] < h.a[smallest] {
			smallest = r
		}
		if smallest == i {
			break
		}
		h.a[i], h.a[smallest] = h.a[smallest], h.a[i]
		i = smallest
	}
	return top
}

// canonicalRefine refines the given initial colors (which must be
// canonical by content) to the equitable fixpoint and returns stable
// colors whose ids are canonical by content, hence comparable across two
// refinements of the same graph with different individualizations. It is
// a convenience wrapper over the worklist Refiner for callers without a
// reusable one.
func canonicalRefine(g *graph.Graph, init []int) []int {
	r := refine.NewRefiner(graph.NewCSR(g))
	r.ResetColors(init)
	r.Run()
	colors, _ := r.CanonicalColors(context.Background(), nil) // never cancelled
	return colors
}

func sameHistogram(a, b []int) bool {
	h := map[int]int{}
	for _, c := range a {
		h[c]++
	}
	for _, c := range b {
		h[c]--
	}
	for _, n := range h {
		if n != 0 {
			return false
		}
	}
	return true
}

// EnumerateAll exhaustively enumerates every automorphism of g (including
// the identity). It returns an error if more than max automorphisms
// exist or the node budget is exhausted; intended for small graphs and
// for cross-checking the pairwise search.
func EnumerateAll(g *graph.Graph, max int) ([]Perm, error) {
	n := g.N()
	if n == 0 {
		return []Perm{{}}, nil
	}
	colors := canonicalRefine(g, make([]int, n))
	byColor := colorIndex(colors, nil)
	order := searchOrder(g, colors, 0)
	f := make([]int, n)
	inv := make([]int, n)
	for i := range f {
		f[i] = -1
		inv[i] = -1
	}
	var out []Perm
	var nodes int64
	s := &mappingSearch{g: g, ca: colors, cb: colors, f: f, inv: inv}
	var rec func(k int) error
	rec = func(k int) error {
		if k == n {
			out = append(out, append(Perm(nil), f...))
			if len(out) > max {
				return fmt.Errorf("automorphism: more than %d automorphisms", max)
			}
			return nil
		}
		nodes++
		if nodes > DefaultNodeBudget {
			return ErrBudgetExceeded
		}
		u := order[k]
		for _, v := range byColor[colors[u]] {
			if inv[v] != -1 || !s.consistent(u, v) {
				continue
			}
			f[u] = v
			inv[v] = u
			if err := rec(k + 1); err != nil {
				return err
			}
			f[u] = -1
			inv[v] = -1
		}
		return nil
	}
	if err := rec(0); err != nil {
		return nil, err
	}
	return out, nil
}
