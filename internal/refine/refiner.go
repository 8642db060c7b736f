package refine

import (
	"context"
	"sort"

	"ksymmetry/internal/graph"
	"ksymmetry/internal/partition"
)

// Refiner is a reusable worklist-based equitable-refinement kernel (the
// McKay-style engine behind Equitable and the individualization-
// refinement search). The partition is held as contiguous cell arrays
// that are split in place; only cells adjacent to a *changed* splitter
// cell are re-examined, and splitting buckets vertices with an integer
// counting sort — no per-round signature maps, no string keys.
//
// A Refiner is bound to one graph and is not safe for concurrent use;
// use one Refiner per goroutine (they are cheap to keep in a sync.Pool).
//
// The incremental workflow of the IR search is:
//
//	r := NewRefiner(graph.NewCSR(g))
//	r.ResetColors(initialColors)
//	r.Run()                       // refine to the coarsest fixpoint
//	base := r.Save()              // stable parent state, O(n) to restore
//	...
//	r.Restore(base)
//	r.Individualize(v)            // split {v} out and enqueue only it
//	r.Run()                       // re-refines only what v's split disturbs
//	colors, err := r.CanonicalColors(ctx, nil)
type Refiner struct {
	// The graph is consumed through its frozen CSR view: the splitter
	// scans and the quotient-profile pass of CanonicalColors are pure
	// neighbor sweeps, and the flat off/adj arrays keep them on two
	// contiguous allocations instead of chasing N slice headers.
	off, adj []int32
	n        int

	// Partition state: vtx holds the vertices grouped by cell; cell c
	// owns vtx[cellStart[c]:cellEnd[c]]; pos[v] is v's index in vtx.
	vtx, pos, cellOf   []int
	cellStart, cellEnd []int
	// seed[c] is the initial-color provenance of cell c (inherited by
	// fragments), the round-0 key of CanonicalColors.
	seed     []int
	numCells int
	nIndiv   int // individualizations since the last Reset*/Restore

	queue   []int
	qhead   int
	inQueue []bool

	cnt       []int // scratch: per-vertex neighbor count into the splitter
	touched   []int // vertices with cnt > 0
	tCells    []int // cells containing a touched vertex
	tCellMark []bool
	tf        []int // touched frontier: touched members of cell c sit in vtx[cellStart[c]:tf[c]]

	spl    []int // snapshot of the splitter cell
	aux    []int // counting-sort output buffer (parallel to vtx)
	bucket []int // counting-sort buckets indexed by count value
	frag   []fragEntry

	// Local observability tallies, flushed to the obs "refine" scope
	// once per RunCtx (so the drain loop stays atomic-free).
	statSplitters int64
	statSplits    int64
}

type fragEntry struct{ id, start, end int }

// State is a saved fixpoint of a Refiner, restorable in O(n). A State
// may be restored into any Refiner bound to the same graph (it is pure
// partition data), which is what lets a pool of Refiners share one
// saved parent state.
type State struct {
	vtx, pos, cellOf   []int
	cellStart, cellEnd []int
	seed               []int
	numCells           int
}

// NewRefiner returns a Refiner running on a frozen CSR view, with no
// partition loaded; call one of the Reset methods before Run. The view
// is only read, so any number of Refiners may share it (the IR search
// pool does).
func NewRefiner(c *graph.CSR) *Refiner {
	n := c.N()
	off, adj := c.Rows()
	return &Refiner{
		off:       off,
		adj:       adj,
		n:         n,
		vtx:       make([]int, n),
		pos:       make([]int, n),
		cellOf:    make([]int, n),
		cellStart: make([]int, n),
		cellEnd:   make([]int, n),
		seed:      make([]int, n),
		inQueue:   make([]bool, n),
		cnt:       make([]int, n),
		tCellMark: make([]bool, n),
		tf:        make([]int, n),
		aux:       make([]int, n),
		bucket:    make([]int, c.MaxDegree()+1),
	}
}

// ResetColors loads the partition induced by the given per-vertex color
// values (vertices with equal colors share a cell) and enqueues every
// cell. Color values seed CanonicalColors, so two Refiner runs with
// content-identical color vectors yield comparable canonical colors.
func (r *Refiner) ResetColors(colors []int) {
	if len(colors) != r.n {
		panic("refine: color vector size does not match graph")
	}
	r.clearQueue()
	r.nIndiv = 0
	for i := range r.vtx {
		r.vtx[i] = i
	}
	sort.Slice(r.vtx, func(a, b int) bool {
		ca, cb := colors[r.vtx[a]], colors[r.vtx[b]]
		if ca != cb {
			return ca < cb
		}
		return r.vtx[a] < r.vtx[b]
	})
	r.numCells = 0
	for i := 0; i < r.n; i++ {
		v := r.vtx[i]
		if i == 0 || colors[v] != colors[r.vtx[i-1]] {
			if r.numCells > 0 {
				r.cellEnd[r.numCells-1] = i
			}
			r.cellStart[r.numCells] = i
			r.seed[r.numCells] = colors[v]
			r.numCells++
		}
		r.cellOf[v] = r.numCells - 1
		r.pos[v] = i
	}
	if r.numCells > 0 {
		r.cellEnd[r.numCells-1] = r.n
	}
	for c := 0; c < r.numCells; c++ {
		r.enqueue(c)
	}
}

// Reset loads an explicit initial partition and enqueues every cell.
func (r *Refiner) Reset(initial *partition.Partition) {
	if initial.N() != r.n {
		panic("refine: partition size does not match graph")
	}
	r.clearQueue()
	r.nIndiv = 0
	r.numCells = 0
	i := 0
	for _, cell := range initial.Cells() {
		if len(cell) == 0 {
			continue // tolerate Unit(0)'s empty cell
		}
		c := r.numCells
		r.numCells++
		r.cellStart[c] = i
		r.seed[c] = c
		for _, v := range cell {
			r.vtx[i] = v
			r.pos[v] = i
			r.cellOf[v] = c
			i++
		}
		r.cellEnd[c] = i
	}
	for c := 0; c < r.numCells; c++ {
		r.enqueue(c)
	}
}

// Save snapshots the current partition state. It panics if refinement
// is still pending (call Run first): states are parent nodes of the IR
// tree, which are stable by construction.
func (r *Refiner) Save() *State {
	if r.qhead != len(r.queue) {
		panic("refine: Save with a non-empty worklist")
	}
	return &State{
		vtx:       append([]int(nil), r.vtx...),
		pos:       append([]int(nil), r.pos...),
		cellOf:    append([]int(nil), r.cellOf...),
		cellStart: append([]int(nil), r.cellStart[:r.numCells]...),
		cellEnd:   append([]int(nil), r.cellEnd[:r.numCells]...),
		seed:      append([]int(nil), r.seed[:r.numCells]...),
		numCells:  r.numCells,
	}
}

// Restore rewinds the Refiner to a state produced by Save.
func (r *Refiner) Restore(s *State) {
	if len(s.vtx) != r.n {
		panic("refine: state size does not match graph")
	}
	r.clearQueue()
	r.nIndiv = 0
	copy(r.vtx, s.vtx)
	copy(r.pos, s.pos)
	copy(r.cellOf, s.cellOf)
	copy(r.cellStart, s.cellStart)
	copy(r.cellEnd, s.cellEnd)
	copy(r.seed, s.seed)
	r.numCells = s.numCells
}

// indivSeedBase separates individualization marks from ordinary color
// seeds in CanonicalColors' round-0 ordering. Seeds only need to be
// canonical by content, so any value no color vector uses works.
const indivSeedBase = 1 << 40

// Individualize splits {v} out of its cell as a new cell and enqueues
// only the singleton: the parent state is already stable with respect
// to the old cell, and counts against the old cell are the sum of the
// counts against {v} and the remainder, so re-splitting against {v}
// alone reaches the same fixpoint (the standard IR-tree step).
func (r *Refiner) Individualize(v int) {
	c := r.cellOf[v]
	s, e := r.cellStart[c], r.cellEnd[c]
	if e-s == 1 {
		return // already a singleton; nothing to split
	}
	// Move v to the front of its segment.
	w := r.vtx[s]
	r.vtx[s], r.vtx[r.pos[v]] = v, w
	r.pos[w] = r.pos[v]
	r.pos[v] = s
	d := r.numCells
	r.numCells++
	r.cellStart[d] = s
	r.cellEnd[d] = s + 1
	r.seed[d] = indivSeedBase + r.nIndiv
	r.nIndiv++
	r.cellOf[v] = d
	r.cellStart[c] = s + 1
	r.enqueue(d)
}

// Run drains the worklist: each pending cell is used once as a splitter,
// re-bucketing only the cells its members touch. On return the partition
// is the coarsest equitable partition finer than the loaded state.
func (r *Refiner) Run() {
	// context.Background is never cancelled, so RunCtx cannot fail.
	_ = r.RunCtx(context.Background())
}

// ctxCheckWork is the amortized cancellation-poll interval: ctx.Err() is
// consulted once per this many units of splitter work, so the hot loop
// stays branch-cheap and allocation-free between polls.
const ctxCheckWork = 4096

// RunCtx is Run under a context: the worklist drain polls ctx.Err()
// every ~4096 units of splitter work and stops early with the context's
// error when it fires. On a non-nil return the partition is mid-
// refinement (not a fixpoint) and the worklist has been cleared; the
// Refiner must be re-loaded with Reset/ResetColors/Restore before reuse.
func (r *Refiner) RunCtx(ctx context.Context) error {
	work := 0
	for r.qhead < len(r.queue) {
		sc := r.queue[r.qhead]
		r.qhead++
		r.inQueue[sc] = false
		if r.qhead == len(r.queue) {
			r.queue = r.queue[:0]
			r.qhead = 0
		}
		r.statSplitters++
		r.splitAgainst(sc)
		work += len(r.spl) + 1
		if work >= ctxCheckWork {
			work = 0
			if err := ctx.Err(); err != nil {
				r.clearQueue()
				r.flushObs()
				return err
			}
		}
	}
	r.flushObs()
	return nil
}

// flushObs publishes the drain loop's local tallies — one flush per
// Run, whether it reached the fixpoint or was cancelled.
func (r *Refiner) flushObs() {
	obsRuns.Inc()
	obsSplitters.Add(r.statSplitters)
	obsSplits.Add(r.statSplits)
	obsIndivDepth.SetMax(int64(r.nIndiv))
	r.statSplitters, r.statSplits = 0, 0
}

// splitAgainst uses cell sc as the splitter: counts every vertex's edges
// into sc, then re-buckets each touched cell by count. While counting,
// each newly-touched vertex is swapped into the "touched prefix" of its
// cell, so splitting costs O(touched members), never O(cell size): a
// huge cell grazed by a tiny splitter only pays for the grazed part.
func (r *Refiner) splitAgainst(sc int) {
	// Snapshot the splitter: splitting a touched cell may split sc
	// itself (when sc has internal edges).
	r.spl = append(r.spl[:0], r.vtx[r.cellStart[sc]:r.cellEnd[sc]]...)
	off, adj := r.off, r.adj
	for _, v := range r.spl {
		for _, w32 := range adj[off[v]:off[v+1]] {
			w := int(w32)
			if r.cnt[w] == 0 {
				r.touched = append(r.touched, w)
				c := r.cellOf[w]
				if !r.tCellMark[c] {
					r.tCellMark[c] = true
					r.tCells = append(r.tCells, c)
					r.tf[c] = r.cellStart[c]
				}
				if p, q := r.pos[w], r.tf[c]; p != q {
					u := r.vtx[q]
					r.vtx[q], r.vtx[p] = w, u
					r.pos[w], r.pos[u] = q, p
				}
				r.tf[c]++
			}
			r.cnt[w]++
		}
	}
	for _, c := range r.tCells {
		r.tCellMark[c] = false
		r.splitCell(c)
	}
	r.tCells = r.tCells[:0]
	for _, w := range r.touched {
		r.cnt[w] = 0
	}
	r.touched = r.touched[:0]
}

// splitCell re-buckets cell c by the current cnt values of its touched
// prefix (counting sort), splitting it into one fragment per distinct
// count plus the untouched zero-count remainder. The worklist is updated
// per Hopcroft's rule: if c was pending, every other fragment joins it,
// otherwise all fragments but one largest do.
func (r *Refiner) splitCell(c int) {
	s, e, t := r.cellStart[c], r.cellEnd[c], r.tf[c]
	if e-s == 1 {
		return
	}
	lo, hi := r.cnt[r.vtx[s]], r.cnt[r.vtx[s]]
	for i := s + 1; i < t; i++ {
		k := r.cnt[r.vtx[i]]
		if k < lo {
			lo = k
		} else if k > hi {
			hi = k
		}
	}
	if lo == hi && t == e {
		return // every member counts the splitter equally: no split
	}
	if lo != hi {
		for i := s; i < t; i++ {
			r.bucket[r.cnt[r.vtx[i]]]++
		}
		off := s
		for k := lo; k <= hi; k++ {
			b := r.bucket[k]
			r.bucket[k] = off
			off += b
		}
		for i := s; i < t; i++ {
			v := r.vtx[i]
			r.aux[r.bucket[r.cnt[v]]] = v
			r.bucket[r.cnt[v]]++
		}
		copy(r.vtx[s:t], r.aux[s:t])
		for k := lo; k <= hi; k++ {
			r.bucket[k] = 0
		}
		for i := s; i < t; i++ {
			r.pos[r.vtx[i]] = i
		}
	}
	// Fragments: runs of equal count in the touched prefix [s,t), plus
	// the untouched zero-count suffix [t,e) when present.
	r.frag = r.frag[:0]
	start := s
	for i := s + 1; i <= t; i++ {
		if i < t && r.cnt[r.vtx[i]] == r.cnt[r.vtx[start]] {
			continue
		}
		r.frag = append(r.frag, fragEntry{start: start, end: i})
		start = i
	}
	if t < e {
		r.frag = append(r.frag, fragEntry{start: t, end: e})
	}
	// The fragment keeping c's id is never relabeled: pick the untouched
	// suffix when it exists (it may be huge), otherwise the largest
	// fragment, so relabeling stays on the smaller side of every split.
	keeper := len(r.frag) - 1
	if t == e {
		for i := range r.frag {
			if r.frag[i].end-r.frag[i].start > r.frag[keeper].end-r.frag[keeper].start {
				keeper = i
			}
		}
	}
	for i := range r.frag {
		f := &r.frag[i]
		if i == keeper {
			f.id = c
			r.cellStart[c] = f.start
			r.cellEnd[c] = f.end
			continue
		}
		d := r.numCells
		r.numCells++
		r.statSplits++
		f.id = d
		r.cellStart[d] = f.start
		r.cellEnd[d] = f.end
		r.seed[d] = r.seed[c]
		for j := f.start; j < f.end; j++ {
			r.cellOf[r.vtx[j]] = d
		}
	}
	if r.inQueue[c] {
		// c is still pending, so its fragments must all be processed.
		for i, f := range r.frag {
			if i != keeper {
				r.enqueue(f.id)
			}
		}
		return
	}
	// Every cell is uniform w.r.t. the pre-split c, so counts against one
	// fragment are determined by counts against the others: skip the
	// largest (Hopcroft's trick).
	li := 0
	for i, f := range r.frag {
		if f.end-f.start > r.frag[li].end-r.frag[li].start {
			li = i
		}
	}
	for i, f := range r.frag {
		if i != li {
			r.enqueue(f.id)
		}
	}
}

func (r *Refiner) enqueue(c int) {
	if !r.inQueue[c] {
		r.inQueue[c] = true
		r.queue = append(r.queue, c)
	}
}

func (r *Refiner) clearQueue() {
	for _, c := range r.queue[r.qhead:] {
		r.inQueue[c] = false
	}
	r.queue = r.queue[:0]
	r.qhead = 0
}

// NumCells returns the current number of cells.
func (r *Refiner) NumCells() int { return r.numCells }

// CellIndexOf returns the (internal, path-dependent) id of the cell
// containing v. Use CanonicalColors for ids comparable across runs.
func (r *Refiner) CellIndexOf(v int) int { return r.cellOf[v] }

// Partition materializes the current partition in the package-wide
// canonical form (cells sorted, ordered by smallest member).
func (r *Refiner) Partition() *partition.Partition {
	return partition.FromCellOfDense(r.cellOf, r.numCells)
}

// CanonicalColors returns per-vertex colors 0..NumCells()-1 that are
// canonical by content: any isomorphism between two refined colored
// graphs maps each cell onto the cell with the same color. Internally it
// runs color refinement on the quotient graph of cells, seeded by the
// cells' initial colors — the per-cell transcript of exactly the vertex
// refinement history the naive implementation serialized per vertex, so
// distinct cells always separate. dst is reused when non-nil and of
// length N.
//
// The result is only meaningful after Run; colors are comparable between
// Refiners whose ResetColors/Individualize inputs correspond under an
// isomorphism. A path-like quotient needs about one round per cell (an
// individualized Cycle(1000) has 501 cells), so the rounds poll ctx on
// RunCtx's cadence and stop with its error; dst is then incomplete.
func (r *Refiner) CanonicalColors(ctx context.Context, dst []int) ([]int, error) {
	if dst == nil || len(dst) != r.n {
		dst = make([]int, r.n)
	}
	nc := r.numCells
	if nc == 0 {
		return dst[:0], nil
	}
	// Quotient profiles: the partition is equitable, so one representative
	// per cell determines the whole cell's neighbor-count profile.
	profCell := make([][]int, nc)  // neighbor cell ids, ascending
	profCount := make([][]int, nc) // matching counts
	cellCnt := r.cnt               // reuse scratch (len n ≥ nc)
	for c := 0; c < nc; c++ {
		rep := r.vtx[r.cellStart[c]]
		var ds []int
		for _, w := range r.adj[r.off[rep]:r.off[rep+1]] {
			d := r.cellOf[w]
			if cellCnt[d] == 0 {
				ds = append(ds, d)
			}
			cellCnt[d]++
		}
		sort.Ints(ds)
		counts := make([]int, len(ds))
		for i, d := range ds {
			counts[i] = cellCnt[d]
			cellCnt[d] = 0
		}
		profCell[c] = ds
		profCount[c] = counts
	}
	// Round 0: rank cells by seed value.
	rank := make([]int, nc)
	order := make([]int, nc)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return r.seed[order[a]] < r.seed[order[b]] })
	distinct := 0
	for i, c := range order {
		if i > 0 && r.seed[c] != r.seed[order[i-1]] {
			distinct++
		}
		rank[c] = distinct
	}
	distinct++
	// Iterate quotient refinement until the rank partition stabilizes.
	keys := make([][]int, nc)
	next := make([]int, nc)
	type rc struct{ rank, count int }
	pairs := make([]rc, 0, 16)
	work := 0
	for distinct < nc {
		work += nc
		if work >= ctxCheckWork {
			work = 0
			if err := ctx.Err(); err != nil {
				return dst, err
			}
		}
		for c := 0; c < nc; c++ {
			pairs = pairs[:0]
			for i, d := range profCell[c] {
				pairs = append(pairs, rc{rank: rank[d], count: profCount[c][i]})
			}
			sort.Slice(pairs, func(a, b int) bool { return pairs[a].rank < pairs[b].rank })
			// Merge counts of equal-rank neighbor cells: the vertex-level
			// WL signature sees colors, not cell identities.
			key := keys[c][:0]
			key = append(key, rank[c])
			for i := 0; i < len(pairs); {
				j := i
				total := 0
				for ; j < len(pairs) && pairs[j].rank == pairs[i].rank; j++ {
					total += pairs[j].count
				}
				key = append(key, pairs[i].rank, total)
				i = j
			}
			keys[c] = key
		}
		sort.Slice(order, func(a, b int) bool { return lessIntSlice(keys[order[a]], keys[order[b]]) })
		newDistinct := 0
		for i, c := range order {
			if i > 0 && !equalIntSlice(keys[c], keys[order[i-1]]) {
				newDistinct++
			}
			next[c] = newDistinct
		}
		newDistinct++
		copy(rank, next)
		if newDistinct == distinct {
			break
		}
		distinct = newDistinct
	}
	for v := 0; v < r.n; v++ {
		dst[v] = rank[r.cellOf[v]]
	}
	return dst, nil
}

func lessIntSlice(a, b []int) bool {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return len(a) < len(b)
}

func equalIntSlice(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
