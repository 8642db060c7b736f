package automorphism

// Parallel individualization-refinement search (DESIGN.md §12).
//
// The classification work under one refined cell is split at its root
// into per-candidate work units "prove or refute root ~ dst". Units
// execute speculatively on a bounded worker pool — each worker owns a
// cloned Refiner restored from the shared base state plus its own
// search scratch — and their results merge through a single ordered
// commit cursor: unit i of a round commits strictly after unit i-1,
// rounds commit in order within a cell, and cells commit in partition
// order. Everything that shapes the answer — the generator list, the
// orbit union-find, the composition of the next round, the error
// choice — is written only at commit time, from the unit's own result
// (a pure function of the graph and the pair) plus the union-find the
// committed prefix built. Scheduling decides only how much speculative
// work is wasted, never what is committed, so orbits, generators, and
// every downstream artifact are byte-identical at every worker count.
//
// Early-termination sharing rides the same invariant: a search polls a
// prune signal on its amortized cadence, and that signal consults only
// the *committed* union-find (gated behind an atomic epoch counter so
// the poll is one load unless a new generator actually landed). The
// committed union-find only grows, so if a prune fires, the commit-time
// check re-derives the same "already equivalent" fact deterministically
// and the unit's missing search result is never needed.

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"ksymmetry/internal/graph"
	"ksymmetry/internal/parallel"
	"ksymmetry/internal/refine"
)

// round is one classification round of a cell: every pending candidate
// is searched against the round's root. order is the shared fast-path
// vertex order for that root, built lazily by the first unit that
// actually searches — claim-time pruning often retires whole rounds
// without one.
type round struct {
	root  int
	once  sync.Once
	order []int
}

func (rd *round) orderFor(c *classifier) []int {
	rd.once.Do(func() {
		rd.order = searchOrder(c.g, c.baseColors, rd.root)
	})
	return rd.order
}

// Unit lifecycle, guarded by classifier.mu. A unit reverted by the
// defensive commit path goes back to unitReady.
const (
	unitReady = iota
	unitRunning
	unitDone
)

// unit is one work unit: prove or refute rd.root ~ dst. perm, found,
// pruned, and err are the unit's result, written under classifier.mu
// before state becomes unitDone.
type unit struct {
	rd    *round
	dst   int
	state int
	last  bool // closes its round when committed

	perm   Perm
	found  bool
	pruned bool
	err    error
}

// cellStream is one cell's unit stream. Units are appended round by
// round; claim and commit cursors both walk the stream in order.
type cellStream struct {
	units      []*unit
	nextClaim  int
	nextCommit int
	unmatched  []int // candidates the current round left unproven
	done       bool
}

// classifier runs the orbit classification over the worker pool.
type classifier struct {
	ctx    context.Context
	cancel context.CancelFunc
	g      *graph.Graph
	csr    *graph.CSR
	opts   *Options
	// base is the refined unit-partition fixpoint; per-pair slow-path
	// searches restore it and individualize one vertex instead of
	// refining the whole graph from scratch. baseColors/baseByColor are
	// its canonical colors and their dense index, shared read-only by
	// every fast-path search.
	base        *refine.State
	baseColors  []int
	baseByColor [][]int
	workers     int

	// ufEpoch counts committed generator unions. Prune polls compare it
	// against their last observed value, so the poll is a single atomic
	// load unless something new was actually committed.
	ufEpoch atomic.Int64

	mu         sync.Mutex
	cond       *sync.Cond
	cells      []*cellStream
	commitCell int // frontier: first cell with uncommitted units
	claimCell  int // hint: first cell that may still have ready units
	uf         *unionFind
	gens       []Perm
	err        error
	finished   bool

	// Merge/steal tallies, owned by mu, flushed to obs once per run.
	statStolen int64
	statWaits  int64
	statPrunes int64
}

// run executes every queued unit on the pool and drains the commit
// stream. It returns the first error in commit order, or the context's
// error if cancellation cut the classification short.
func (c *classifier) run(parent context.Context) error {
	c.ctx, c.cancel = context.WithCancel(parent)
	defer c.cancel()
	c.cond = sync.NewCond(&c.mu)
	// A dying context must wake cond waiters, or a cancelled run would
	// strand workers parked in Wait.
	stop := context.AfterFunc(c.ctx, func() {
		c.mu.Lock()
		c.cond.Broadcast()
		c.mu.Unlock()
	})
	defer stop()
	obsWorkers.Set(int64(c.workers))
	_ = parallel.ForEach(c.ctx, c.workers, c.workers, func(_ context.Context, wid, _ int) error {
		c.worker()
		return nil
	})
	c.mu.Lock()
	defer c.mu.Unlock()
	obsStolen.Add(c.statStolen)
	obsMergeWaits.Add(c.statWaits)
	obsPrunesShared.Add(c.statPrunes)
	if c.err != nil {
		return c.err
	}
	if !c.finished {
		if err := parent.Err(); err != nil {
			return err
		}
		return errors.New("automorphism: classifier stalled") // unreachable
	}
	return nil
}

// worker claims ready units, runs their searches on private scratch,
// and merges results at the ordered commit frontier.
func (c *classifier) worker() {
	w := newSearchWorker(c)
	pruning := !c.opts.orbitPruningDisabled()
	for {
		c.mu.Lock()
		var u *unit
		for {
			if c.err != nil || c.finished || c.ctx.Err() != nil {
				c.mu.Unlock()
				return
			}
			if u = c.claimLocked(); u != nil {
				break
			}
			if c.workers == 1 {
				// A single worker commits everything it claims before
				// claiming again, so an empty claim with work
				// outstanding is a bug, not a wait.
				panic("automorphism: single-worker classifier starved")
			}
			c.cond.Wait()
		}
		if pruning && c.uf.find(u.rd.root) == c.uf.find(u.dst) {
			// Claim-time prune: the committed prefix already proves the
			// pair equivalent — retire the unit without searching.
			u.pruned = true
			u.state = unitDone
			c.statPrunes++
			c.commitLocked()
			c.mu.Unlock()
			continue
		}
		c.mu.Unlock()

		perm, found, err := w.findMapping(u.rd, u.dst)

		c.mu.Lock()
		u.perm, u.found = perm, found
		if errors.Is(err, errPruned) {
			u.pruned = true
			c.statPrunes++
		} else {
			u.err = err
		}
		u.state = unitDone
		if !c.commitLocked() {
			// Speculation outran the commit frontier; the result waits
			// for an earlier unit.
			c.statWaits++
		}
		c.mu.Unlock()
	}
}

// claimLocked hands out the first ready unit at or after claimCell.
// Units claimed ahead of the commit frontier's cell are speculative
// steals.
func (c *classifier) claimLocked() *unit {
	for i := c.claimCell; i < len(c.cells); i++ {
		cs := c.cells[i]
		for cs.nextClaim < len(cs.units) && cs.units[cs.nextClaim].state != unitReady {
			cs.nextClaim++
		}
		if cs.nextClaim < len(cs.units) {
			c.claimCell = i
			u := cs.units[cs.nextClaim]
			cs.nextClaim++
			u.state = unitRunning
			if i != c.commitCell {
				c.statStolen++
			}
			return u
		}
	}
	return nil
}

// commitLocked drains every consecutively completed unit at the commit
// frontier, advancing cells as their streams finish. Reports whether
// any unit committed.
func (c *classifier) commitLocked() bool {
	progressed := false
	for c.err == nil && c.commitCell < len(c.cells) {
		cs := c.cells[c.commitCell]
		if cs.nextCommit == len(cs.units) {
			if !cs.done {
				break // round append pending; cannot happen, defensive
			}
			c.commitCell++
			continue
		}
		u := cs.units[cs.nextCommit]
		if u.state != unitDone || !c.commitUnit(cs, u) {
			break
		}
		progressed = true
	}
	if c.err == nil && c.commitCell == len(c.cells) && !c.finished {
		c.finished = true
		c.cond.Broadcast()
	}
	return progressed
}

// commitUnit applies one completed unit at the commit frontier. The
// decision reads only deterministic state — the unit's own pure search
// result and the union-find built by previously committed units — so
// the committed sequence is independent of scheduling.
func (c *classifier) commitUnit(cs *cellStream, u *unit) bool {
	root := u.rd.root
	switch {
	case !c.opts.orbitPruningDisabled() && c.uf.find(root) == c.uf.find(u.dst):
		// The committed prefix already proves the pair equivalent.
		// Whatever the unit's own outcome was — a redundant witness, a
		// shared-orbit prune, even a blown budget — the committed
		// verdict is "matched, no new generator".
	case u.pruned:
		// A prune the committed prefix does not confirm. Unreachable —
		// prune polls only ever read committed unions, which never
		// shrink — but if it did happen, rerunning the unit keeps the
		// result deterministic instead of silently dropping a
		// candidate.
		u.state = unitReady
		u.pruned = false
		cs.nextClaim = cs.nextCommit
		if c.claimCell > c.commitCell {
			c.claimCell = c.commitCell
		}
		c.cond.Broadcast()
		return false
	case u.err != nil:
		if c.opts.bestEffort() && errors.Is(u.err, ErrBudgetExceeded) {
			// Unproven either way: the candidate stays separate this
			// round and rides on to the next root.
			cs.unmatched = append(cs.unmatched, u.dst)
			break
		}
		c.err = fmt.Errorf("mapping %d→%d: %w", root, u.dst, u.err)
		c.cancel()
		c.cond.Broadcast()
		return false
	case u.found:
		// Canonical generator order = commit order.
		c.gens = append(c.gens, u.perm)
		for i, w := range u.perm {
			c.uf.union(i, w)
		}
		c.ufEpoch.Add(1)
	default:
		cs.unmatched = append(cs.unmatched, u.dst)
	}
	cs.nextCommit++
	u.perm = nil // committed or discarded; don't pin the witness
	if u.last {
		c.nextRoundLocked(cs)
	}
	return true
}

// nextRoundLocked closes the current round: the candidates it left
// unproven form the next round, rooted at the first of them — exactly
// the sequential greedy classification, one root at a time.
func (c *classifier) nextRoundLocked(cs *cellStream) {
	um := cs.unmatched
	cs.unmatched = nil
	if len(um) <= 1 {
		// A lone unproven vertex roots its own class; nothing to search.
		cs.done = true
		return
	}
	rd := &round{root: um[0]}
	for _, v := range um[1:] {
		cs.units = append(cs.units, &unit{rd: rd, dst: v})
	}
	cs.units[len(cs.units)-1].last = true
	if c.claimCell > c.commitCell {
		c.claimCell = c.commitCell
	}
	c.cond.Broadcast()
}

// searchWorker is one worker's private search machinery: a lazily
// cloned Refiner restored from the shared base state, a reusable
// mapping search, and per-worker color buffers. Nothing here is shared,
// so the search hot path never takes a lock.
type searchWorker struct {
	c            *classifier
	ref          *refine.Refiner
	ms           mappingSearch
	pc           pruneCheck
	caBuf, cbBuf []int
}

func newSearchWorker(c *classifier) *searchWorker {
	w := &searchWorker{c: c}
	w.pc.c = c
	if !c.opts.orbitPruningDisabled() {
		// One method-value closure per worker; the per-pair fields on
		// pc are reset in findMapping, so the hot loop allocates
		// nothing.
		w.ms.prune = w.pc.check
	}
	return w
}

// pruneCheck is the shared-orbit prune signal a worker polls from
// inside its current search.
type pruneCheck struct {
	c         *classifier
	root, dst int
	lastEpoch int64
}

func (p *pruneCheck) check() bool {
	e := p.c.ufEpoch.Load()
	if e == p.lastEpoch {
		return false
	}
	p.lastEpoch = e
	p.c.mu.Lock()
	same := p.c.uf.find(p.root) == p.c.uf.find(p.dst)
	p.c.mu.Unlock()
	return same
}

// findMapping searches with the shared base colors first, then retries
// with per-pair individualized refinement if the cheap search exceeds
// its budget.
func (w *searchWorker) findMapping(rd *round, dst int) (Perm, bool, error) {
	c := w.c
	src := rd.root
	if c.baseColors[src] != c.baseColors[dst] {
		return nil, false, nil
	}
	obsPairs.Inc()
	// Epochs at or before the claim-time check are already accounted
	// for; polls only need to react to unions committed after it.
	w.pc.root, w.pc.dst, w.pc.lastEpoch = src, dst, c.ufEpoch.Load()
	budget := c.opts.budget()
	fb := budget
	if fb > fastSearchBudget {
		fb = fastSearchBudget
	}
	w.ms.ctx = c.ctx
	w.ms.g = c.g
	w.ms.ca, w.ms.cb = c.baseColors, c.baseColors
	w.ms.byColor = c.baseByColor
	w.ms.order = rd.orderFor(c)
	w.ms.budget = fb
	perm, found, err := w.ms.run(src, dst)
	if err == nil || errors.Is(err, errPruned) {
		return perm, found, err
	}
	if !errors.Is(err, ErrBudgetExceeded) {
		return nil, false, err // cancelled mid-search
	}
	// Slow path: individualize src and dst off the saved base state,
	// refine incrementally, and backtrack over color-respecting
	// assignments.
	if w.caBuf, err = w.individualizedColors(src, w.caBuf); err != nil {
		return nil, false, err
	}
	if w.cbBuf, err = w.individualizedColors(dst, w.cbBuf); err != nil {
		return nil, false, err
	}
	if w.caBuf[src] != w.cbBuf[dst] || !sameHistogram(w.caBuf, w.cbBuf) {
		return nil, false, nil
	}
	w.ms.ca, w.ms.cb = w.caBuf, w.cbBuf
	w.ms.byColor = nil // per-pair colors: rebuild the index
	w.ms.order = nil
	w.ms.budget = budget
	return w.ms.run(src, dst)
}

// individualizedColors refines base + individualized v and returns the
// canonical colors — the incremental IR-tree step: only the part of the
// partition that splitting {v} disturbs is re-refined.
func (w *searchWorker) individualizedColors(v int, buf []int) ([]int, error) {
	obsRestores.Inc()
	if w.ref == nil {
		w.ref = refine.NewRefiner(w.c.csr)
	}
	w.ref.Restore(w.c.base)
	w.ref.Individualize(v)
	if err := w.ref.RunCtx(w.c.ctx); err != nil {
		return buf, err
	}
	return w.ref.CanonicalColors(w.c.ctx, buf)
}
