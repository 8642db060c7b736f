package ksym

import (
	"context"
	"fmt"
	"sort"

	"ksymmetry/internal/graph"
	"ksymmetry/internal/intkey"
	"ksymmetry/internal/parallel"
	"ksymmetry/internal/partition"
)

// BackboneResult is the outcome of backbone detection (Algorithm 2).
type BackboneResult struct {
	// Graph is the backbone B_{G,𝒱}: the least reduction of (G,𝒱)
	// under the inverse of orbit copying (Definition 4 / Theorem 3).
	Graph *graph.Graph
	// Partition is the backbone's sub-automorphism partition ℬ.
	Partition *partition.Partition
	// OrigOf maps each backbone vertex to its vertex in the input
	// graph.
	OrigOf []int
}

// BackboneWorkersCtx implements Algorithm 2: within every cell V of 𝒱,
// connected components of the induced subgraph G[V] that are orbit
// copies of a kept component — isomorphic via a mapping that preserves
// each vertex's neighborhood outside V (the relation ≅_{ℒ(V)}) — are
// removed. Passes repeat until no removal occurs, which reaches the
// least element of the reduction lattice. The per-cell component
// classification of each pass is fanned out across `workers`
// goroutines (0 or 1 = sequential, mirroring
// automorphism.Options.Workers). Cells are independent within a pass —
// the pairwise C_i ≅ C_j bucket tests never cross a cell boundary — so
// the detected backbone is identical at every worker count. Every pass
// polls ctx.Err() per scanned component (component isomorphism checks
// are the chunky unit of work here) and returns the context's error as
// soon as it fires.
func BackboneWorkersCtx(ctx context.Context, g *graph.Graph, p *partition.Partition, workers int) (*BackboneResult, error) {
	if p.N() != g.N() {
		panic("ksym: partition does not match graph")
	}
	cur := g.Clone()
	cellOf := make([]int, g.N())
	origOf := make([]int, g.N())
	for v := 0; v < g.N(); v++ {
		cellOf[v] = p.CellIndexOf(v)
		origOf[v] = v
	}
	for {
		removed, nRemoved, err := backbonePass(ctx, cur, cellOf, workers)
		if err != nil {
			return nil, err
		}
		if nRemoved == 0 {
			break
		}
		keep := make([]int, 0, cur.N()-nRemoved)
		for v := 0; v < cur.N(); v++ {
			if !removed[v] {
				keep = append(keep, v)
			}
		}
		next, idxOrig := cur.InducedSubgraph(keep)
		nextCellOf := make([]int, len(keep))
		nextOrigOf := make([]int, len(keep))
		for i, old := range idxOrig {
			nextCellOf[i] = cellOf[old]
			nextOrigOf[i] = origOf[old]
		}
		cur, cellOf, origOf = next, nextCellOf, nextOrigOf
	}
	return &BackboneResult{
		Graph:     cur,
		Partition: partition.FromCellOf(cellOf),
		OrigOf:    origOf,
	}, nil
}

// cellScratch holds vertex-indexed buffers one worker reuses across the
// cells it classifies, replacing the per-cell map allocations (the old
// map[int]bool inCell and map[int]string extSig). Entries touched for a
// cell are cleared before the buffers are reused.
type cellScratch struct {
	inCell []bool
	extSig []string
}

func (s *cellScratch) grow(n int) {
	if len(s.inCell) < n {
		s.inCell = make([]bool, n)
		s.extSig = make([]string, n)
	}
}

// classifyCell groups the connected components of g[cell] into
// ℒ(cell)-equivalence classes: components isomorphic via a mapping that
// preserves each vertex's neighborhood outside the cell. The graph is
// consumed through its frozen CSR view — the external-signature sweep
// and the induced-subgraph extraction are pure neighbor scans, the
// per-pass hot path of backbone detection. It returns the components
// (as vertex sets of g, in ConnectedComponents order) and each
// component's class index, assigned in first-seen order — so component
// i is an orbit copy exactly when an earlier component shares its
// class. tick, when non-nil, polls for cancellation amortized by
// component size.
func classifyCell(c *graph.CSR, cell []int, sc *cellScratch, tick *canceller) ([][]int, []int, error) {
	obsCellsClassified.Inc()
	sub, subOrig := c.InducedSubgraph(cell)
	subComps := sub.ConnectedComponents()
	obsComponents.Add(int64(len(subComps)))
	if len(subComps) <= 1 {
		orig := append([]int(nil), cell...)
		return [][]int{orig}, []int{0}, nil
	}
	sc.grow(c.N())
	// External signature of each cell vertex: its neighbors outside the
	// cell. ℒ(V)-matched vertices must have identical ones.
	for _, v := range cell {
		sc.inCell[v] = true
	}
	for _, v := range cell {
		var ext []int
		for _, u := range c.Neighbors(v) {
			if !sc.inCell[u] {
				ext = append(ext, int(u))
			}
		}
		sc.extSig[v] = intkey.Of(ext)
	}
	defer func() {
		for _, v := range cell {
			sc.inCell[v] = false
			sc.extSig[v] = ""
		}
	}()
	type comp struct {
		sub    *graph.Graph
		orig   []int // component index -> vertex of g
		sigBag string
	}
	build := func(c []int) comp {
		cg, cOrig := sub.InducedSubgraph(c)
		orig := make([]int, len(cOrig))
		sigs := make([]string, len(cOrig))
		for i, sv := range cOrig {
			orig[i] = subOrig[sv]
			sigs[i] = sc.extSig[orig[i]]
		}
		sort.Strings(sigs)
		return comp{sub: cg, orig: orig, sigBag: intkey.Join(sigs)}
	}
	comps := make([][]int, 0, len(subComps))
	class := make([]int, 0, len(subComps))
	var reps []comp
	repClass := []int{}
	nextClass := 0
	for _, c := range subComps {
		// A cell can hold millions of tiny copied components; poll
		// amortized by component size so a pass never runs more than
		// ~4096 vertices past a cancellation.
		if tick != nil {
			if err := tick.tick(len(c)); err != nil {
				return nil, nil, err
			}
		}
		cand := build(c)
		cls := -1
		for ri, r := range reps {
			if r.sub.N() != cand.sub.N() || r.sub.M() != cand.sub.M() || r.sigBag != cand.sigBag {
				continue
			}
			obsIsoTests.Inc()
			_, ok := graph.IsomorphicConstrained(cand.sub, r.sub, func(u, v int) bool {
				return sc.extSig[cand.orig[u]] == sc.extSig[r.orig[v]]
			})
			if ok {
				cls = repClass[ri]
				break
			}
		}
		if cls < 0 {
			cls = nextClass
			nextClass++
			reps = append(reps, cand)
			repClass = append(repClass, cls)
		}
		comps = append(comps, cand.orig)
		class = append(class, cls)
	}
	return comps, class, nil
}

// maxClassMultiplicity groups the components of c[cell] into ℒ(cell)
// equivalence classes and returns the size of the largest class (1 for
// a single-component cell). sc is the caller's reusable scratch.
func maxClassMultiplicity(c *graph.CSR, cell []int, sc *cellScratch) int {
	comps, class, _ := classifyCell(c, cell, sc, nil)
	counts := make([]int, len(comps))
	max := 1
	for _, cls := range class {
		counts[cls]++
		if counts[cls] > max {
			max = counts[cls]
		}
	}
	return max
}

// backboneWorkers resolves the Workers knob with the same semantics as
// automorphism.Options.Workers: 0 or 1 means sequential.
func backboneWorkers(w int) int {
	if w < 2 {
		return 1
	}
	return w
}

// backbonePass performs one sweep over all cells, marking components
// that are ℒ(V)-copies of a kept component in the same cell. Cells are
// classified concurrently across `workers` goroutines — the pairwise
// component bucket tests never cross a cell boundary, and each worker
// reuses its own vertex-indexed scratch — so the removal set is
// identical at every worker count. It returns a vertex-indexed removal
// mask with the number of marked vertices (0 at a fixpoint), stopping
// early with the context's error when it fires.
func backbonePass(ctx context.Context, g *graph.Graph, cellOf []int, workers int) ([]bool, int, error) {
	obsPasses.Inc()
	cells := partition.FromCellOf(cellOf)
	var work [][]int
	for ci := 0; ci < cells.NumCells(); ci++ {
		if cell := cells.Cell(ci); len(cell) > 1 {
			work = append(work, cell)
		}
	}
	// One frozen CSR view per pass, shared read-only by every worker:
	// the classification sweeps (external signatures, induced
	// subgraphs) run on the flat layout, while g itself stays the
	// mutable representation the pass boundary rebuilds.
	csr := graph.NewCSR(g)
	removed := make([]bool, g.N())
	counts := make([]int, len(work))
	workers = parallel.Resolve(backboneWorkers(workers), len(work))
	scratch := make([]*cellScratch, workers)
	err := parallel.ForEach(ctx, workers, len(work), func(ctx context.Context, wid, wi int) error {
		sc := scratch[wid]
		if sc == nil {
			sc = &cellScratch{}
			scratch[wid] = sc
		}
		tick := canceller{ctx: ctx}
		comps, class, err := classifyCell(csr, work[wi], sc, &tick)
		if err != nil {
			return err
		}
		// Cells are disjoint vertex sets, so concurrent workers write
		// disjoint entries of the shared removal mask.
		seen := make([]bool, len(comps))
		for ci, c := range comps {
			if seen[class[ci]] {
				for _, v := range c {
					removed[v] = true
				}
				counts[wi] += len(c)
			} else {
				seen[class[ci]] = true
			}
		}
		return nil
	})
	if err != nil {
		return nil, 0, err
	}
	total := 0
	for _, c := range counts {
		total += c
	}
	return removed, total, nil
}

// MinimalAnonymizeFCtx implements the §5.1 optimization: anonymize the
// backbone of (G, orb) instead of G itself, so that the number of
// newly-introduced vertices is minimized. Every cell is copied until it
// is both at least as large as the corresponding cell of G (so the
// original network embeds in the output) and at least as large as its
// target. Both the backbone detection and the copy loop poll the
// context with amortized cost and return its error as soon as it
// fires.
func MinimalAnonymizeFCtx(ctx context.Context, g *graph.Graph, orb *partition.Partition, target Target) (*Result, error) {
	if err := orb.Validate(g.N()); err != nil {
		return nil, fmt.Errorf("ksym: invalid partition: %w", err)
	}
	bb, err := BackboneWorkersCtx(ctx, g, orb, 1)
	if err != nil {
		return nil, err
	}
	h := bb.Graph.Clone()
	cellOf := make([]int, h.N())
	for v := 0; v < h.N(); v++ {
		cellOf[v] = bb.Partition.CellIndexOf(v)
	}
	res := &Result{OriginalN: g.N(), OriginalM: g.M()}
	tick := canceller{ctx: ctx}
	sc := &cellScratch{}
	// Frozen once for the per-cell multiplicity checks below; g is not
	// mutated here (copies go into the clone h).
	gcsr := graph.NewCSR(g)
	for i := 0; i < bb.Partition.NumCells(); i++ {
		bcell := bb.Partition.Cell(i)
		// The matching cell of G: orb's cell containing the backbone
		// cell's first original vertex.
		gcell := orb.CellOfVertex(bb.OrigOf[bcell[0]])
		want := target(gcell)
		if want < 1 {
			return nil, fmt.Errorf("ksym: target for cell %d is %d, must be ≥ 1", i, want)
		}
		// Each copy operation duplicates the whole backbone cell, so
		// after N operations every ℒ-class has N+1 components. To embed
		// G, N+1 must reach the largest class multiplicity in G's cell
		// (usually just ⌈|gcell|/|bcell|⌉; they differ only when a cell
		// mixes classes with unequal counts).
		copies := (want + len(bcell) - 1) / len(bcell) // ceil(want/|bcell|)
		if mc := maxClassMultiplicity(gcsr, gcell, sc); mc > copies {
			copies = mc
		}
		for c := 1; c < copies; c++ {
			if err := tick.tick(len(bcell)); err != nil {
				return nil, err
			}
			copyCell(h, &cellOf, i, bcell)
			res.CopyOps++
		}
	}
	res.Graph = h
	res.Partition = partition.FromCellOf(cellOf)
	return res, nil
}
