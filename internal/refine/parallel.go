package refine

// Parallel equitable refinement for the 1M-tier CSR graphs, where a
// single worklist drain is itself the bottleneck (DESIGN.md §12). The
// sequential kernel's splitter queue is inherently ordered, so instead
// of parallelizing the queue this pass runs synchronous 1-WL rounds:
//
//	sig(v) = Σ_{w ∈ N(v)} mix64(color(w))        (parallel over chunks)
//	re-key every vertex by (color(v), sig(v), v)  (parallel merge sort)
//	split cells at key boundaries                 (sequential O(n) scan)
//
// until no round splits a cell. The neighbor-sum signature is
// commutative, so chunk boundaries never matter, and every step is a
// deterministic function of the previous coloring — the result is
// byte-identical at every worker count. Hash collisions could only
// merge what exact counting would split (vertices with equal profiles
// always hash equal), so the candidate stays coarser than the true
// coarsest equitable partition Q throughout; a final exact
// verification pass then either proves the candidate equitable — and
// an equitable refinement of the initial partition that is coarser
// than Q *is* Q — or falls back to the sequential kernel (never
// expected; the fallback exists so correctness does not rest on a
// 64-bit hash).

import (
	"context"
	"slices"
	"sort"
	"sync/atomic"

	"ksymmetry/internal/graph"
	"ksymmetry/internal/parallel"
	"ksymmetry/internal/partition"
)

// parallelRefineMinN is the graph size below which the parallel pass
// defers to the sequential worklist kernel: under it, round-barrier
// and sort overhead dominate whatever the fan-out wins.
const parallelRefineMinN = 2048

// roundRefiner holds the flat per-round state. All slices are indexed
// by vertex; order/buf hold the vertex permutation the re-key sort
// maintains.
type roundRefiner struct {
	csr     *graph.CSR
	workers int

	color    []int32
	newColor []int32
	sig      []uint64
	order    []int32
	buf      []int32
}

func (r *roundRefiner) run(ctx context.Context, initial *partition.Partition) (*partition.Partition, bool, error) {
	n := r.csr.N()
	r.color = make([]int32, n)
	r.newColor = make([]int32, n)
	r.sig = make([]uint64, n)
	r.order = make([]int32, n)
	r.buf = make([]int32, n)
	for v := 0; v < n; v++ {
		r.color[v] = int32(initial.CellIndexOf(v))
		r.order[v] = int32(v)
	}
	numCells := initial.NumCells()
	for {
		if err := r.signatures(ctx); err != nil {
			return nil, false, err
		}
		if err := r.sortByKey(ctx); err != nil {
			return nil, false, err
		}
		obsParRounds.Inc()
		newCells := r.assign()
		if newCells == numCells {
			break
		}
		numCells = newCells
		r.color, r.newColor = r.newColor, r.color
		if numCells == n {
			break // discrete; no further split possible
		}
	}
	ok, err := r.verify(ctx, numCells)
	if err != nil || !ok {
		return nil, ok, err
	}
	cellOf := make([]int, n)
	for v := 0; v < n; v++ {
		cellOf[v] = int(r.color[v])
	}
	return partition.FromCellOfDense(cellOf, numCells), true, nil
}

// mix64 is the splitmix64 finalizer: the per-neighbor hash whose sum
// forms a commutative multiset signature.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// signatures fills sig(v) = Σ mix64(color(w)) over v's neighbors,
// fanning vertex chunks across the pool. Oversplitting into 4×workers
// chunks lets the pool's claim counter absorb skewed degree mass.
func (r *roundRefiner) signatures(ctx context.Context) error {
	n := r.csr.N()
	off, adj := r.csr.Rows()
	chunks := r.workers * 4
	if chunks > n {
		chunks = n
	}
	return parallel.ForEach(ctx, r.workers, chunks, func(_ context.Context, _, ci int) error {
		lo, hi := ci*n/chunks, (ci+1)*n/chunks
		for v := lo; v < hi; v++ {
			var s uint64
			for _, w := range adj[off[v]:off[v+1]] {
				s += mix64(uint64(r.color[w]))
			}
			r.sig[v] = s
		}
		return nil
	})
}

// less is the re-key order: old color, then signature, then vertex id.
// It is a strict total order (ids are unique), so any correct sort
// produces the same permutation — the merge structure cannot leak into
// the result.
func (r *roundRefiner) less(a, b int32) bool {
	if r.color[a] != r.color[b] {
		return r.color[a] < r.color[b]
	}
	if r.sig[a] != r.sig[b] {
		return r.sig[a] < r.sig[b]
	}
	return a < b
}

// sortByKey sorts order by less: chunk-local sorts in parallel, then
// pairwise merges until one run remains. Cancellation is polled once
// per chunk/merge job; each job is O(n/chunks · log) or O(run length).
func (r *roundRefiner) sortByKey(ctx context.Context) error {
	n := len(r.order)
	chunks := r.workers * 2
	if chunks > n {
		chunks = n
	}
	bounds := make([]int, chunks+1)
	for i := range bounds {
		bounds[i] = i * n / chunks
	}
	err := parallel.ForEach(ctx, r.workers, chunks, func(_ context.Context, _, ci int) error {
		seg := r.order[bounds[ci]:bounds[ci+1]]
		sort.Slice(seg, func(a, b int) bool { return r.less(seg[a], seg[b]) })
		return nil
	})
	if err != nil {
		return err
	}
	src, dst := r.order, r.buf
	for len(bounds) > 2 {
		runs := len(bounds) - 1
		merged := (runs + 1) / 2
		err := parallel.ForEach(ctx, r.workers, merged, func(_ context.Context, _, p int) error {
			lo := bounds[2*p]
			mid := bounds[2*p+1]
			hi := mid
			if 2*p+2 < len(bounds) {
				hi = bounds[2*p+2]
			}
			r.merge(src[lo:mid], src[mid:hi], dst[lo:hi])
			return nil
		})
		if err != nil {
			return err
		}
		nb := make([]int, 0, merged+1)
		for i := 0; i < len(bounds); i += 2 {
			nb = append(nb, bounds[i])
		}
		if nb[len(nb)-1] != n {
			nb = append(nb, n)
		}
		bounds = nb
		src, dst = dst, src
	}
	if &src[0] != &r.order[0] {
		r.order, r.buf = src, dst
	}
	return nil
}

func (r *roundRefiner) merge(a, b, out []int32) {
	i, j, k := 0, 0, 0
	for i < len(a) && j < len(b) {
		if r.less(b[j], a[i]) {
			out[k] = b[j]
			j++
		} else {
			out[k] = a[i]
			i++
		}
		k++
	}
	copy(out[k:], a[i:])
	copy(out[k+len(a)-i:], b[j:])
}

// assign walks the sorted order and gives each (color, sig) group the
// next dense id, writing newColor. Sequential O(n): it is the only
// cross-chunk-dependent step and is noise next to the signature pass.
func (r *roundRefiner) assign() int {
	id := int32(-1)
	for i, v := range r.order {
		if i == 0 || r.color[v] != r.color[r.order[i-1]] || r.sig[v] != r.sig[r.order[i-1]] {
			id++
		}
		r.newColor[v] = id
	}
	return int(id) + 1
}

// verify exactly checks equitability of the final coloring: every
// vertex's sorted neighbor-color list must equal its cell
// representative's. order is sorted by (color, v) after the last
// round, so group heads are the representatives.
func (r *roundRefiner) verify(ctx context.Context, numCells int) (bool, error) {
	n := r.csr.N()
	off, adj := r.csr.Rows()
	cellStart := make([]int32, numCells+1)
	for i, v := range r.order {
		if i == 0 || r.color[v] != r.color[r.order[i-1]] {
			cellStart[r.color[v]] = int32(i)
		}
	}
	cellStart[numCells] = int32(n)
	// Flatten the representatives' sorted neighbor-color profiles into
	// one buffer addressed by the existing CSR row offsets.
	profOff := make([]int32, numCells+1)
	total := int32(0)
	for ci := 0; ci < numCells; ci++ {
		profOff[ci] = total
		total += int32(r.csr.Degree(int(r.order[cellStart[ci]])))
	}
	profOff[numCells] = total
	prof := make([]int32, total)
	var bad atomic.Bool
	chunks := r.workers * 2
	if chunks > numCells {
		chunks = numCells
	}
	err := parallel.ForEach(ctx, r.workers, chunks, func(_ context.Context, _, ck int) error {
		for ci := ck * numCells / chunks; ci < (ck+1)*numCells/chunks; ci++ {
			rep := r.order[cellStart[ci]]
			p := prof[profOff[ci]:profOff[ci+1]]
			for i, w := range adj[off[rep]:off[rep+1]] {
				p[i] = r.color[w]
			}
			slices.Sort(p)
		}
		return nil
	})
	if err != nil {
		return false, err
	}
	chunks = r.workers * 4
	if chunks > n {
		chunks = n
	}
	scratch := make([][]int32, r.workers)
	err = parallel.ForEach(ctx, r.workers, chunks, func(_ context.Context, wid, ci int) error {
		buf := scratch[wid]
		for v := ci * n / chunks; v < (ci+1)*n/chunks && !bad.Load(); v++ {
			p := prof[profOff[r.color[v]]:profOff[r.color[v]+1]]
			row := adj[off[v]:off[v+1]]
			if len(row) != len(p) {
				bad.Store(true)
				return nil
			}
			buf = buf[:0]
			for _, w := range row {
				buf = append(buf, r.color[w])
			}
			slices.Sort(buf)
			for i := range buf {
				if buf[i] != p[i] {
					bad.Store(true)
					return nil
				}
			}
		}
		scratch[wid] = buf
		return nil
	})
	if err != nil {
		return false, err
	}
	return !bad.Load(), nil
}
