// Package partition implements vertex partitions: the automorphism
// partition Orb(G), sub-automorphism partitions (EDBT 2010, Def. 2), and
// the measure-induced partitions 𝒱_f of §2.2 are all represented by the
// Partition type. Cells are sorted vertex sets; the cell list is ordered
// by smallest member so that equal partitions have equal representations.
package partition

import (
	"fmt"
	"sort"
)

// Partition is a partition of the vertex set {0,...,n-1} into disjoint
// non-empty cells.
type Partition struct {
	cells  [][]int
	cellOf []int
}

// FromCells builds a partition of {0..n-1} from the given cells. The
// cells must be disjoint, non-empty, within range, and cover all n
// vertices; otherwise an error is returned. Cell contents are copied.
func FromCells(n int, cells [][]int) (*Partition, error) {
	cellOf := make([]int, n)
	for i := range cellOf {
		cellOf[i] = -1
	}
	for ci, cell := range cells {
		if len(cell) == 0 {
			return nil, fmt.Errorf("partition: cell %d is empty", ci)
		}
		for _, v := range cell {
			if v < 0 || v >= n {
				return nil, fmt.Errorf("partition: vertex %d out of range [0,%d)", v, n)
			}
			if cellOf[v] != -1 {
				return nil, fmt.Errorf("partition: vertex %d appears in cells %d and %d", v, cellOf[v], ci)
			}
			cellOf[v] = ci
		}
	}
	for v, c := range cellOf {
		if c == -1 {
			return nil, fmt.Errorf("partition: vertex %d not covered", v)
		}
	}
	return FromCellOf(cellOf), nil
}

// MustFromCells is FromCells that panics on invalid input; for literals
// in tests and examples.
func MustFromCells(n int, cells [][]int) *Partition {
	p, err := FromCells(n, cells)
	if err != nil {
		panic(err)
	}
	return p
}

// FromCellOf builds a partition from a cell-id-per-vertex vector. Cell
// ids may be arbitrary ints; they are renumbered canonically (cells
// ordered by smallest member).
func FromCellOf(cellOf []int) *Partition {
	byID := map[int][]int{}
	for v, c := range cellOf {
		byID[c] = append(byID[c], v)
	}
	cells := make([][]int, 0, len(byID))
	for _, cell := range byID {
		sort.Ints(cell)
		cells = append(cells, cell)
	}
	sort.Slice(cells, func(i, j int) bool { return cells[i][0] < cells[j][0] })
	canon := make([]int, len(cellOf))
	for ci, cell := range cells {
		for _, v := range cell {
			canon[v] = ci
		}
	}
	return &Partition{cells: cells, cellOf: canon}
}

// FromCellOfDense is FromCellOf for the common case of dense cell ids
// 0..numCells-1: it renumbers canonically (cells ordered by smallest
// member) without the map and per-cell sorts of the general path, which
// matters on the refinement hot path. Ids outside [0, numCells) panic.
func FromCellOfDense(cellOf []int, numCells int) *Partition {
	sizes := make([]int, numCells)
	remap := make([]int, numCells)
	for i := range remap {
		remap[i] = -1
	}
	// Scanning vertices in ascending order keeps every cell sorted and
	// orders cells by smallest member, matching FromCellOf.
	order := make([]int, 0, numCells)
	for _, c := range cellOf {
		if remap[c] == -1 {
			remap[c] = len(order)
			order = append(order, c)
		}
		sizes[c]++
	}
	buf := make([]int, len(cellOf)) // one backing array for all cells
	cells := make([][]int, len(order))
	off := 0
	for ci, c := range order {
		cells[ci] = buf[off : off : off+sizes[c]]
		off += sizes[c]
	}
	canon := make([]int, len(cellOf))
	for v, c := range cellOf {
		ci := remap[c]
		cells[ci] = append(cells[ci], v)
		canon[v] = ci
	}
	return &Partition{cells: cells, cellOf: canon}
}

// Unit returns the single-cell partition {{0..n-1}} (for n > 0).
func Unit(n int) *Partition {
	cell := make([]int, n)
	for i := range cell {
		cell[i] = i
	}
	return &Partition{cells: [][]int{cell}, cellOf: make([]int, n)}
}

// Discrete returns the all-singletons partition.
func Discrete(n int) *Partition {
	cells := make([][]int, n)
	cellOf := make([]int, n)
	for i := 0; i < n; i++ {
		cells[i] = []int{i}
		cellOf[i] = i
	}
	return &Partition{cells: cells, cellOf: cellOf}
}

// Validate checks that p is a well-formed partition of exactly the
// vertex set {0..n-1}: every cell non-empty and in range, no vertex in
// two cells, every vertex covered, and the cell index consistent with
// the cell lists. The package's constructors enforce all of this, but
// partitions also arrive from files (ReadFile) and from callers holding
// the exposed cell slices, and anonymization with a corrupt partition
// silently produces a corrupt graph — so boundary APIs
// (ksym.AnonymizeFCtx and friends) validate before copying.
func (p *Partition) Validate(n int) error {
	if p == nil {
		return fmt.Errorf("partition: nil partition")
	}
	if len(p.cellOf) != n {
		return fmt.Errorf("partition: covers %d vertices, want %d", len(p.cellOf), n)
	}
	seen := make([]bool, n)
	covered := 0
	for ci, cell := range p.cells {
		if len(cell) == 0 {
			return fmt.Errorf("partition: cell %d is empty", ci)
		}
		for _, v := range cell {
			if v < 0 || v >= n {
				return fmt.Errorf("partition: cell %d contains vertex %d, outside [0,%d)", ci, v, n)
			}
			if seen[v] {
				return fmt.Errorf("partition: vertex %d appears in two cells", v)
			}
			seen[v] = true
			if p.cellOf[v] != ci {
				return fmt.Errorf("partition: vertex %d listed in cell %d but indexed to cell %d", v, ci, p.cellOf[v])
			}
			covered++
		}
	}
	if covered != n {
		for v, ok := range seen {
			if !ok {
				return fmt.Errorf("partition: vertex %d not covered by any cell", v)
			}
		}
	}
	return nil
}

// N returns the number of vertices partitioned.
func (p *Partition) N() int { return len(p.cellOf) }

// NumCells returns the number of cells.
func (p *Partition) NumCells() int { return len(p.cells) }

// Cell returns cell i (sorted ascending). The slice is owned by the
// partition and must not be modified.
func (p *Partition) Cell(i int) []int { return p.cells[i] }

// Cells returns all cells. The slices are owned by the partition.
func (p *Partition) Cells() [][]int { return p.cells }

// CellIndexOf returns the index of the cell containing v.
func (p *Partition) CellIndexOf(v int) int { return p.cellOf[v] }

// CellOfVertex returns the cell containing v.
func (p *Partition) CellOfVertex(v int) []int { return p.cells[p.cellOf[v]] }

// Clone returns a deep copy.
func (p *Partition) Clone() *Partition {
	cells := make([][]int, len(p.cells))
	for i, c := range p.cells {
		cells[i] = append([]int(nil), c...)
	}
	return &Partition{cells: cells, cellOf: append([]int(nil), p.cellOf...)}
}

// Equal reports whether p and q group vertices identically.
func (p *Partition) Equal(q *Partition) bool {
	if p.N() != q.N() || p.NumCells() != q.NumCells() {
		return false
	}
	// Canonical numbering makes cellOf directly comparable.
	for v := range p.cellOf {
		if p.cellOf[v] != q.cellOf[v] {
			return false
		}
	}
	return true
}

// IsFinerThan reports whether every cell of p is contained in some cell
// of q (p refines q; equality counts as finer).
func (p *Partition) IsFinerThan(q *Partition) bool {
	if p.N() != q.N() {
		return false
	}
	for _, cell := range p.cells {
		qc := q.cellOf[cell[0]]
		for _, v := range cell[1:] {
			if q.cellOf[v] != qc {
				return false
			}
		}
	}
	return true
}

// MinCellSize returns the size of the smallest cell (0 for an empty
// partition). A graph is k-symmetric iff MinCellSize of Orb(G) ≥ k
// (Def. 1).
func (p *Partition) MinCellSize() int {
	if len(p.cells) == 0 {
		return 0
	}
	min := len(p.cells[0])
	for _, c := range p.cells[1:] {
		if len(c) < min {
			min = len(c)
		}
	}
	return min
}

// SingletonCount returns the number of size-1 cells. Vertices in
// singleton orbits are uniquely re-identifiable (§2.1).
func (p *Partition) SingletonCount() int {
	n := 0
	for _, c := range p.cells {
		if len(c) == 1 {
			n++
		}
	}
	return n
}

// IsDiscrete reports whether every cell is a singleton.
func (p *Partition) IsDiscrete() bool { return len(p.cells) == len(p.cellOf) }

// IsStabilizedBy reports whether the permutation perm maps p onto
// itself as a set of cells (𝒱^g = 𝒱 in Def. 2). perm must have length
// p.N().
func (p *Partition) IsStabilizedBy(perm []int) bool {
	if len(perm) != p.N() {
		panic("partition: permutation length mismatch")
	}
	for _, cell := range p.cells {
		target := p.cellOf[perm[cell[0]]]
		if len(p.cells[target]) != len(cell) {
			return false
		}
		for _, v := range cell[1:] {
			if p.cellOf[perm[v]] != target {
				return false
			}
		}
	}
	return true
}

// BySignature groups vertices 0..n-1 by the string key sig(v). It is
// the partition 𝒱_f induced by a structural measure f (§2.2).
func BySignature(n int, sig func(v int) string) *Partition {
	id := map[string]int{}
	cellOf := make([]int, n)
	for v := 0; v < n; v++ {
		s := sig(v)
		c, ok := id[s]
		if !ok {
			c = len(id)
			id[s] = c
		}
		cellOf[v] = c
	}
	return FromCellOf(cellOf)
}

// CommonRefinement returns the coarsest partition finer than both p and
// q (cells are intersections of p-cells with q-cells).
func CommonRefinement(p, q *Partition) *Partition {
	if p.N() != q.N() {
		panic("partition: size mismatch")
	}
	type key struct{ a, b int }
	id := map[key]int{}
	cellOf := make([]int, p.N())
	for v := 0; v < p.N(); v++ {
		k := key{p.cellOf[v], q.cellOf[v]}
		c, ok := id[k]
		if !ok {
			c = len(id)
			id[k] = c
		}
		cellOf[v] = c
	}
	return FromCellOf(cellOf)
}

// String renders the partition as {{0,1},{2},...} for diagnostics.
func (p *Partition) String() string {
	s := "{"
	for i, c := range p.cells {
		if i > 0 {
			s += ","
		}
		s += fmt.Sprintf("%v", c)
	}
	return s + "}"
}
