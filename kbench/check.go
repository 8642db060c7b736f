package main

import (
	"bytes"
	"fmt"
	"os"
	"slices"
	"strconv"
)

// The checks in this file read the program's outputs with the benchmark's
// own parsers and test them with the benchmark's own code: a bug in the
// program's readers, refinement or search cannot hide a wrong release.

// csr is an undirected simple graph with sorted adjacency rows.
type csr struct {
	n   int
	off []int // row v is adj[off[v]:off[v+1]]
	adj []int32
}

func (g *csr) row(v int) []int32 { return g.adj[g.off[v]:g.off[v+1]] }

func (g *csr) edges() int { return len(g.adj) / 2 }

func (g *csr) hasEdge(u, v int) bool {
	_, ok := slices.BinarySearch(g.row(u), int32(v))
	return ok
}

// buildCSR turns an endpoint list into a csr, rejecting self-loops,
// out-of-range endpoints and repeated edges.
func buildCSR(n int, us, vs []int32) (*csr, error) {
	g := &csr{n: n, off: make([]int, n+1), adj: make([]int32, 2*len(us))}
	for i := range us {
		u, v := us[i], vs[i]
		if u < 0 || v < 0 || int(u) >= n || int(v) >= n {
			return nil, fmt.Errorf("edge %d-%d outside [0,%d)", u, v, n)
		}
		if u == v {
			return nil, fmt.Errorf("self-loop at %d", u)
		}
		g.off[u+1]++
		g.off[v+1]++
	}
	for v := 0; v < n; v++ {
		g.off[v+1] += g.off[v]
	}
	fill := slices.Clone(g.off[:n])
	for i := range us {
		u, v := us[i], vs[i]
		g.adj[fill[u]] = v
		fill[u]++
		g.adj[fill[v]] = u
		fill[v]++
	}
	for v := 0; v < n; v++ {
		r := g.row(v)
		slices.Sort(r)
		for i := 1; i < len(r); i++ {
			if r[i] == r[i-1] {
				return nil, fmt.Errorf("repeated edge %d-%d", v, r[i])
			}
		}
	}
	return g, nil
}

// lines iterates over the non-blank lines of data that do not start with
// '#', with surrounding spaces trimmed.
func lines(data []byte, f func(line []byte) error) error {
	for len(data) > 0 {
		i := bytes.IndexByte(data, '\n')
		var line []byte
		if i < 0 {
			line, data = data, nil
		} else {
			line, data = data[:i], data[i+1:]
		}
		line = bytes.TrimSpace(line)
		if len(line) == 0 || line[0] == '#' {
			continue
		}
		if err := f(line); err != nil {
			return err
		}
	}
	return nil
}

// ints parses a line of space-separated non-negative integers into dst.
func ints(line []byte, dst []int32) ([]int32, error) {
	for _, f := range bytes.Fields(line) {
		x, err := strconv.ParseInt(string(f), 10, 32)
		if err != nil || x < 0 {
			return nil, fmt.Errorf("bad integer %q", f)
		}
		dst = append(dst, int32(x))
	}
	return dst, nil
}

// edgeList accumulates the "n m" header and "u v" lines of the edge-list
// format.
type edgeList struct {
	header bool
	n, m   int
	us, vs []int32
}

func (e *edgeList) add(line []byte) error {
	f, err := ints(line, make([]int32, 0, 2))
	if err != nil {
		return err
	}
	if len(f) != 2 {
		return fmt.Errorf("edge-list line %q: want 2 fields", line)
	}
	if !e.header {
		e.header, e.n, e.m = true, int(f[0]), int(f[1])
		e.us, e.vs = make([]int32, 0, e.m), make([]int32, 0, e.m)
		return nil
	}
	e.us = append(e.us, f[0])
	e.vs = append(e.vs, f[1])
	return nil
}

func (e *edgeList) graph() (*csr, error) {
	if !e.header {
		return nil, fmt.Errorf("edge list has no header")
	}
	if len(e.us) != e.m {
		return nil, fmt.Errorf("edge list declares %d edges, has %d", e.m, len(e.us))
	}
	return buildCSR(e.n, e.us, e.vs)
}

func parseGraph(data []byte) (*csr, error) {
	var e edgeList
	if err := lines(data, e.add); err != nil {
		return nil, err
	}
	return e.graph()
}

func readGraph(path string) (*csr, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	g, err := parseGraph(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return g, nil
}

// release is a parsed release: G′, 𝒱′ and |V(G)|.
type release struct {
	origN int
	g     *csr
	// cells[i] lists the vertices of cell i; cellOf maps back.
	cells  [][]int32
	cellOf []int32
}

// parseRelease reads the release format: a "# ksymmetry-release v1"
// header comment, "%original-n n", "%graph", an edge list, "%partition",
// one cell per line, "%end".
func parseRelease(data []byte) (*release, error) {
	if !bytes.HasPrefix(data, []byte("# ksymmetry-release v1\n")) {
		return nil, fmt.Errorf("release: missing header")
	}
	rel := &release{origN: -1}
	var e edgeList
	section := "preamble"
	err := lines(data, func(line []byte) error {
		if line[0] == '%' {
			f := bytes.Fields(line)
			next := map[string]string{"preamble": "%graph", "graph": "%partition", "cells": "%end"}[section]
			switch {
			case string(f[0]) == "%original-n" && section == "preamble" && len(f) == 2 && rel.origN < 0:
				n, err := strconv.Atoi(string(f[1]))
				if err != nil || n < 1 {
					return fmt.Errorf("release: bad %q", line)
				}
				rel.origN = n
			case string(f[0]) == next && len(f) == 1:
				section = map[string]string{"%graph": "graph", "%partition": "cells", "%end": "end"}[next]
			default:
				return fmt.Errorf("release: unexpected %q in section %s", line, section)
			}
			return nil
		}
		switch section {
		case "graph":
			return e.add(line)
		case "cells":
			cell, err := ints(line, nil)
			if err != nil {
				return err
			}
			rel.cells = append(rel.cells, cell)
			return nil
		}
		return fmt.Errorf("release: line %q outside the graph and partition sections", line)
	})
	if err != nil {
		return nil, err
	}
	if section != "end" || rel.origN < 0 {
		return nil, fmt.Errorf("release: truncated (ends in section %s)", section)
	}
	if rel.g, err = e.graph(); err != nil {
		return nil, fmt.Errorf("release graph: %w", err)
	}
	if rel.origN > rel.g.n {
		return nil, fmt.Errorf("release: |V(G)| = %d exceeds |V(G′)| = %d", rel.origN, rel.g.n)
	}
	rel.cellOf = make([]int32, rel.g.n)
	for i := range rel.cellOf {
		rel.cellOf[i] = -1
	}
	for i, cell := range rel.cells {
		for _, v := range cell {
			if int(v) >= rel.g.n || rel.cellOf[v] >= 0 {
				return nil, fmt.Errorf("release: vertex %d out of range or in two cells", v)
			}
			rel.cellOf[v] = int32(i)
		}
	}
	for v, c := range rel.cellOf {
		if c < 0 {
			return nil, fmt.Errorf("release: vertex %d is in no cell", v)
		}
	}
	return rel, nil
}

func readRelease(path string) (*release, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return parseRelease(data)
}

// verticesAdded is the anonymization cost |V(G′)| − |V(G)|.
func (r *release) verticesAdded() int { return r.g.n - r.origN }

// checkCellSizes: every cell of 𝒱′ has at least k vertices.
func checkCellSizes(r *release, k int) error {
	for i, c := range r.cells {
		if len(c) < k {
			return fmt.Errorf("cell %d has %d vertices, k = %d", i, len(c), k)
		}
	}
	return nil
}

// checkCopies: a cell whose original part O has |O| < k holds exactly
// ⌈k/|O|⌉ copies of O (Lemma 2: each orbit copy adds |O| vertices, and
// Algorithm 1 stops at the first size ≥ k); a cell with |O| ≥ k has no
// copies. A cell with no original vertex cannot come from Algorithm 1.
func checkCopies(r *release, k int) error {
	for i, c := range r.cells {
		o := 0
		for _, v := range c {
			if int(v) < r.origN {
				o++
			}
		}
		want := o
		if o < k && o > 0 {
			want = o * ((k + o - 1) / o)
		}
		if o == 0 || len(c) != want {
			return fmt.Errorf("cell %d has %d vertices with %d original, want %d", i, len(c), o, want)
		}
	}
	return nil
}

// checkOriginalEdges: G′ restricted to [0, n) has exactly G's edge set.
func checkOriginalEdges(r *release, g *csr) error {
	if r.origN != g.n {
		return fmt.Errorf("release says |V(G)| = %d, input has %d vertices", r.origN, g.n)
	}
	for v := 0; v < g.n; v++ {
		row := r.g.row(v)
		end, _ := slices.BinarySearch(row, int32(g.n))
		if !slices.Equal(row[:end], g.row(v)) {
			return fmt.Errorf("original vertex %d: neighbours among originals %v, input has %v", v, row[:end], g.row(v))
		}
	}
	return nil
}

// checkEquitable: every two vertices of one cell have the same number of
// neighbours in each cell.
func checkEquitable(r *release) error {
	rep := make([]int32, 0, 64)
	cur := make([]int32, 0, 64)
	for i, c := range r.cells {
		rep = neighbourCells(r, int(c[0]), rep[:0])
		for _, v := range c[1:] {
			cur = neighbourCells(r, int(v), cur[:0])
			if !slices.Equal(rep, cur) {
				return fmt.Errorf("cell %d is not equitable: vertices %d and %d differ in neighbour cells", i, c[0], v)
			}
		}
	}
	return nil
}

// neighbourCells returns the sorted multiset of the cells of v's
// neighbours.
func neighbourCells(r *release, v int, dst []int32) []int32 {
	for _, u := range r.g.row(v) {
		dst = append(dst, r.cellOf[u])
	}
	slices.Sort(dst)
	return dst
}

// originalLabels restricts 𝒱′ to [0, n) and labels each original vertex
// with its cell, canonically (cells numbered by first vertex).
func (r *release) originalLabels() []int32 {
	return canonical(r.cellOf[:r.origN])
}

// canonical relabels a vertex colouring so that colours are numbered in
// order of their first vertex: two colourings give the same partition
// exactly when their canonical forms are equal.
func canonical(colour []int32) []int32 {
	top := int32(0)
	for _, c := range colour {
		top = max(top, c)
	}
	ids := make([]int32, top+1)
	for i := range ids {
		ids[i] = -1
	}
	out := make([]int32, len(colour))
	next := int32(0)
	for v, c := range colour {
		if ids[c] < 0 {
			ids[c] = next
			next++
		}
		out[v] = ids[c]
	}
	return out
}

// samePartition compares two canonical colourings and names the first
// vertex where they disagree.
func samePartition(a, b []int32, what string) error {
	if len(a) != len(b) {
		return fmt.Errorf("%s: partitions of %d and %d vertices", what, len(a), len(b))
	}
	for v := range a {
		if a[v] != b[v] {
			return fmt.Errorf("%s: partitions differ first at vertex %d", what, v)
		}
	}
	return nil
}

// coarsestEquitable computes the coarsest equitable partition of g by
// naive colour refinement from the unit partition: each round gives every
// vertex the colour of (its colour, the sorted colours of its neighbours),
// until the number of colours stops growing. The result is canonical.
func coarsestEquitable(g *csr) []int32 {
	colour := make([]int32, g.n)
	next := make([]int32, g.n)
	sig := make([]int32, len(g.adj))
	order := make([]int32, g.n)
	for v := range order {
		order[v] = int32(v)
	}
	colours := 1
	for {
		for v := 0; v < g.n; v++ {
			s := sig[g.off[v]:g.off[v+1]]
			for i, u := range g.row(v) {
				s[i] = colour[u]
			}
			slices.Sort(s)
		}
		cmp := func(a, b int32) int {
			if c := colour[a] - colour[b]; c != 0 {
				return int(c)
			}
			return slices.Compare(sig[g.off[a]:g.off[a+1]], sig[g.off[b]:g.off[b+1]])
		}
		slices.SortFunc(order, cmp)
		n := int32(0)
		for i, v := range order {
			if i > 0 && cmp(order[i-1], v) != 0 {
				n++
			}
			next[v] = n
		}
		colour, next = next, colour
		if int(n)+1 == colours {
			return canonical(colour)
		}
		colours = int(n) + 1
	}
}

// checkTDV: on the 𝒯𝒟𝒱 rung, 𝒱′ ∩ [0, n) is the coarsest equitable
// partition of G. want is coarsestEquitable(G).
func checkTDV(r *release, want []int32) error {
	return samePartition(r.originalLabels(), want, "𝒱′ ∩ [0,n) against the coarsest equitable partition of G")
}

// checkGenerators: every generator is a permutation of [0, n) that maps
// G's edge set onto itself, and the orbits of the group they generate
// (union-find over all generators) are exactly the cells in labels, a
// canonical colouring.
func checkGenerators(g *csr, gens [][]int, labels []int32) error {
	parent := make([]int, g.n)
	for v := range parent {
		parent[v] = v
	}
	var find func(int) int
	find = func(v int) int {
		for parent[v] != v {
			parent[v] = parent[parent[v]]
			v = parent[v]
		}
		return v
	}
	seen := make([]bool, g.n)
	for i, p := range gens {
		if len(p) != g.n {
			return fmt.Errorf("generator %d has degree %d, graph has %d vertices", i, len(p), g.n)
		}
		clear(seen)
		for _, w := range p {
			if w < 0 || w >= g.n || seen[w] {
				return fmt.Errorf("generator %d is not a permutation", i)
			}
			seen[w] = true
		}
		for u := 0; u < g.n; u++ {
			for _, v := range g.row(u) {
				if !g.hasEdge(p[u], p[v]) {
					return fmt.Errorf("generator %d maps edge %d-%d to non-edge %d-%d", i, u, v, p[u], p[v])
				}
			}
			if a, b := find(u), find(p[u]); a != b {
				parent[a] = b
			}
		}
	}
	orbits := make([]int32, g.n)
	for v := range orbits {
		orbits[v] = int32(find(v))
	}
	return samePartition(canonical(orbits), labels, "orbits of the generators against the cells")
}

// checkSample: a sample has |V(G)| vertices; when every input cell is a
// singleton and k = 2 it has G's degree sequence, since any transversal
// of G′ then induces a copy of G.
func checkSample(s *csr, r *release, k int, degrees []int) error {
	if s.n != r.origN {
		return fmt.Errorf("sample has %d vertices, |V(G)| = %d", s.n, r.origN)
	}
	if k != 2 || r.g.n != 2*r.origN {
		return nil
	}
	got := make([]int, s.n)
	for v := range got {
		got[v] = len(s.row(v))
	}
	slices.Sort(got)
	if !slices.Equal(got, degrees) {
		return fmt.Errorf("sample degree sequence differs from G's")
	}
	return nil
}

// sortedDegrees returns g's degree sequence in increasing order.
func sortedDegrees(g *csr) []int {
	d := make([]int, g.n)
	for v := range d {
		d[v] = len(g.row(v))
	}
	slices.Sort(d)
	return d
}

// checkRelease runs the checks every release must pass against its input
// G and k.
func checkRelease(r *release, g *csr, k int) error {
	for _, check := range []func() error{
		func() error { return checkCellSizes(r, k) },
		func() error { return checkCopies(r, k) },
		func() error { return checkOriginalEdges(r, g) },
		func() error { return checkEquitable(r) },
	} {
		if err := check(); err != nil {
			return err
		}
	}
	return nil
}
