package ksym_test

import (
	"context"
	"fmt"

	"ksymmetry/internal/automorphism"
	"ksymmetry/internal/datasets"
	"ksymmetry/internal/ksym"
)

// Orbit copying duplicates one orbit while preserving its adjacency
// pattern to every other orbit (Definition 3).
func ExampleOrbitCopy() {
	g := datasets.Fig3()
	orb, _, _ := automorphism.OrbitPartition(g, nil)
	h, p := ksym.OrbitCopy(g, orb, orb.CellIndexOf(3)) // copy V3 = {v4,v5}
	fmt.Printf("%d → %d vertices\n", g.N(), h.N())
	fmt.Printf("union cell: %v\n", p.CellOfVertex(3))
	// Output:
	// 8 → 10 vertices
	// union cell: [3 4 8 9]
}

// The backbone collapses orbit copies back out of a graph (Algorithm 2).
func ExampleBackboneWorkersCtx() {
	g := datasets.Fig3()
	orb, _, _ := automorphism.OrbitPartition(g, nil)
	res, _ := ksym.Anonymize(g, orb, 3)
	bb, _ := ksym.BackboneWorkersCtx(context.Background(), res.Graph, res.Partition, 1)
	fmt.Printf("anonymized %d vertices → backbone %d vertices\n", res.Graph.N(), bb.Graph.N())
	// Output:
	// anonymized 18 vertices → backbone 7 vertices
}
