package ksym

import (
	"testing"

	"ksymmetry/internal/datasets"
	"ksymmetry/internal/graph"
	"ksymmetry/internal/partition"
)

func TestQuotientStar(t *testing.T) {
	g := datasets.Star(5)
	q := Quotient(g, orb(t, g))
	// Two cells (hub, leaves), one inter-cell edge, no internal edges.
	if q.Graph.N() != 2 || q.Graph.M() != 1 {
		t.Fatalf("star quotient: N=%d M=%d", q.Graph.N(), q.Graph.M())
	}
	if q.Internal[0] || q.Internal[1] {
		t.Fatal("star has no intra-cell edges")
	}
}

func TestQuotientInternalEdges(t *testing.T) {
	g := datasets.Complete(4) // single orbit with internal edges
	q := Quotient(g, orb(t, g))
	if q.Graph.N() != 1 || q.Graph.M() != 0 {
		t.Fatalf("K4 quotient: N=%d M=%d", q.Graph.N(), q.Graph.M())
	}
	if !q.Internal[0] {
		t.Fatal("K4's single cell has internal edges")
	}
}

func TestQuotientVsBackboneFig6Style(t *testing.T) {
	// Figure 6's point: isomorphic modules S1, S2 (here the two
	// edge-components of Fig7b's blue cell, attached to different
	// anchors) survive in the backbone but merge in the quotient.
	g := datasets.Fig7b()
	p := orb(t, g)
	bb := backboneOf(g, p)
	q := Quotient(g, p)
	if bb.Graph.N() != g.N() {
		t.Fatalf("backbone should preserve both modules: %d vertices", bb.Graph.N())
	}
	if q.Graph.N() >= bb.Graph.N() {
		t.Fatalf("quotient (%d vertices) should be strictly smaller than backbone (%d)",
			q.Graph.N(), bb.Graph.N())
	}
}

func TestQuotientCellOf(t *testing.T) {
	g := datasets.Fig3()
	p := orb(t, g)
	q := Quotient(g, p)
	for v := 0; v < g.N(); v++ {
		if q.CellOf[v] != p.CellIndexOf(v) {
			t.Fatal("CellOf mismatch")
		}
	}
	// Inter-orbit adjacency is preserved: v3's cell touches all others.
	deg := q.Graph.Degree(p.CellIndexOf(2))
	if deg < 2 {
		t.Fatalf("central cell quotient degree = %d", deg)
	}
}

func TestLinkDisclosureComplete(t *testing.T) {
	// K4 under its orbit partition: single cell, all pairs wired:
	// intra-cell disclosure is 1.
	g := datasets.Complete(4)
	ld := AnalyzeLinkDisclosure(g, orb(t, g))
	if ld.MaxIntraCell != 1 {
		t.Fatalf("K4 intra disclosure = %v, want 1", ld.MaxIntraCell)
	}
	if ld.MaxInterCell != 0 {
		t.Fatalf("K4 inter disclosure = %v, want 0", ld.MaxInterCell)
	}
	if ld.MeanEdgeDisclosure != 1 {
		t.Fatalf("K4 mean disclosure = %v, want 1", ld.MeanEdgeDisclosure)
	}
}

func TestLinkDisclosureStar(t *testing.T) {
	// Star: hub-leaf cell pair fully wired (every leaf attaches to the
	// hub): inter-cell disclosure 1 — identity anonymity of leaves does
	// not hide their link to the hub. This is the §5.2 observation that
	// hub links are inherently exposed.
	g := datasets.Star(4)
	ld := AnalyzeLinkDisclosure(g, orb(t, g))
	if ld.MaxInterCell != 1 {
		t.Fatalf("star inter disclosure = %v, want 1", ld.MaxInterCell)
	}
}

func TestLinkDisclosureInvariantUnderAnonymization(t *testing.T) {
	// Orbit copying preserves each cell's adjacency pattern exactly
	// (Definition 3), so the per-cell-pair link-disclosure probability
	// is invariant: anonymization protects identities without newly
	// exposing OR hiding links — the precise version of §5.2's "any
	// link in the network will be safe" remark.
	g := datasets.Fig1()
	p := orb(t, g)
	before := AnalyzeLinkDisclosure(g, p)
	res, err := Anonymize(g, p, 2)
	if err != nil {
		t.Fatal(err)
	}
	after := AnalyzeLinkDisclosure(res.Graph, res.Partition)
	if before.MaxInterCell != 1 {
		t.Fatalf("singleton-orbit links should be fully disclosed before: %v", before.MaxInterCell)
	}
	if after.MaxInterCell != before.MaxInterCell {
		t.Fatalf("max inter-cell disclosure changed: %v → %v", before.MaxInterCell, after.MaxInterCell)
	}
	if after.MaxIntraCell != before.MaxIntraCell {
		t.Fatalf("max intra-cell disclosure changed: %v → %v", before.MaxIntraCell, after.MaxIntraCell)
	}
}

func TestLinkDisclosureEmptyGraph(t *testing.T) {
	g := graph.New(3)
	ld := AnalyzeLinkDisclosure(g, partition.Unit(3))
	if ld.MaxInterCell != 0 || ld.MaxIntraCell != 0 || ld.MeanEdgeDisclosure != 0 {
		t.Fatalf("empty graph disclosure = %+v", ld)
	}
}

func TestQuotientMismatchedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("mismatched partition did not panic")
		}
	}()
	Quotient(graph.New(3), partition.Unit(2))
}
