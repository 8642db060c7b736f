package automorphism

import (
	"context"
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"ksymmetry/internal/graph"
)

// certificate returns the certificate half of CanonicalFormCtx.
func certificate(g *graph.Graph, maxLeaves int) (string, error) {
	_, cert, err := CanonicalFormCtx(context.Background(), g, maxLeaves)
	return cert, err
}

func TestCertificateInvariantUnderRelabel(t *testing.T) {
	f := func(seed int64) bool {
		g := randomGraph(14, 0.3, seed)
		perm := rand.New(rand.NewSource(seed + 5)).Perm(g.N())
		h := g.Permute(perm)
		ca, err1 := certificate(g, 0)
		cb, err2 := certificate(h, 0)
		return err1 == nil && err2 == nil && ca == cb
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestCertificateSeparatesNonIsomorphic(t *testing.T) {
	twoTriangles := graph.New(6)
	for _, e := range [][2]int{{0, 1}, {1, 2}, {2, 0}, {3, 4}, {4, 5}, {5, 3}} {
		twoTriangles.AddEdge(e[0], e[1])
	}
	k33 := graph.New(6)
	for i := 0; i < 3; i++ {
		for j := 3; j < 6; j++ {
			k33.AddEdge(i, j)
		}
	}
	prism := graph.New(6)
	for _, e := range [][2]int{{0, 1}, {1, 2}, {2, 0}, {3, 4}, {4, 5}, {5, 3}, {0, 3}, {1, 4}, {2, 5}} {
		prism.AddEdge(e[0], e[1])
	}
	pairs := []struct {
		name string
		a, b *graph.Graph
	}{
		{"C6 vs 2K3", cycle(6), twoTriangles},
		{"K33 vs prism", k33, prism},
		{"star vs path", star(3), pathGraph(4)},
	}
	for _, p := range pairs {
		ca, err := certificate(p.a, 0)
		if err != nil {
			t.Fatalf("%s: %v", p.name, err)
		}
		cb, err := certificate(p.b, 0)
		if err != nil {
			t.Fatalf("%s: %v", p.name, err)
		}
		if ca == cb {
			t.Errorf("%s: certificates collide for non-isomorphic graphs", p.name)
		}
	}
}

func TestCertificateMatchesIsomorphicSearch(t *testing.T) {
	// Cross-validate certificate equality against the backtracking
	// isomorphism test on random pairs.
	f := func(seed int64) bool {
		a := randomGraph(10, 0.3, seed)
		b := randomGraph(10, 0.3, seed+1000)
		_, isoSearch := graph.Isomorphic(a, b)
		ca, err1 := certificate(a, 0)
		cb, err2 := certificate(b, 0)
		return err1 == nil && err2 == nil && isoSearch == (ca == cb)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestCanonicalFormPermutation(t *testing.T) {
	g := petersen()
	perm, cert, err := CanonicalFormCtx(context.Background(), g, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !perm.IsValid() {
		t.Fatal("canonical labeling is not a permutation")
	}
	// Relabeling by the canonical permutation must not change the
	// certificate (it's the same isomorphism class).
	cert2, err := certificate(g.Permute(perm), 0)
	if err != nil {
		t.Fatal(err)
	}
	if cert != cert2 {
		t.Fatal("certificate changed after canonical relabeling")
	}
}

func TestCanonicalTwinHeavyGraphsCheap(t *testing.T) {
	// Stars and cliques have factorial leaf sets without the twin cut;
	// with it they are linear. A tiny budget must suffice.
	for _, g := range []*graph.Graph{star(30), complete(12)} {
		if _, err := certificate(g, 64); err != nil {
			t.Fatalf("twin cut failed to bound the search: %v", err)
		}
	}
}

func TestCanonicalBudget(t *testing.T) {
	_, err := certificate(cycle(8), 1)
	if !errors.Is(err, ErrCanonicalBudget) {
		t.Fatalf("err = %v, want ErrCanonicalBudget", err)
	}
}

func TestCanonicalEmptyAndSingle(t *testing.T) {
	if _, err := certificate(graph.New(0), 0); err != nil {
		t.Fatal(err)
	}
	c1, err := certificate(graph.New(1), 0)
	if err != nil {
		t.Fatal(err)
	}
	c2, err := certificate(graph.New(1), 0)
	if err != nil || c1 != c2 {
		t.Fatal("single-vertex certificates must agree")
	}
}

func TestCertificateDistinguishesEdgeCounts(t *testing.T) {
	a, _ := certificate(pathGraph(4), 0)
	b, _ := certificate(cycle(4), 0)
	if a == b {
		t.Fatal("P4 and C4 certificates collide")
	}
}

// The branch scan calls sameNeighborhood for every (listed, candidate)
// pair of the target cell — about 500k times at the root of
// Cycle(1000) — so a pair that falls through to the closed-
// neighborhood check must not allocate.
func TestSameNeighborhoodClosedCheckAllocs(t *testing.T) {
	paw := pathGraph(4) // 0-1-2-3 plus 0-2: N[0] = N[1] = {0,1,2}
	paw.AddEdge(0, 2)
	cases := []struct {
		g    *graph.Graph
		u, v int
		want bool
	}{
		{paw, 0, 1, true},       // closed twins, open neighborhoods differ
		{cycle(5), 0, 1, false}, // equal degree, neither relation holds
	}
	for _, c := range cases {
		if got := sameNeighborhood(c.g, c.u, c.v); got != c.want {
			t.Fatalf("sameNeighborhood(%d,%d) = %v, want %v", c.u, c.v, got, c.want)
		}
		if a := testing.AllocsPerRun(100, func() { sameNeighborhood(c.g, c.u, c.v) }); a != 0 {
			t.Fatalf("sameNeighborhood(%d,%d) allocates %v times per call, want 0", c.u, c.v, a)
		}
	}
}
