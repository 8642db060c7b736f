package sampling

import (
	"context"
	"math/rand"
	"testing"

	"ksymmetry/internal/datasets"
	"ksymmetry/internal/faulttest"
	"ksymmetry/internal/graph"
	"ksymmetry/internal/ksym"
	"ksymmetry/internal/refine"
)

func TestCancelExactSampler(t *testing.T) {
	// Exact sampling starts with backbone detection, whose per-cell
	// poll fires immediately on a dead context.
	g := datasets.Path(2000)
	p := refine.TotalDegreePartition(g)
	res, err := ksym.Anonymize(g, p, 20)
	if err != nil {
		t.Fatal(err)
	}
	probs := InverseDegreeProbabilities(res.Graph, res.Partition)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	errc := make(chan error, 1)
	go func() {
		_, err := exact(ctx, res.Graph, res.Partition, g.N(), probs, rand.New(rand.NewSource(1)))
		errc <- err
	}()
	faulttest.ExpectErr(t, errc, context.Canceled)
}

func TestCancelApproximateSampler(t *testing.T) {
	// The DFS polls every ~4096 steps; a graph with ≫4096 traversal
	// steps must notice a pre-cancelled context partway through.
	g := datasets.ErdosRenyiGM(50000, 150000, 7)
	p := refine.TotalDegreePartition(g)
	c, probs := graph.NewCSR(g), InverseDegreeProbabilities(g, p)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	base := faulttest.Goroutines()
	errc := make(chan error, 1)
	go func() {
		_, err := approximate(ctx, c, p, g.N(), probs, rand.New(rand.NewSource(2)))
		errc <- err
	}()
	faulttest.ExpectErr(t, errc, context.Canceled)
	faulttest.AssertNoLeak(t, base)
}
