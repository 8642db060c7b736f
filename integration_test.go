package ksymmetry

// Cross-package integration tests: the complete publisher→analyst
// workflow through the on-disk release format, and end-to-end privacy/
// utility guarantees on a real-scale network.

import (
	"context"
	"path/filepath"
	"testing"

	"ksymmetry/internal/automorphism"
	"ksymmetry/internal/datasets"
	"ksymmetry/internal/graph"
	"ksymmetry/internal/knowledge"
	"ksymmetry/internal/ksym"
	"ksymmetry/internal/publish"
	"ksymmetry/internal/sampling"
	"ksymmetry/internal/stats"
)

func TestEndToEndPublishRecover(t *testing.T) {
	// Publisher: anonymize the Enron stand-in and write a release file.
	g := datasets.Enron(datasets.DefaultSeed)
	orb, _, err := automorphism.OrbitPartition(g, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := ksym.Anonymize(g, orb, 5)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "enron.ksym")
	if err := publish.FromResult(res).WriteFile(path); err != nil {
		t.Fatal(err)
	}

	// Analyst: load the release, verify privacy, recover utility.
	rel, err := publish.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	// Privacy: no measure uniquely identifies anyone, and the anonymity
	// level under every measure is at least k.
	for _, m := range []knowledge.Measure{
		knowledge.Degree{},
		knowledge.NeighborDegreeSeq{},
		knowledge.Triangles{},
		knowledge.NewCombined(),
	} {
		if rate := knowledge.UniqueRate(rel.Graph, m); rate != 0 {
			t.Errorf("measure %s unique rate %.3f on published graph", m.Name(), rate)
		}
		if lvl := knowledge.AnonymityLevel(rel.Graph, m); lvl < 5 {
			t.Errorf("measure %s anonymity level %d < 5", m.Name(), lvl)
		}
	}

	// Utility: pooled samples track the original degree distribution.
	samples, err := sampling.Batch(rel.Graph, rel.Partition, rel.OriginalN, 10, &sampling.Options{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	var degS []stats.Sample
	for _, s := range samples {
		if s.N() != g.N() {
			t.Fatalf("sample size %d, want %d", s.N(), g.N())
		}
		degS = append(degS, stats.DegreeSample(graph.NewCSR(s)))
	}
	ks := stats.KolmogorovSmirnov(stats.DegreeSample(graph.NewCSR(g)), stats.Merge(degS))
	if ks > 0.25 {
		t.Errorf("degree KS = %.3f, expected close recovery", ks)
	}
}

func TestEndToEndDiameterPreserved(t *testing.T) {
	// The [15] skeleton story end-to-end: sampled graphs keep the
	// original's diameter within a factor of 2.
	g := datasets.Enron(datasets.DefaultSeed)
	orig := stats.Diameter(g)
	if orig <= 0 {
		t.Fatal("stand-in should be connected")
	}
	orb, _, err := automorphism.OrbitPartition(g, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := ksym.Anonymize(g, orb, 5)
	if err != nil {
		t.Fatal(err)
	}
	within := 0
	const trials = 10
	samples, err := sampling.Batch(res.Graph, res.Partition, g.N(), trials, &sampling.Options{Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range samples {
		d := stats.Diameter(s)
		if d > 0 && d >= orig/2 && d <= 2*orig {
			within++
		}
	}
	if within < trials/2 {
		t.Errorf("only %d/%d samples kept diameter within 2× of %d", within, trials, orig)
	}
}

func TestEndToEndMinimalAndHubExclusionCompose(t *testing.T) {
	// §5.1 + §5.2 combined: backbone-minimal anonymization with hub
	// exclusion still yields ≥k anonymity for the protected measures'
	// non-hub vertices and costs less than either alone on a hub-heavy
	// graph.
	g := datasets.NetTrace(datasets.DefaultSeed)
	orb, _, err := automorphism.OrbitPartition(g, nil)
	if err != nil {
		t.Fatal(err)
	}
	full, err := ksym.Anonymize(g, orb, 5)
	if err != nil {
		t.Fatal(err)
	}
	combined, err := ksym.MinimalAnonymizeFCtx(context.Background(), g, orb, ksym.TopFractionTarget(g, 5, 0.02))
	if err != nil {
		t.Fatal(err)
	}
	if combined.EdgesAdded() >= full.EdgesAdded() {
		t.Errorf("combined strategy cost %d ≥ plain %d", combined.EdgesAdded(), full.EdgesAdded())
	}
}
