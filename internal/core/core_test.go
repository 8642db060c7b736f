package core

import (
	"testing"

	"ksymmetry/internal/datasets"
	"ksymmetry/internal/sampling"
)

// TestPipeline exercises the full publish/recover pipeline through the
// core facade: orbits → anonymize → sample.
func TestPipeline(t *testing.T) {
	g := datasets.Fig3()
	orb, gens, err := OrbitPartition(g, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(gens) == 0 {
		t.Fatal("Fig3 has non-trivial automorphisms")
	}
	res, err := Anonymize(g, orb, 3)
	if err != nil {
		t.Fatal(err)
	}
	after, _, err := OrbitPartition(res.Graph, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !IsKSymmetric(after, 3) {
		t.Fatal("anonymized graph not 3-symmetric")
	}
	for _, m := range []Sampler{sampling.SamplerApproximate, sampling.SamplerExact} {
		ss, err := SampleBatch(res.Graph, res.Partition, g.N(), 2, &SamplingOptions{Seed: 1, Method: m})
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range ss {
			if s.N() < g.N() {
				t.Fatalf("method %d: sample size %d, want ≥ %d", m, s.N(), g.N())
			}
		}
	}
	excl, err := AnonymizeF(g, orb, func(cell []int) int { return 1 })
	if err != nil {
		t.Fatal(err)
	}
	if excl.VerticesAdded() != 0 {
		t.Fatal("target 1 must be a no-op")
	}
}
