package ksymmetry

// The BENCH_graph.json ladder: TDV-rung anonymization (freeze CSR →
// 𝒯𝒟𝒱 refinement → k=2 anonymization) on the 300k/1M/3M synthetic
// tiers. Under -short only the 300k tiers run — that is the CI smoke
// configuration; the full ladder is recorded in BENCH_graph.json.

import (
	"context"
	"fmt"
	"testing"

	"ksymmetry/internal/datasets"
	"ksymmetry/internal/graph"
	"ksymmetry/internal/ksym"
	"ksymmetry/internal/refine"
)

func BenchmarkScaleTDVAnonymize(b *testing.B) {
	for _, model := range datasets.ScaleModels() {
		for _, tier := range datasets.ScaleTiers() {
			model, tier := model, tier
			b.Run(fmt.Sprintf("%s-%s", model, tier.Name), func(b *testing.B) {
				if testing.Short() && tier.N > 300_000 {
					b.Skipf("tier %s skipped under -short", tier.Name)
				}
				g := datasets.ScaleGraph(model, tier.N, datasets.DefaultSeed)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					c := graph.NewCSR(g)
					tdv, err := refine.TotalDegreePartitionWorkersCSRCtx(context.Background(), c, 1)
					if err != nil {
						b.Fatal(err)
					}
					res, err := ksym.Anonymize(g, tdv, 2)
					if err != nil {
						b.Fatal(err)
					}
					if res.Graph.N() < g.N() {
						b.Fatalf("anonymized graph shrank: %d < %d", res.Graph.N(), g.N())
					}
				}
			})
		}
	}
}

// BenchmarkScaleGenerate isolates the generator + CSR freeze cost at
// each tier, the part the trimEdges/BarabasiAlbert/ErdosRenyiGM
// hot-loop fixes target.
func BenchmarkScaleGenerate(b *testing.B) {
	for _, model := range datasets.ScaleModels() {
		for _, tier := range datasets.ScaleTiers() {
			model, tier := model, tier
			b.Run(fmt.Sprintf("%s-%s", model, tier.Name), func(b *testing.B) {
				if testing.Short() && tier.N > 300_000 {
					b.Skipf("tier %s skipped under -short", tier.Name)
				}
				for i := 0; i < b.N; i++ {
					g := datasets.ScaleGraph(model, tier.N, datasets.DefaultSeed)
					c := graph.NewCSR(g)
					if c.N() != tier.N {
						b.Fatalf("generated %d vertices, want %d", c.N(), tier.N)
					}
				}
			})
		}
	}
}
