package sampling

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"ksymmetry/internal/datasets"
	"ksymmetry/internal/graph"
	"ksymmetry/internal/ksym"
	"ksymmetry/internal/refine"
)

// benchPair builds an anonymized (G′,𝒱′) pair sized so one approximate
// sample costs enough for pool overheads to be visible but a full
// batch still fits a bench iteration.
func benchPair(b *testing.B) (n int, gp *ksym.Result) {
	b.Helper()
	g := datasets.ErdosRenyiGM(3000, 9000, 17)
	p := refine.TotalDegreePartition(g)
	res, err := ksym.Anonymize(g, p, 5)
	if err != nil {
		b.Fatal(err)
	}
	return g.N(), res
}

// BenchmarkSamplingBatch measures the deterministic batch sampler at
// several worker counts against the serial per-sample loop it
// replaces. BENCH_sampling.json records a representative run.
func BenchmarkSamplingBatch(b *testing.B) {
	n, res := benchPair(b)
	const count = 32
	b.Run("serial-loop", func(b *testing.B) {
		ctx, probs := context.Background(), InverseDegreeProbabilities(res.Graph, res.Partition)
		for i := 0; i < b.N; i++ {
			rng := rand.New(rand.NewSource(1))
			for s := 0; s < count; s++ {
				if _, err := approximate(ctx, graph.NewCSR(res.Graph), res.Partition, n, probs, rng); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("batch-workers-%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := Batch(res.Graph, res.Partition, n, count, &Options{Seed: 1, Parallelism: workers}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
