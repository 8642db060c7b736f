package sampling

import (
	"context"
	"fmt"
	"math/rand"

	"ksymmetry/internal/graph"
	"ksymmetry/internal/parallel"
	"ksymmetry/internal/partition"
)

// DeriveSeed deterministically derives an independent RNG seed for the
// given stream index from a base seed, using the splitmix64 finalizer
// (Steele, Lea & Flood, "Fast splittable pseudorandom number
// generators"): the base seed is advanced by stream golden-ratio
// increments and bit-mixed, so nearby (seed, stream) pairs map to
// statistically unrelated streams. Batch seeds sample i with
// DeriveSeed(Options.Seed, i); experiment runners use further streams
// for their per-sample statistics RNGs.
func DeriveSeed(seed int64, stream int) int64 {
	z := uint64(seed) + (uint64(stream)+1)*0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return int64(z ^ (z >> 31))
}

// Batch is BatchCtx without a context.
func Batch(gp *graph.Graph, vp *partition.Partition, n, count int, opts *Options) ([]*graph.Graph, error) {
	return BatchCtx(context.Background(), gp, vp, n, count, opts)
}

// BatchCtx draws count samples of size n from the published pair
// (G',𝒱') across a bounded worker pool. Sample i is produced by an RNG
// seeded with DeriveSeed(opts.Seed, i), so the returned slice is
// byte-identical for every Options.Parallelism value — including 1,
// which runs the same per-index streams inline. opts.Method selects the
// sampler (approximate by default). Cancellation propagates into every
// in-flight sample (each polls at the samplers' amortized intervals)
// and unstarted samples are skipped. On error the sample slice is nil
// and the error is the lowest-index failure (see parallel.ForEach).
func BatchCtx(ctx context.Context, gp *graph.Graph, vp *partition.Partition, n, count int, opts *Options) ([]*graph.Graph, error) {
	if opts == nil {
		return nil, fmt.Errorf("sampling: Batch requires Options")
	}
	if count < 0 {
		return nil, fmt.Errorf("sampling: negative sample count %d", count)
	}
	// Resolve the weights once: they depend only on (G',𝒱'), so sharing
	// the slice across samples is deterministic and skips count-1
	// rebuilds of the inverse-degree table.
	probs, err := opts.resolveProbs(gp, vp)
	if err != nil {
		return nil, err
	}
	if vp.N() != gp.N() {
		return nil, fmt.Errorf("sampling: partition covers %d vertices, graph has %d", vp.N(), gp.N())
	}
	// The approximate sampler walks a frozen CSR view of G'; freeze it
	// once here and share it read-only across the whole batch instead of
	// paying one build per sample.
	var csr *graph.CSR
	if opts.Method != SamplerExact {
		csr = graph.NewCSR(gp)
	}
	return parallel.Map(ctx, opts.Parallelism, count, func(ctx context.Context, _, i int) (*graph.Graph, error) {
		rng := rand.New(rand.NewSource(DeriveSeed(opts.Seed, i)))
		if opts.Method == SamplerExact {
			return exact(ctx, gp, vp, n, probs, rng)
		}
		return approximate(ctx, csr, vp, n, probs, rng)
	})
}
