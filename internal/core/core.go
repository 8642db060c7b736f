// Package core is the one-import facade over the paper's primary
// contribution — the k-symmetry anonymization model — for the programs
// under examples/. It re-exports the types of the focused packages (ksym
// for the model, automorphism for Orb(G), sampling for the analyst side)
// and one function per kernel the examples call:
//
//	orb, gens, err := core.OrbitPartition(g, nil)
//	res, err := core.Anonymize(g, orb, 5)          // publisher side
//	ss, err := core.SampleBatch(res.Graph, res.Partition, g.N(), 20, &core.SamplingOptions{Seed: 1})
//
// Programs that need a context, a worker pool or another kernel import
// the focused packages directly.
package core

import (
	"context"

	"ksymmetry/internal/automorphism"
	"ksymmetry/internal/graph"
	"ksymmetry/internal/ksym"
	"ksymmetry/internal/partition"
	"ksymmetry/internal/sampling"
)

// Re-exported types.
type (
	// Graph is the undirected simple graph model (§2.1).
	Graph = graph.Graph
	// Partition is a vertex partition; Orb(G) and 𝒱' are Partitions.
	Partition = partition.Partition
	// Result is an anonymization outcome.
	Result = ksym.Result
	// Target is an f-symmetry size function (Definition 5).
	Target = ksym.Target
	// BackboneResult is the outcome of backbone detection (Algorithm 2).
	BackboneResult = ksym.BackboneResult
	// SamplingOptions configures the §4.2 samplers.
	SamplingOptions = sampling.Options
	// Sampler selects the batch sampling algorithm (SamplerApproximate
	// or SamplerExact).
	Sampler = sampling.Sampler
)

// SearchOptions tunes the orbit search (automorphism.Options): the
// per-pair NodeBudget, the BestEffort degradation switch, and the
// Workers pool that fans the IR tree's work units out. Orbits and
// generators are byte-identical at every Workers value (DESIGN.md
// §12).
type SearchOptions = automorphism.Options

// OrbitPartition computes Orb(G) exactly, with the discovered
// automorphism generators.
func OrbitPartition(g *Graph, opts *SearchOptions) (*Partition, []automorphism.Perm, error) {
	return automorphism.OrbitPartition(g, opts)
}

// Anonymize runs Algorithm 1: modify g (vertex/edge insertion only)
// until every orbit has at least k members.
func Anonymize(g *Graph, orb *Partition, k int) (*Result, error) {
	return ksym.Anonymize(g, orb, k)
}

// AnonymizeF runs the f-symmetry generalization (Definition 5).
func AnonymizeF(g *Graph, orb *Partition, target Target) (*Result, error) {
	return ksym.AnonymizeFCtx(context.Background(), g, orb, target)
}

// SampleBatch draws count samples across a bounded worker pool with
// deterministic per-sample RNG streams derived from opts.Seed — the
// result is byte-identical at every opts.Parallelism value.
func SampleBatch(gp *Graph, vp *Partition, n, count int, opts *SamplingOptions) ([]*Graph, error) {
	return sampling.Batch(gp, vp, n, count, opts)
}

// IsKSymmetric reports whether a graph with automorphism partition orb
// satisfies k-symmetry anonymity (Definition 1).
func IsKSymmetric(orb *Partition, k int) bool { return ksym.IsKSymmetric(orb, k) }
