// Package ksymmetry is a from-scratch Go reproduction of "K-Symmetry
// Model for Identity Anonymization in Social Networks" (Wu, Xiao, Wang,
// He, Wang — EDBT 2010).
//
// The library anonymizes a social network so that every vertex has at
// least k-1 automorphically equivalent counterparts, making it immune
// to structural re-identification under ANY background knowledge, and
// provides backbone-based sampling so analysts can recover the original
// network's statistics from the published graph.
//
// Entry points:
//   - one context-first function per kernel: automorphism.OrbitPartitionCtx
//     and CanonicalFormCtx; refine.TotalDegreePartitionWorkersCSRCtx and
//     EquitableWorkersCSRCtx; ksym.AnonymizeFCtx, MinimalAnonymizeFCtx and
//     BackboneWorkersCtx; sampling.BatchCtx; the stats statistics, which
//     read a frozen graph.CSR
//   - internal/pipeline: load → partition → anonymize → publish under
//     one deadline, with the partition degradation ladder
//   - internal/core: the one-import facade for examples/
//   - cmd/ksym, cmd/ksample, cmd/kstats, cmd/kexp, cmd/ksymd: command-line
//     tools and the anonymization service
//   - examples/: runnable walkthroughs
//   - bench_test.go (this package): one benchmark per paper table/figure
//
// See README.md for an overview, DESIGN.md for the system inventory and
// experiment index, and EXPERIMENTS.md for paper-vs-measured results.
package ksymmetry
