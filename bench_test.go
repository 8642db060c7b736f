package ksymmetry

// One benchmark per table and figure of the paper's evaluation, plus
// ablation benches for the design choices listed in DESIGN.md §4.
// Benchmarks use reduced sample counts so the suite completes in
// minutes; `go run ./cmd/kexp` runs the paper-scale versions.

import (
	"context"
	"sync"
	"testing"

	"ksymmetry/internal/automorphism"
	"ksymmetry/internal/baseline"
	"ksymmetry/internal/datasets"
	"ksymmetry/internal/experiments"
	"ksymmetry/internal/graph"
	"ksymmetry/internal/ksym"
	"ksymmetry/internal/partition"
	"ksymmetry/internal/refine"
	"ksymmetry/internal/sampling"
)

var (
	envOnce  sync.Once
	benchEnv *experiments.Env
)

// env returns a shared experiment environment with orbit partitions
// pre-computed, so per-bench iterations measure the experiment itself.
func env(b *testing.B) *experiments.Env {
	b.Helper()
	envOnce.Do(func() {
		benchEnv = experiments.NewEnv(datasets.DefaultSeed)
		for _, name := range benchEnv.Names() {
			if _, err := benchEnv.Orbits(name); err != nil {
				b.Fatal(err)
			}
		}
	})
	return benchEnv
}

// BenchmarkTable1 regenerates the dataset statistics table.
func BenchmarkTable1(b *testing.B) {
	e := env(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		experiments.Table1(nil, e)
	}
}

// BenchmarkFigure2 regenerates the r_f/s_f measure-power comparison.
func BenchmarkFigure2(b *testing.B) {
	e := env(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		experiments.Figure2(nil, e)
	}
}

// BenchmarkFigure8 regenerates the utility-preservation panels
// (reduced: 5 samples, 200 path pairs).
func BenchmarkFigure8(b *testing.B) {
	e := env(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		experiments.Figure8(nil, e, 5, 5, 200)
	}
}

// BenchmarkFigure9 regenerates the KS-convergence curves (reduced: 10
// samples, k=5 only).
func BenchmarkFigure9(b *testing.B) {
	e := env(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		experiments.Figure9(nil, e, []int{5}, 10, 200, []int{1, 5, 10})
	}
}

// BenchmarkFigure10 regenerates the hub-exclusion cost sweep.
func BenchmarkFigure10(b *testing.B) {
	e := env(b)
	fracs := []float64{0, 0.01, 0.02, 0.03, 0.04, 0.05}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		experiments.Figure10(nil, e, []int{5, 10}, fracs)
	}
}

// BenchmarkFigure11 regenerates the hub-exclusion utility sweep
// (reduced: 5 samples, endpoints of the sweep).
func BenchmarkFigure11(b *testing.B) {
	e := env(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		experiments.Figure11(nil, e, []int{10}, []float64{0, 0.05}, 5, 200)
	}
}

// BenchmarkMinimalAnonymization regenerates the §5.1 comparison.
func BenchmarkMinimalAnonymization(b *testing.B) {
	e := env(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		experiments.MinimalAnonymization(nil, e, 5, []string{"Enron"})
	}
}

// BenchmarkSamplerComparison regenerates the exact-vs-approximate and
// weight-scheme ablation (§4.3, DESIGN.md §4).
func BenchmarkSamplerComparison(b *testing.B) {
	e := env(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		experiments.SamplerComparison(nil, e, 5, 5, 200)
	}
}

// BenchmarkBaselineAttack regenerates the baseline-attack extension
// experiment.
func BenchmarkBaselineAttack(b *testing.B) {
	e := env(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		experiments.BaselineAttack(nil, e, 5)
	}
}

// BenchmarkAnonymizeScaling validates the §3.3 claim that the
// anonymization procedure is polynomial (O(|V|²) worst case): time per
// run should grow no worse than quadratically in n.
func BenchmarkAnonymizeScaling(b *testing.B) {
	for _, n := range []int{250, 500, 1000, 2000} {
		g := datasets.ErdosRenyiGM(n, 2*n, int64(n))
		p := refine.TotalDegreePartition(g)
		b.Run(sizeName(n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := ksym.Anonymize(g, p, 5); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func sizeName(n int) string {
	return "n=" + itoa(n)
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [12]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}

// BenchmarkOrbitPruning is the DESIGN.md §4 ablation: generator-orbit
// pruning on vs off (identical results, different work).
func BenchmarkOrbitPruning(b *testing.B) {
	g := datasets.Enron(datasets.DefaultSeed)
	for _, cfg := range []struct {
		name string
		opts *automorphism.Options
	}{
		{"pruning-on", nil},
		{"pruning-off", &automorphism.Options{DisableOrbitPruning: true}},
	} {
		b.Run(cfg.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := automorphism.OrbitPartition(g, cfg.opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkRefinement measures equitable refinement (the 𝒯𝒟𝒱(G)
// fallback) on each network.
func BenchmarkRefinement(b *testing.B) {
	for _, name := range datasets.NetworkNames() {
		g, err := experiments.NewEnv(datasets.DefaultSeed).Graph(name)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				refine.TotalDegreePartition(g)
			}
		})
	}
}

// BenchmarkSamplers compares the linear-time approximate sampler
// against the isomorphism-testing exact sampler (§4.2.3's motivation).
func BenchmarkSamplers(b *testing.B) {
	e := env(b)
	g, orb, err := benchGraphOrbits(b, e, "Enron")
	if err != nil {
		b.Fatal(err)
	}
	res, err := ksym.Anonymize(g, orb, 5)
	if err != nil {
		b.Fatal(err)
	}
	run := func(b *testing.B, m sampling.Sampler) {
		for i := 0; i < b.N; i++ {
			opts := &sampling.Options{Seed: int64(i), Parallelism: 1, Method: m}
			if _, err := sampling.Batch(res.Graph, res.Partition, g.N(), 1, opts); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("exact", func(b *testing.B) { run(b, sampling.SamplerExact) })
	b.Run("approximate", func(b *testing.B) { run(b, sampling.SamplerApproximate) })
}

// BenchmarkBackbone measures Algorithm 2 on the anonymized Enron graph.
func BenchmarkBackbone(b *testing.B) {
	e := env(b)
	g, orb, err := benchGraphOrbits(b, e, "Enron")
	if err != nil {
		b.Fatal(err)
	}
	res, err := ksym.Anonymize(g, orb, 5)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ksym.BackboneWorkersCtx(context.Background(), res.Graph, res.Partition, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// benchGraphOrbits fetches a network and its partition, failing the
// benchmark on error.
func benchGraphOrbits(b *testing.B, e *experiments.Env, name string) (*graph.Graph, *partition.Partition, error) {
	b.Helper()
	g, err := e.Graph(name)
	if err != nil {
		return nil, nil, err
	}
	orb, err := e.Orbits(name)
	if err != nil {
		return nil, nil, err
	}
	return g, orb, nil
}

// genGraph builds the synthetic benchmark graphs (same parameters as
// the refinement benchmarks in internal/refine).
func genGraph(kind string, n int) *graph.Graph {
	switch kind {
	case "BA":
		return datasets.BarabasiAlbert(n, 3, 3, int64(n))
	case "ER":
		return datasets.ErdosRenyiGM(n, 3*n, int64(n))
	default:
		return datasets.WattsStrogatz(n, 6, 0.1, int64(n))
	}
}

// BenchmarkOrbitPartitionGenerated measures the full automorphism
// search on generator graphs at 10k-30k vertices, where the worklist
// refiner's incremental IR path carries the slow pairwise searches.
func BenchmarkOrbitPartitionGenerated(b *testing.B) {
	for _, n := range []int{10000, 30000} {
		if n > 10000 && testing.Short() {
			continue
		}
		for _, kind := range []string{"BA", "ER", "WS"} {
			g := genGraph(kind, n)
			b.Run(kind+"-"+itoa(n/1000)+"k", func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, _, err := automorphism.OrbitPartition(g, nil); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkBackboneGenerated measures Algorithm 2 on anonymized
// generator graphs at 10k-30k vertices.
func BenchmarkBackboneGenerated(b *testing.B) {
	for _, n := range []int{10000, 30000} {
		if n > 10000 && testing.Short() {
			continue
		}
		for _, kind := range []string{"BA", "ER", "WS"} {
			g := genGraph(kind, n)
			res, err := ksym.Anonymize(g, refine.TotalDegreePartition(g), 2)
			if err != nil {
				b.Fatal(err)
			}
			b.Run(kind+"-"+itoa(n/1000)+"k", func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := ksym.BackboneWorkersCtx(context.Background(), res.Graph, res.Partition, 1); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkKDegreeBaseline measures the Liu-Terzi baseline for
// comparison with BenchmarkAnonymizeScaling.
func BenchmarkKDegreeBaseline(b *testing.B) {
	g := datasets.Enron(datasets.DefaultSeed)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := baseline.KDegree(g, 5, int64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExtendedUtility regenerates the extended-utility experiment
// (betweenness + assortativity recovery).
func BenchmarkExtendedUtility(b *testing.B) {
	e := env(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		experiments.ExtendedUtility(nil, e, 5, 3)
	}
}
