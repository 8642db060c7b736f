package experiments

import (
	"context"
	"fmt"
	"io"

	"ksymmetry/internal/graph"
	"ksymmetry/internal/ksym"
	"ksymmetry/internal/parallel"
	"ksymmetry/internal/partition"
	"ksymmetry/internal/sampling"
	"ksymmetry/internal/stats"
)

// resilienceFracs is the removal-fraction grid of Figure 8's
// "Resiliency" panel.
var resilienceFracs = []float64{0, 0.05, 0.1, 0.15, 0.2, 0.3, 0.4, 0.5, 0.6}

// safeKS is KolmogorovSmirnov with the empty-sample precondition handled
// here instead of by panic: path-length samples are legitimately empty
// on fragmented graphs (PathLengthSample skips disconnected pairs), and
// one such sample must not abort a whole sweep. No observations means no
// measurable distance, reported as 0.
func safeKS(a, b stats.Sample) float64 {
	if a.Len() == 0 || b.Len() == 0 {
		return 0
	}
	return stats.KolmogorovSmirnov(a, b)
}

// Fig8Row summarizes the utility preservation panels of Figure 8 for
// one network: KS distances between the original graph's distributions
// and the pooled distributions of the sampled graphs, plus both
// resilience curves.
type Fig8Row struct {
	Network             string
	K, Samples          int
	KSDegree            float64
	KSPathLength        float64
	KSClustering        float64
	ResilienceOrig      []float64
	ResilienceSampled   []float64
	MaxResilienceGap    float64
	OriginalMeanDegree  float64
	SampledMeanDegree   float64
	OriginalMeanClust   float64
	SampledMeanClust    float64
	OriginalMeanPathLen float64
	SampledMeanPathLen  float64
}

// drawSamples anonymizes (g, orb) with k and draws count approximate
// backbone samples of size |V(g)| across the environment's worker pool.
// Sample i's RNG is derived from (seed, i), so the batch is identical
// at every worker count.
func drawSamples(ctx context.Context, e *Env, g *graph.Graph, orb *partition.Partition, k, count int, seed int64) ([]*graph.Graph, *ksym.Result, error) {
	res, err := ksym.AnonymizeFCtx(ctx, g, orb, ksym.ConstantTarget(k))
	if err != nil {
		return nil, nil, fmt.Errorf("experiments: anonymize: %w", err)
	}
	out, err := sampling.BatchCtx(ctx, res.Graph, res.Partition, g.N(), count,
		&sampling.Options{Seed: seed, Parallelism: e.Workers})
	if err != nil {
		return nil, nil, fmt.Errorf("experiments: sampling: %w", err)
	}
	return out, res, nil
}

// sampleStats is one sampled graph's statistics pass for Figure 8.
type sampleStats struct {
	deg, path, clust stats.Sample
	res              []float64
}

// figure8Row computes one network's Figure 8 row. Stream ni namespaces
// the network's sampling and path-RNG seeds so concurrent networks
// never share a stream.
func figure8Row(ctx context.Context, e *Env, name string, ni, k, samples, pathPairs int) (Fig8Row, error) {
	g, orb, err := e.graphAndOrbits(name)
	if err != nil {
		return Fig8Row{}, err
	}
	sampleGraphs, _, err := drawSamples(ctx, e, g, orb, k, samples, sampling.DeriveSeed(e.Seed+101, ni))
	if err != nil {
		return Fig8Row{}, err
	}
	pathSeed := sampling.DeriveSeed(e.Seed+202, ni)

	gc := graph.NewCSR(g)
	origDeg := stats.DegreeSample(gc)
	origPath := stats.PathLengthSample(gc, pathPairs, rng(pathSeed, 0))
	origClust := stats.ClusteringSample(gc)
	origRes, err := stats.Resilience(ctx, gc, resilienceFracs, e.Workers)
	if err != nil {
		return Fig8Row{}, err
	}

	// One statistics pass per sampled graph, fanned out across the pool;
	// sample i's path RNG rides stream i+1 of the network's path seed.
	per, err := parallel.Map(ctx, e.Workers, len(sampleGraphs), func(ctx context.Context, _, i int) (sampleStats, error) {
		s := graph.NewCSR(sampleGraphs[i])
		res, err := stats.Resilience(ctx, s, resilienceFracs, 1)
		if err != nil {
			return sampleStats{}, err
		}
		return sampleStats{
			deg:   stats.DegreeSample(s),
			path:  stats.PathLengthSample(s, pathPairs, rng(pathSeed, i+1)),
			clust: stats.ClusteringSample(s),
			res:   res,
		}, nil
	})
	if err != nil {
		return Fig8Row{}, err
	}

	var degS, pathS, clustS []stats.Sample
	resAgg := make([]float64, len(resilienceFracs))
	for _, st := range per {
		degS = append(degS, st.deg)
		pathS = append(pathS, st.path)
		clustS = append(clustS, st.clust)
		for i, r := range st.res {
			resAgg[i] += r / float64(len(per))
		}
	}
	row := Fig8Row{
		Network: name, K: k, Samples: samples,
		KSDegree:            safeKS(origDeg, stats.Merge(degS)),
		KSPathLength:        safeKS(origPath, stats.Merge(pathS)),
		KSClustering:        safeKS(origClust, stats.Merge(clustS)),
		ResilienceOrig:      origRes,
		ResilienceSampled:   resAgg,
		OriginalMeanDegree:  origDeg.Mean(),
		SampledMeanDegree:   stats.Merge(degS).Mean(),
		OriginalMeanClust:   origClust.Mean(),
		SampledMeanClust:    stats.Merge(clustS).Mean(),
		OriginalMeanPathLen: origPath.Mean(),
		SampledMeanPathLen:  stats.Merge(pathS).Mean(),
	}
	for i := range origRes {
		if d := absf(origRes[i] - resAgg[i]); d > row.MaxResilienceGap {
			row.MaxResilienceGap = d
		}
	}
	return row, nil
}

// Figure8 prints and returns the utility-preservation comparison (paper
// Figure 8): per network, the original graph versus the aggregate of
// `samples` approximate-backbone samples at the given k, across degree,
// path-length, transitivity, and resilience. Networks are processed
// concurrently (Env.Workers) and printed in the paper's order.
func Figure8(w io.Writer, e *Env, k, samples, pathPairs int) ([]Fig8Row, error) {
	names := e.Names()
	out, err := parallel.Map(e.ctx(), e.Workers, len(names), func(ctx context.Context, _, ni int) (Fig8Row, error) {
		return figure8Row(ctx, e, names[ni], ni, k, samples, pathPairs)
	})
	if err != nil {
		return nil, err
	}
	fprintf(w, "Figure 8: utility preservation (k=%d, %d samples, %d path pairs)\n", k, samples, pathPairs)
	fprintf(w, "%-10s %10s %10s %10s %10s | %s\n",
		"Network", "KS(deg)", "KS(path)", "KS(clust)", "maxΔresil", "mean deg orig→sample, mean path orig→sample")
	for _, row := range out {
		fprintf(w, "%-10s %10.3f %10.3f %10.3f %10.3f | deg %.2f→%.2f, path %.2f→%.2f\n",
			row.Network, row.KSDegree, row.KSPathLength, row.KSClustering, row.MaxResilienceGap,
			row.OriginalMeanDegree, row.SampledMeanDegree, row.OriginalMeanPathLen, row.SampledMeanPathLen)
		fprintf(w, "           resilience orig:    ")
		for _, r := range row.ResilienceOrig {
			fprintf(w, "%6.3f", r)
		}
		fprintf(w, "\n           resilience sampled: ")
		for _, r := range row.ResilienceSampled {
			fprintf(w, "%6.3f", r)
		}
		fprintf(w, "\n")
	}
	return out, nil
}

func absf(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// Fig9Row is one point of the Figure 9 convergence curves: the average
// KS statistic over the first `Samples` sampled graphs.
type Fig9Row struct {
	Network      string
	K            int
	Samples      int
	KSDegree     float64
	KSPathLength float64
}

// fig9Series holds one (k, network) job's per-sample KS values.
type fig9Series struct {
	ksDeg, ksPath []float64
}

// Figure9 prints and returns the convergence of the average KS
// statistic (degree and path-length distributions) as the number of
// sampled graphs grows from 1 to maxSamples, for each k (paper
// Figure 9). The (k, network) jobs run concurrently; rows come back in
// sweep order.
func Figure9(w io.Writer, e *Env, ks []int, maxSamples, pathPairs int, counts []int) ([]Fig9Row, error) {
	type job struct {
		k    int
		name string
	}
	var jobs []job
	for _, k := range ks {
		for _, name := range e.Names() {
			jobs = append(jobs, job{k, name})
		}
	}
	series, err := parallel.Map(e.ctx(), e.Workers, len(jobs), func(ctx context.Context, _, ji int) (fig9Series, error) {
		jb := jobs[ji]
		g, orb, err := e.graphAndOrbits(jb.name)
		if err != nil {
			return fig9Series{}, err
		}
		sampleGraphs, _, err := drawSamples(ctx, e, g, orb, jb.k, maxSamples, sampling.DeriveSeed(e.Seed+303, ji))
		if err != nil {
			return fig9Series{}, err
		}
		// Stream 0 of the shared path seed draws the original graph's
		// sample, so the reference is identical across jobs; each job's
		// per-sample draws ride its own derived sub-seed.
		pathSeed := sampling.DeriveSeed(e.Seed+404, ji+1)
		gc := graph.NewCSR(g)
		origDeg := stats.DegreeSample(gc)
		origPath := stats.PathLengthSample(gc, pathPairs, rng(e.Seed+404, 0))
		sr := fig9Series{ksDeg: make([]float64, maxSamples), ksPath: make([]float64, maxSamples)}
		err = parallel.ForEach(ctx, e.Workers, len(sampleGraphs), func(_ context.Context, _, i int) error {
			s := graph.NewCSR(sampleGraphs[i])
			sr.ksDeg[i] = safeKS(origDeg, stats.DegreeSample(s))
			sr.ksPath[i] = safeKS(origPath, stats.PathLengthSample(s, pathPairs, rng(pathSeed, i)))
			return nil
		})
		if err != nil {
			return fig9Series{}, err
		}
		return sr, nil
	})
	if err != nil {
		return nil, err
	}

	fprintf(w, "Figure 9: convergence of average KS statistic with sample count\n")
	var out []Fig9Row
	for ji, jb := range jobs {
		fprintf(w, "%-10s k=%-3d %8s %10s %10s\n", jb.name, jb.k, "#samples", "avgKS(deg)", "avgKS(path)")
		sumD, sumP := 0.0, 0.0
		ci := 0
		for i := 0; i < maxSamples; i++ {
			sumD += series[ji].ksDeg[i]
			sumP += series[ji].ksPath[i]
			if ci < len(counts) && counts[ci] == i+1 {
				row := Fig9Row{
					Network: jb.name, K: jb.k, Samples: i + 1,
					KSDegree:     sumD / float64(i+1),
					KSPathLength: sumP / float64(i+1),
				}
				out = append(out, row)
				fprintf(w, "%-10s k=%-3d %8d %10.3f %10.3f\n", jb.name, jb.k, row.Samples, row.KSDegree, row.KSPathLength)
				ci++
			}
		}
	}
	return out, nil
}

// CompareRow is one configuration of the sampler-comparison experiment
// (§4.3's observation that exact and approximate samplers produce
// near-identical utility, plus the inverse-degree vs uniform ablation).
type CompareRow struct {
	Network      string
	Sampler      string
	Weights      string
	KSDegree     float64
	KSPathLength float64
}

// SamplerComparison prints and returns KS distances for the exact and
// approximate samplers under both weight schemes on the Enron network.
// The four configurations run concurrently over the environment pool.
func SamplerComparison(w io.Writer, e *Env, k, samples, pathPairs int) ([]CompareRow, error) {
	name := "Enron"
	g, orb, err := e.graphAndOrbits(name)
	if err != nil {
		return nil, err
	}
	ctx := e.ctx()
	res, err := ksym.AnonymizeFCtx(ctx, g, orb, ksym.ConstantTarget(k))
	if err != nil {
		return nil, fmt.Errorf("experiments: anonymize: %w", err)
	}
	gc := graph.NewCSR(g)
	origDeg := stats.DegreeSample(gc)
	origPath := stats.PathLengthSample(gc, pathPairs, rng(e.Seed+505, 0))

	type cfg struct {
		sampler string
		method  sampling.Sampler
		weights string
	}
	cfgs := []cfg{
		{"exact", sampling.SamplerExact, "inverse-degree"},
		{"exact", sampling.SamplerExact, "uniform"},
		{"approximate", sampling.SamplerApproximate, "inverse-degree"},
		{"approximate", sampling.SamplerApproximate, "uniform"},
	}
	out, err := parallel.Map(ctx, e.Workers, len(cfgs), func(ctx context.Context, _, ci int) (CompareRow, error) {
		c := cfgs[ci]
		var probs []float64
		if c.weights == "uniform" {
			probs = sampling.UniformProbabilities(res.Partition)
		}
		// Even sub-streams seed the batch, odd ones the per-sample path
		// draws, so no configuration shares an RNG stream with another.
		batchSeed := sampling.DeriveSeed(e.Seed+505, 2*ci+1)
		pathSeed := sampling.DeriveSeed(e.Seed+505, 2*ci+2)
		sampleGraphs, err := sampling.BatchCtx(ctx, res.Graph, res.Partition, g.N(), samples, &sampling.Options{
			Seed:          batchSeed,
			Parallelism:   e.Workers,
			Method:        c.method,
			Probabilities: probs,
		})
		if err != nil {
			return CompareRow{}, fmt.Errorf("experiments: sampler comparison: %w", err)
		}
		pathS := make([]stats.Sample, len(sampleGraphs))
		degS := make([]stats.Sample, len(sampleGraphs))
		err = parallel.ForEach(ctx, e.Workers, len(sampleGraphs), func(_ context.Context, _, i int) error {
			sc := graph.NewCSR(sampleGraphs[i])
			degS[i] = stats.DegreeSample(sc)
			pathS[i] = stats.PathLengthSample(sc, pathPairs, rng(pathSeed, i))
			return nil
		})
		if err != nil {
			return CompareRow{}, err
		}
		return CompareRow{
			Network: name, Sampler: c.sampler, Weights: c.weights,
			KSDegree:     safeKS(origDeg, stats.Merge(degS)),
			KSPathLength: safeKS(origPath, stats.Merge(pathS)),
		}, nil
	})
	if err != nil {
		return nil, err
	}
	fprintf(w, "Sampler comparison (%s, k=%d, %d samples)\n", name, k, samples)
	fprintf(w, "%-12s %-16s %10s %10s\n", "Sampler", "Weights", "KS(deg)", "KS(path)")
	for _, row := range out {
		fprintf(w, "%-12s %-16s %10.3f %10.3f\n", row.Sampler, row.Weights, row.KSDegree, row.KSPathLength)
	}
	return out, nil
}
