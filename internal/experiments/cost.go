package experiments

import (
	"context"
	"fmt"
	"io"

	"ksymmetry/internal/graph"
	"ksymmetry/internal/ksym"
	"ksymmetry/internal/parallel"
	"ksymmetry/internal/sampling"
	"ksymmetry/internal/stats"
)

// Fig10Row is one point of the Figure 10 cost curves: anonymization
// cost on Net-trace when a fraction of hub vertices is excluded from
// protection.
type Fig10Row struct {
	K             int
	FractionExcl  float64
	VerticesAdded int
	EdgesAdded    int
}

// kfJobs expands a (ks × fracs) sweep into its job list, in the order
// the figures print.
func kfJobs(ks []int, fracs []float64) (kjob []int, fjob []float64) {
	for _, k := range ks {
		for _, f := range fracs {
			kjob = append(kjob, k)
			fjob = append(fjob, f)
		}
	}
	return kjob, fjob
}

// Figure10 prints and returns the anonymization cost sweep over the
// fraction of hubs excluded from protection, for each k (paper
// Figure 10, Net-trace). The (k, fraction) anonymizations run
// concurrently; rows come back in sweep order.
func Figure10(w io.Writer, e *Env, ks []int, fracs []float64) ([]Fig10Row, error) {
	g, orb, err := e.graphAndOrbits("Net-trace")
	if err != nil {
		return nil, err
	}
	kjob, fjob := kfJobs(ks, fracs)
	out, err := parallel.Map(e.ctx(), e.Workers, len(kjob), func(ctx context.Context, _, ji int) (Fig10Row, error) {
		res, err := ksym.AnonymizeFCtx(ctx, g, orb, ksym.TopFractionTarget(g, kjob[ji], fjob[ji]))
		if err != nil {
			return Fig10Row{}, fmt.Errorf("experiments: figure 10: %w", err)
		}
		return Fig10Row{K: kjob[ji], FractionExcl: fjob[ji], VerticesAdded: res.VerticesAdded(), EdgesAdded: res.EdgesAdded()}, nil
	})
	if err != nil {
		return nil, err
	}
	fprintf(w, "Figure 10: anonymization cost vs fraction of hubs excluded (Net-trace)\n")
	fprintf(w, "%4s %10s %12s %12s\n", "k", "excluded", "+vertices", "+edges")
	for _, row := range out {
		fprintf(w, "%4d %10.2f %12d %12d\n", row.K, row.FractionExcl, row.VerticesAdded, row.EdgesAdded)
	}
	return out, nil
}

// Fig11Row is one point of the Figure 11 utility curves: average KS
// statistic when hubs are excluded.
type Fig11Row struct {
	K            int
	FractionExcl float64
	KSDegree     float64
	KSPathLength float64
}

// Figure11 prints and returns the utility improvement sweep: the
// average KS statistic (degree and path-length) over `samples` sampled
// graphs, as the excluded hub fraction grows (paper Figure 11,
// Net-trace). Each (k, fraction) point anonymizes and draws its sample
// batch concurrently with the others.
func Figure11(w io.Writer, e *Env, ks []int, fracs []float64, samples, pathPairs int) ([]Fig11Row, error) {
	g, orb, err := e.graphAndOrbits("Net-trace")
	if err != nil {
		return nil, err
	}
	gc := graph.NewCSR(g)
	origDeg := stats.DegreeSample(gc)
	// Stream 0 is the original graph's path sample, shared by every
	// sweep point (as in the serial sweep, which reseeded identically at
	// each point).
	origPath := stats.PathLengthSample(gc, pathPairs, rng(e.Seed+606, 0))
	kjob, fjob := kfJobs(ks, fracs)
	out, err := parallel.Map(e.ctx(), e.Workers, len(kjob), func(ctx context.Context, _, ji int) (Fig11Row, error) {
		res, err := ksym.AnonymizeFCtx(ctx, g, orb, ksym.TopFractionTarget(g, kjob[ji], fjob[ji]))
		if err != nil {
			return Fig11Row{}, fmt.Errorf("experiments: figure 11: %w", err)
		}
		// Odd sub-streams seed the point's sample batch, even ones its
		// per-sample path draws.
		batchSeed := sampling.DeriveSeed(e.Seed+606, 2*ji+1)
		pathSeed := sampling.DeriveSeed(e.Seed+606, 2*ji+2)
		sampleGraphs, err := sampling.BatchCtx(ctx, res.Graph, res.Partition, g.N(), samples,
			&sampling.Options{Seed: batchSeed, Parallelism: e.Workers})
		if err != nil {
			return Fig11Row{}, fmt.Errorf("experiments: figure 11 sampling: %w", err)
		}
		degS := make([]stats.Sample, len(sampleGraphs))
		pathS := make([]stats.Sample, len(sampleGraphs))
		err = parallel.ForEach(ctx, e.Workers, len(sampleGraphs), func(_ context.Context, _, i int) error {
			sc := graph.NewCSR(sampleGraphs[i])
			degS[i] = stats.DegreeSample(sc)
			pathS[i] = stats.PathLengthSample(sc, pathPairs, rng(pathSeed, i))
			return nil
		})
		if err != nil {
			return Fig11Row{}, err
		}
		return Fig11Row{
			K: kjob[ji], FractionExcl: fjob[ji],
			KSDegree:     stats.AverageKS(origDeg, degS),
			KSPathLength: stats.AverageKS(origPath, pathS),
		}, nil
	})
	if err != nil {
		return nil, err
	}
	fprintf(w, "Figure 11: utility when excluding hubs (Net-trace, %d samples)\n", samples)
	fprintf(w, "%4s %10s %12s %12s\n", "k", "excluded", "avgKS(deg)", "avgKS(path)")
	for _, row := range out {
		fprintf(w, "%4d %10.2f %12.3f %12.3f\n", row.K, row.FractionExcl, row.KSDegree, row.KSPathLength)
	}
	return out, nil
}

// MinRow compares plain Algorithm 1 against backbone-minimal
// anonymization (§5.1) on one network.
type MinRow struct {
	Network       string
	K             int
	PlainVertices int
	PlainEdges    int
	MinVertices   int
	MinEdges      int
}

// MinimalAnonymization prints and returns the §5.1 comparison: vertices
// and edges added by Algorithm 1 versus the backbone-rebuild strategy.
// Networks are processed concurrently.
func MinimalAnonymization(w io.Writer, e *Env, k int, networks []string) ([]MinRow, error) {
	out, err := parallel.Map(e.ctx(), e.Workers, len(networks), func(ctx context.Context, _, ni int) (MinRow, error) {
		name := networks[ni]
		g, orb, err := e.graphAndOrbits(name)
		if err != nil {
			return MinRow{}, err
		}
		plain, err := ksym.AnonymizeFCtx(ctx, g, orb, ksym.ConstantTarget(k))
		if err != nil {
			return MinRow{}, fmt.Errorf("experiments: minimal: %w", err)
		}
		min, err := ksym.MinimalAnonymizeFCtx(ctx, g, orb, ksym.ConstantTarget(k))
		if err != nil {
			return MinRow{}, fmt.Errorf("experiments: minimal: %w", err)
		}
		return MinRow{
			Network: name, K: k,
			PlainVertices: plain.VerticesAdded(), PlainEdges: plain.EdgesAdded(),
			MinVertices: min.VerticesAdded(), MinEdges: min.EdgesAdded(),
		}, nil
	})
	if err != nil {
		return nil, err
	}
	fprintf(w, "§5.1: plain vs backbone-minimal anonymization (k=%d)\n", k)
	fprintf(w, "%-10s %10s %10s %10s %10s\n", "Network", "+V plain", "+E plain", "+V min", "+E min")
	for _, row := range out {
		fprintf(w, "%-10s %10d %10d %10d %10d\n", row.Network, row.PlainVertices, row.PlainEdges, row.MinVertices, row.MinEdges)
	}
	return out, nil
}
