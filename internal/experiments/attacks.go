package experiments

import (
	"context"
	"fmt"
	"io"

	"ksymmetry/internal/baseline"
	"ksymmetry/internal/graph"
	"ksymmetry/internal/knowledge"
	"ksymmetry/internal/ksym"
	"ksymmetry/internal/parallel"
	"ksymmetry/internal/stats"
)

// Table1 prints and returns the dataset statistics table (paper
// Table 1).
func Table1(w io.Writer, e *Env) ([]stats.Summary, error) {
	names := e.Names()
	out, err := parallel.Map(e.ctx(), e.Workers, len(names), func(_ context.Context, _, ni int) (stats.Summary, error) {
		g, err := e.Graph(names[ni])
		if err != nil {
			return stats.Summary{}, err
		}
		return stats.Summarize(names[ni], graph.NewCSR(g)), nil
	})
	if err != nil {
		return nil, err
	}
	fprintf(w, "Table 1: statistics of networks used\n")
	fprintf(w, "%-10s %9s %9s %8s %8s %8s %8s\n", "Network", "Vertices", "Edges", "MinDeg", "MaxDeg", "MedDeg", "AvgDeg")
	for _, s := range out {
		fprintf(w, "%-10s %9d %9d %8d %8d %8d %8.2f\n",
			s.Name, s.Vertices, s.Edges, s.MinDeg, s.MaxDeg, s.MedianDeg, s.AvgDeg)
	}
	return out, nil
}

// Fig2Row is one bar of Figure 2: the re-identification power of a
// structural measure on one network.
type Fig2Row struct {
	Network string
	Measure string
	RF, SF  float64
}

// Figure2 prints and returns the r_f and s_f statistics for the degree,
// triangle, and combined measures on every network (paper Figure 2).
// Networks are evaluated concurrently; rows print in the paper's order.
func Figure2(w io.Writer, e *Env) ([]Fig2Row, error) {
	measures := []knowledge.Measure{
		knowledge.Degree{},
		knowledge.Triangles{},
		knowledge.NewCombined(),
	}
	names := e.Names()
	perNet, err := parallel.Map(e.ctx(), e.Workers, len(names), func(_ context.Context, _, ni int) ([]Fig2Row, error) {
		g, orb, err := e.graphAndOrbits(names[ni])
		if err != nil {
			return nil, err
		}
		rows := make([]Fig2Row, len(measures))
		for mi, m := range measures {
			ev := knowledge.EvaluateMeasure(g, m, orb)
			rows[mi] = Fig2Row{Network: names[ni], Measure: m.Name(), RF: ev.RF, SF: ev.SF}
		}
		return rows, nil
	})
	if err != nil {
		return nil, err
	}
	fprintf(w, "Figure 2: power of structural measures to re-identify a target\n")
	fprintf(w, "%-10s %-16s %8s %8s\n", "Network", "Measure", "r_f", "s_f")
	var out []Fig2Row
	for _, rows := range perNet {
		for _, row := range rows {
			out = append(out, row)
			fprintf(w, "%-10s %-16s %8.3f %8.3f\n", row.Network, row.Measure, row.RF, row.SF)
		}
	}
	return out, nil
}

// AttackRow is one row of the baseline-attack extension experiment: the
// fraction of vertices uniquely re-identified per scheme and measure.
type AttackRow struct {
	Scheme        string
	Measure       string
	UniqueRate    float64
	VerticesAdded int
	EdgesAdded    int
}

// attackScheme is one anonymization under attack: the published graph
// plus its modification cost.
type attackScheme struct {
	name           string
	graph          *graph.Graph
	vAdded, eAdded int
}

// BaselineAttack compares unique re-identification rates under the
// degree and combined measures across naive anonymization, random
// perturbation, k-degree anonymity, and k-symmetry on the Enron
// network (§6 extension experiment: the combined measure defeats
// everything but k-symmetry). The four schemes are constructed
// concurrently, then every (scheme, measure) attack runs across the
// pool.
func BaselineAttack(w io.Writer, e *Env, k int) ([]AttackRow, error) {
	g, orb, err := e.graphAndOrbits("Enron")
	if err != nil {
		return nil, err
	}

	builders := []func(ctx context.Context) (attackScheme, error){
		func(context.Context) (attackScheme, error) {
			naive, _ := baseline.Naive(g, e.Seed)
			return attackScheme{name: "naive", graph: naive}, nil
		},
		func(context.Context) (attackScheme, error) {
			return attackScheme{name: "perturb-10%", graph: baseline.RandomPerturbation(g, g.M()/10, e.Seed)}, nil
		},
		func(context.Context) (attackScheme, error) {
			kdeg, err := baseline.KDegree(g, k, e.Seed)
			if err != nil {
				return attackScheme{}, fmt.Errorf("experiments: k-degree baseline failed: %w", err)
			}
			return attackScheme{name: "k-degree", graph: kdeg.Graph, eAdded: kdeg.EdgesAdded}, nil
		},
		func(ctx context.Context) (attackScheme, error) {
			res, err := ksym.AnonymizeFCtx(ctx, g, orb, ksym.ConstantTarget(k))
			if err != nil {
				return attackScheme{}, fmt.Errorf("experiments: k-symmetry failed: %w", err)
			}
			return attackScheme{name: "k-symmetry", graph: res.Graph, vAdded: res.VerticesAdded(), eAdded: res.EdgesAdded()}, nil
		},
	}
	ctx := e.ctx()
	schemes, err := parallel.Map(ctx, e.Workers, len(builders), func(ctx context.Context, _, i int) (attackScheme, error) {
		return builders[i](ctx)
	})
	if err != nil {
		return nil, err
	}

	measures := []knowledge.Measure{knowledge.Degree{}, knowledge.NewCombined()}
	out, err := parallel.Map(ctx, e.Workers, len(schemes)*len(measures), func(_ context.Context, _, i int) (AttackRow, error) {
		s, m := schemes[i/len(measures)], measures[i%len(measures)]
		return AttackRow{
			Scheme: s.name, Measure: m.Name(), UniqueRate: knowledge.UniqueRate(s.graph, m),
			VerticesAdded: s.vAdded, EdgesAdded: s.eAdded,
		}, nil
	})
	if err != nil {
		return nil, err
	}
	fprintf(w, "Baseline attack (Enron, k=%d): unique re-identification rate\n", k)
	fprintf(w, "%-12s %-16s %10s %8s %8s\n", "Scheme", "Measure", "UniqueRate", "+V", "+E")
	for _, row := range out {
		fprintf(w, "%-12s %-16s %10.3f %8d %8d\n", row.Scheme, row.Measure, row.UniqueRate, row.VerticesAdded, row.EdgesAdded)
	}
	return out, nil
}
