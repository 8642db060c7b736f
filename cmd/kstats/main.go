// Command kstats prints the §4.3 utility statistics of one or more
// graphs: the Table 1 summary, degree histogram, clustering, sampled
// path lengths, and the resilience curve. With two graphs it also
// prints the Kolmogorov-Smirnov distances between their distributions,
// which is how Figures 8/9/11 compare sampled graphs to originals.
//
// Usage:
//
//	kstats g.edges
//	kstats original.edges sample.edges   # adds KS comparison
package main

import (
	"context"
	"flag"
	"fmt"
	"math/rand"
	"os"

	"ksymmetry/internal/graph"
	"ksymmetry/internal/stats"
)

func main() {
	var (
		pairs = flag.Int("pairs", 500, "random vertex pairs for the path-length sample")
		seed  = flag.Int64("seed", 1, "random seed for path sampling")
	)
	flag.Parse()
	if flag.NArg() < 1 || flag.NArg() > 2 {
		fmt.Fprintln(os.Stderr, "usage: kstats [-pairs N] [-seed S] graph.edges [other.edges]")
		os.Exit(2)
	}
	graphs := make([]*graph.CSR, flag.NArg())
	for i, path := range flag.Args() {
		// Stream straight into the frozen CSR view: at the million-node
		// tiers this skips the mutable builder entirely.
		c, err := graph.ReadCSRFile(path)
		if err != nil {
			fatal(err)
		}
		graphs[i] = c
		describe(path, c, *pairs, *seed)
	}
	if len(graphs) == 2 {
		rng := rand.New(rand.NewSource(*seed))
		a, b := graphs[0], graphs[1]
		fmt.Println("Kolmogorov-Smirnov distances (first vs second):")
		fmt.Printf("  degree:      %.4f\n", stats.KolmogorovSmirnov(stats.DegreeSample(a), stats.DegreeSample(b)))
		ap := stats.PathLengthSample(a, *pairs, rng)
		bp := stats.PathLengthSample(b, *pairs, rng)
		if ap.Len() > 0 && bp.Len() > 0 {
			fmt.Printf("  path length: %.4f\n", stats.KolmogorovSmirnov(ap, bp))
		}
		fmt.Printf("  clustering:  %.4f\n", stats.KolmogorovSmirnov(stats.ClusteringSample(a), stats.ClusteringSample(b)))
	}
}

func describe(name string, g *graph.CSR, pairs int, seed int64) {
	s := stats.Summarize(name, g)
	fmt.Printf("%s: %d vertices, %d edges, degree min/median/avg/max = %d/%d/%.2f/%d\n",
		s.Name, s.Vertices, s.Edges, s.MinDeg, s.MedianDeg, s.AvgDeg, s.MaxDeg)
	fmt.Printf("  connected: %v (largest component %d)\n", g.IsConnected(), g.LargestComponentSize())
	fmt.Printf("  mean clustering coefficient: %.4f\n", stats.GlobalClustering(g))
	rng := rand.New(rand.NewSource(seed))
	pl := stats.PathLengthSample(g, pairs, rng)
	if pl.Len() > 0 {
		fmt.Printf("  mean shortest path (over %d sampled pairs): %.2f\n", pl.Len(), pl.Mean())
	}
	hist := stats.DegreeHistogram(g)
	fmt.Printf("  degree histogram (deg:count):")
	printed := 0
	for d, c := range hist {
		if c == 0 {
			continue
		}
		if printed == 12 {
			fmt.Printf(" …")
			break
		}
		fmt.Printf(" %d:%d", d, c)
		printed++
	}
	fmt.Println()
	fracs := []float64{0, 0.05, 0.1, 0.2, 0.4}
	fmt.Printf("  resilience at removal fractions %v:", fracs)
	res, err := stats.Resilience(context.Background(), g, fracs, 1)
	if err != nil {
		fatal(err)
	}
	for _, r := range res {
		fmt.Printf(" %.3f", r)
	}
	fmt.Println()
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "kstats:", err)
	os.Exit(1)
}
