// Command kgen generates graphs in edge-list format: the calibrated
// synthetic stand-ins for the paper's networks, the paper's worked
// example graphs, and classic random-graph models for experimentation.
//
// Usage:
//
//	kgen -model enron -out enron.edges
//	kgen -model er -n 1000 -m 3000 -seed 7 -out er.edges
//	kgen -model ba -n 1000 -m 3 -out ba.edges
//	kgen -model config -degrees "3,3,2,2,1,1" -out cm.edges
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"ksymmetry/internal/datasets"
	"ksymmetry/internal/graph"
	"ksymmetry/internal/stats"
)

func main() {
	var (
		model   = flag.String("model", "", "enron|hepth|nettrace|fig1|fig3|er|ba|config|cycle|star|complete|petersen")
		n       = flag.Int("n", 100, "vertex count (er, ba, cycle, star, complete)")
		m       = flag.Int("m", 200, "edge count (er) or edges per new vertex (ba)")
		degrees = flag.String("degrees", "", "comma-separated degree sequence (config)")
		seed    = flag.Int64("seed", datasets.DefaultSeed, "random seed")
		out     = flag.String("out", "", "output path (default stdout)")
	)
	flag.Parse()

	g, err := generate(*model, *n, *m, *degrees, *seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "kgen:", err)
		os.Exit(1)
	}
	s := stats.Summarize(*model, graph.NewCSR(g))
	fmt.Fprintf(os.Stderr, "%s: %d vertices, %d edges, degree min/median/avg/max = %d/%d/%.2f/%d\n",
		s.Name, s.Vertices, s.Edges, s.MinDeg, s.MedianDeg, s.AvgDeg, s.MaxDeg)
	if *out == "" {
		err = g.Write(os.Stdout)
	} else {
		err = g.WriteFile(*out)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "kgen:", err)
		os.Exit(1)
	}
}

func generate(model string, n, m int, degrees string, seed int64) (*graph.Graph, error) {
	switch model {
	case "enron":
		return datasets.Enron(seed), nil
	case "hepth":
		return datasets.Hepth(seed), nil
	case "nettrace":
		return datasets.NetTrace(seed), nil
	case "fig1":
		return datasets.Fig1(), nil
	case "fig3":
		return datasets.Fig3(), nil
	case "er":
		return datasets.ErdosRenyiGM(n, m, seed), nil
	case "ba":
		return datasets.BarabasiAlbert(n, m+1, m, seed), nil
	case "config":
		if degrees == "" {
			return nil, fmt.Errorf("config model needs -degrees")
		}
		var ds []int
		for _, f := range strings.Split(degrees, ",") {
			d, err := strconv.Atoi(strings.TrimSpace(f))
			if err != nil {
				return nil, fmt.Errorf("bad degree %q: %w", f, err)
			}
			ds = append(ds, d)
		}
		return datasets.ConfigurationModel(ds, seed), nil
	case "cycle":
		return datasets.Cycle(n), nil
	case "star":
		return datasets.Star(n), nil
	case "complete":
		return datasets.Complete(n), nil
	case "petersen":
		return datasets.Petersen(), nil
	case "":
		return nil, fmt.Errorf("-model is required")
	default:
		return nil, fmt.Errorf("unknown model %q", model)
	}
}
