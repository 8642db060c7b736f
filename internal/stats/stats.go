// Package stats implements the network statistics the paper's utility
// evaluation (§4.3) measures on original and sampled graphs: degree
// distribution, shortest-path-length distribution over randomly sampled
// vertex pairs, clustering-coefficient (transitivity) distribution,
// resilience under hub removal, and the Kolmogorov-Smirnov statistic
// used to compare distributions across samples (Figure 9). The graph
// statistics read a frozen graph.CSR view; callers freeze each graph
// once with graph.NewCSR.
package stats

import (
	"context"
	"math/rand"
	"sort"

	"ksymmetry/internal/graph"
	"ksymmetry/internal/parallel"
)

// Sample is an empirical sample of a scalar network statistic, kept
// sorted for CDF evaluation.
type Sample struct {
	values []float64
}

// NewSample copies and sorts the given values.
func NewSample(values []float64) Sample {
	vs := append([]float64(nil), values...)
	sort.Float64s(vs)
	return Sample{values: vs}
}

// Len returns the number of observations.
func (s Sample) Len() int { return len(s.values) }

// Values returns the sorted observations (owned by the sample).
func (s Sample) Values() []float64 { return s.values }

// CDF returns the empirical CDF at x: the fraction of observations ≤ x.
func (s Sample) CDF(x float64) float64 {
	if len(s.values) == 0 {
		return 0
	}
	i := sort.SearchFloat64s(s.values, x)
	for i < len(s.values) && s.values[i] == x {
		i++
	}
	return float64(i) / float64(len(s.values))
}

// Mean returns the sample mean (0 for an empty sample).
func (s Sample) Mean() float64 {
	if len(s.values) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range s.values {
		sum += v
	}
	return sum / float64(len(s.values))
}

// KolmogorovSmirnov returns the KS statistic between two samples: the
// maximum vertical distance between their empirical CDFs. Both samples
// must be non-empty.
func KolmogorovSmirnov(a, b Sample) float64 {
	if a.Len() == 0 || b.Len() == 0 {
		panic("stats: KS statistic of empty sample")
	}
	max := 0.0
	// The supremum is attained at an observation point of either sample.
	for _, x := range a.values {
		if d := abs(a.CDF(x) - b.CDF(x)); d > max {
			max = d
		}
	}
	for _, x := range b.values {
		if d := abs(a.CDF(x) - b.CDF(x)); d > max {
			max = d
		}
	}
	return max
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// AverageKS is the "average K-S statistic value" of Figures 9 and 11:
// the mean KS distance between the reference sample and each of the
// non-empty compared samples. Empty compared samples are skipped rather
// than fed to KolmogorovSmirnov (which panics on them): PathLengthSample
// legitimately comes back empty on fragmented graphs, and one
// disconnected sampled graph must not take down a whole experiment
// sweep. When the reference is empty or every compared sample is, there
// is no distance to report and the result is 0.
func AverageKS(ref Sample, samples []Sample) float64 {
	if ref.Len() == 0 {
		return 0
	}
	sum, n := 0.0, 0
	for _, s := range samples {
		if s.Len() == 0 {
			continue
		}
		sum += KolmogorovSmirnov(ref, s)
		n++
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// Merge pools several samples into one — the cross-sample aggregation
// used when Figure 8 overlays 20 sampled graphs against the original.
func Merge(samples []Sample) Sample {
	var all []float64
	for _, s := range samples {
		all = append(all, s.values...)
	}
	return NewSample(all)
}

// Summary holds the Table 1 statistics of a network.
type Summary struct {
	Name            string
	Vertices, Edges int
	MinDeg, MaxDeg  int
	MedianDeg       int
	AvgDeg          float64
}

// DegreeSample returns the degree of every vertex as a sample — the
// "Degree" panel of Figure 8.
func DegreeSample(c *graph.CSR) Sample {
	vs := make([]float64, c.N())
	for v := 0; v < c.N(); v++ {
		vs[v] = float64(c.Degree(v))
	}
	return NewSample(vs)
}

// DegreeHistogram returns counts by degree, indexed 0..MaxDegree.
func DegreeHistogram(c *graph.CSR) []int {
	h := make([]int, c.MaxDegree()+1)
	for v := 0; v < c.N(); v++ {
		h[c.Degree(v)]++
	}
	return h
}

// PathLengthSample returns the shortest-path lengths between `pairs`
// randomly sampled distinct vertex pairs (§4.3 uses 500). Disconnected
// pairs are skipped; up to 20·pairs draws are attempted, so the result
// can be shorter than requested on fragmented graphs. Each pair runs an
// early-exit BFS over the CSR rows.
func PathLengthSample(c *graph.CSR, pairs int, rng *rand.Rand) Sample {
	var vs []float64
	if c.N() >= 2 {
		for attempts := 0; len(vs) < pairs && attempts < 20*pairs; attempts++ {
			u := rng.Intn(c.N())
			v := rng.Intn(c.N())
			if u == v {
				continue
			}
			if d := c.ShortestPathLength(u, v); d > 0 {
				vs = append(vs, float64(d))
			}
		}
	}
	return NewSample(vs)
}

// ClusteringSample returns the local clustering coefficient of every
// vertex — the "Transitivity" panel of Figure 8.
func ClusteringSample(c *graph.CSR) Sample {
	vs := make([]float64, c.N())
	for v := 0; v < c.N(); v++ {
		vs[v] = c.LocalClustering(v)
	}
	return NewSample(vs)
}

// GlobalClustering returns the mean local clustering coefficient.
func GlobalClustering(c *graph.CSR) float64 {
	return ClusteringSample(c).Mean()
}

// Resilience returns, for each removal fraction, the fraction of the
// original vertex count remaining in the largest connected component
// after deleting the ⌈frac·N⌉ highest-degree vertices (descending
// initial degree, the Albert-Jeong-Barabási attack of §4.3's
// "Resiliency" panel). The per-fraction passes are independent and fan
// out across `workers` goroutines (0 = GOMAXPROCS, 1 = sequential); the
// series is written by fraction index, so it is identical at every
// worker count. Each pass runs the component sweep directly over the
// surviving vertices, skipping removed endpoints, instead of
// materializing the induced subgraph.
func Resilience(ctx context.Context, c *graph.CSR, fracs []float64, workers int) ([]float64, error) {
	order := c.VerticesByDegreeDesc()
	return parallel.Map(ctx, workers, len(fracs), func(_ context.Context, _, i int) (float64, error) {
		if c.N() == 0 {
			return 0, nil
		}
		m := int(float64(c.N())*fracs[i] + 0.5)
		if m > c.N() {
			m = c.N()
		}
		removed := make([]bool, c.N())
		for _, v := range order[:m] {
			removed[v] = true
		}
		seen := make([]bool, c.N())
		queue := make([]int32, 0, 1024)
		max := 0
		for s := 0; s < c.N(); s++ {
			if removed[s] || seen[s] {
				continue
			}
			seen[s] = true
			queue = append(queue[:0], int32(s))
			size := 0
			for len(queue) > 0 {
				v := queue[0]
				queue = queue[1:]
				size++
				for _, w := range c.Neighbors(int(v)) {
					if !removed[w] && !seen[w] {
						seen[w] = true
						queue = append(queue, w)
					}
				}
			}
			if size > max {
				max = size
			}
		}
		return float64(max) / float64(c.N()), nil
	})
}

// Summarize computes the Table 1 row for a graph.
func Summarize(name string, c *graph.CSR) Summary {
	return Summary{
		Name:      name,
		Vertices:  c.N(),
		Edges:     c.M(),
		MinDeg:    c.MinDegree(),
		MaxDeg:    c.MaxDegree(),
		MedianDeg: c.MedianDegree(),
		AvgDeg:    c.AvgDegree(),
	}
}
