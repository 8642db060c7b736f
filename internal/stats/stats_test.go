package stats

import (
	"context"
	"crypto/sha256"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"ksymmetry/internal/datasets"
	"ksymmetry/internal/graph"
)

func TestSampleCDF(t *testing.T) {
	s := NewSample([]float64{1, 2, 2, 4})
	cases := []struct{ x, want float64 }{
		{0, 0}, {1, 0.25}, {1.5, 0.25}, {2, 0.75}, {3, 0.75}, {4, 1}, {9, 1},
	}
	for _, c := range cases {
		if got := s.CDF(c.x); got != c.want {
			t.Errorf("CDF(%v) = %v, want %v", c.x, got, c.want)
		}
	}
}

func TestSampleMean(t *testing.T) {
	if got := NewSample([]float64{1, 2, 3}).Mean(); got != 2 {
		t.Fatalf("mean = %v", got)
	}
	if got := NewSample(nil).Mean(); got != 0 {
		t.Fatalf("empty mean = %v", got)
	}
}

func TestKSIdentical(t *testing.T) {
	a := NewSample([]float64{1, 2, 3, 4})
	if got := KolmogorovSmirnov(a, a); got != 0 {
		t.Fatalf("KS(a,a) = %v, want 0", got)
	}
}

func TestKSDisjoint(t *testing.T) {
	a := NewSample([]float64{1, 2})
	b := NewSample([]float64{10, 20})
	if got := KolmogorovSmirnov(a, b); got != 1 {
		t.Fatalf("KS of disjoint supports = %v, want 1", got)
	}
}

func TestKSKnownValue(t *testing.T) {
	a := NewSample([]float64{1, 2, 3, 4})
	b := NewSample([]float64{3, 4, 5, 6})
	// F_a(2)=0.5, F_b(2)=0 → D = 0.5.
	if got := KolmogorovSmirnov(a, b); got != 0.5 {
		t.Fatalf("KS = %v, want 0.5", got)
	}
}

func TestKSSymmetricAndBounded(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		mk := func() Sample {
			vs := make([]float64, 10+rng.Intn(10))
			for i := range vs {
				vs[i] = rng.NormFloat64()
			}
			return NewSample(vs)
		}
		a, b := mk(), mk()
		d1, d2 := KolmogorovSmirnov(a, b), KolmogorovSmirnov(b, a)
		return d1 == d2 && d1 >= 0 && d1 <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestKSEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("KS of empty sample did not panic")
		}
	}()
	KolmogorovSmirnov(NewSample(nil), NewSample([]float64{1}))
}

func TestAverageKS(t *testing.T) {
	ref := NewSample([]float64{1, 2})
	same := NewSample([]float64{1, 2})
	far := NewSample([]float64{10, 20})
	got := AverageKS(ref, []Sample{same, far})
	if got != 0.5 {
		t.Fatalf("average KS = %v, want 0.5", got)
	}
	if AverageKS(ref, nil) != 0 {
		t.Fatal("empty sample list should average to 0")
	}
}

// AverageKS must skip empty compared samples instead of panicking
// through KolmogorovSmirnov: PathLengthSample legitimately returns an
// empty sample on fragmented graphs, and those samples flow straight
// into AverageKS in the Figure 9/11 sweeps.
func TestAverageKSSkipsEmptySamples(t *testing.T) {
	ref := NewSample([]float64{1, 2})
	empty := NewSample(nil)
	far := NewSample([]float64{10, 20})

	// An empty compared sample contributes nothing — neither a panic nor
	// a dilution of the average over the remaining samples.
	if got := AverageKS(ref, []Sample{empty, far}); got != 1 {
		t.Fatalf("average KS with empty sample skipped = %v, want 1", got)
	}
	if got := AverageKS(ref, []Sample{empty, empty}); got != 0 {
		t.Fatalf("average KS over only empty samples = %v, want 0", got)
	}
	if got := AverageKS(empty, []Sample{far}); got != 0 {
		t.Fatalf("average KS with empty reference = %v, want 0", got)
	}
}

func TestDegreeSampleAndHistogram(t *testing.T) {
	g := graph.NewCSR(datasets.Star(4))
	s := DegreeSample(g)
	if s.Len() != 5 || s.Values()[4] != 4 {
		t.Fatalf("degree sample = %v", s.Values())
	}
	h := DegreeHistogram(g)
	if len(h) != 5 || h[1] != 4 || h[4] != 1 {
		t.Fatalf("degree histogram = %v", h)
	}
}

func TestPathLengthSample(t *testing.T) {
	g := graph.NewCSR(datasets.Path(10))
	rng := rand.New(rand.NewSource(42))
	s := PathLengthSample(g, 200, rng)
	if s.Len() != 200 {
		t.Fatalf("sample size = %d, want 200", s.Len())
	}
	for _, v := range s.Values() {
		if v < 1 || v > 9 {
			t.Fatalf("path length %v out of range [1,9]", v)
		}
	}
}

func TestPathLengthSampleDisconnected(t *testing.T) {
	// Two isolated vertices: no connected pairs, sample is empty rather
	// than hanging.
	g := graph.NewCSR(graph.New(2))
	s := PathLengthSample(g, 10, rand.New(rand.NewSource(1)))
	if s.Len() != 0 {
		t.Fatalf("disconnected sample = %v", s.Values())
	}
}

func TestPathLengthSampleTiny(t *testing.T) {
	if s := PathLengthSample(graph.NewCSR(graph.New(1)), 5, rand.New(rand.NewSource(1))); s.Len() != 0 {
		t.Fatal("single-vertex graph should yield empty sample")
	}
}

func TestClusteringSample(t *testing.T) {
	g := graph.NewCSR(datasets.Complete(4))
	s := ClusteringSample(g)
	for _, v := range s.Values() {
		if v != 1 {
			t.Fatalf("K4 clustering = %v, want all 1", s.Values())
		}
	}
	if got := GlobalClustering(g); got != 1 {
		t.Fatalf("global clustering = %v", got)
	}
	if got := GlobalClustering(graph.NewCSR(datasets.Cycle(5))); got != 0 {
		t.Fatalf("C5 clustering = %v, want 0", got)
	}
}

func TestResilienceStar(t *testing.T) {
	// Removing the hub of a star shatters it.
	g := graph.NewCSR(datasets.Star(9)) // 10 vertices
	r := resilience(t, g, []float64{0, 0.1})
	if r[0] != 1 {
		t.Fatalf("resilience at 0 = %v, want 1", r[0])
	}
	if r[1] != 0.1 {
		// Largest remaining component is a single vertex: 1/10.
		t.Fatalf("resilience after hub removal = %v, want 0.1", r[1])
	}
}

func TestResilienceMonotoneNonIncreasing(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := graph.New(30)
		for i := 0; i < 30; i++ {
			for j := i + 1; j < 30; j++ {
				if rng.Float64() < 0.1 {
					g.AddEdge(i, j)
				}
			}
		}
		fracs := []float64{0, 0.1, 0.2, 0.3, 0.5, 0.9, 1}
		r := resilience(t, graph.NewCSR(g), fracs)
		for i := 1; i < len(r); i++ {
			if r[i] > r[i-1]+1e-12 {
				return false
			}
		}
		return r[len(r)-1] == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestMerge(t *testing.T) {
	m := Merge([]Sample{NewSample([]float64{3, 1}), NewSample([]float64{2})})
	want := []float64{1, 2, 3}
	for i, v := range m.Values() {
		if v != want[i] {
			t.Fatalf("merged = %v", m.Values())
		}
	}
}

func TestSummarize(t *testing.T) {
	g := graph.NewCSR(datasets.Star(4))
	s := Summarize("star", g)
	if s.Vertices != 5 || s.Edges != 4 || s.MinDeg != 1 || s.MaxDeg != 4 || s.MedianDeg != 1 {
		t.Fatalf("summary = %+v", s)
	}
	if math.Abs(s.AvgDeg-1.6) > 1e-12 {
		t.Fatalf("avg degree = %v, want 1.6", s.AvgDeg)
	}
}

// resilience is the sequential Resilience series.
func resilience(t *testing.T, c *graph.CSR, fracs []float64) []float64 {
	t.Helper()
	r, err := Resilience(context.Background(), c, fracs, 1)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// TestResilienceCtxMatchesSequential: the fanned-out resilience series
// must equal the sequential one at every worker count (each fraction's
// pass is independent and written by index).
func TestResilienceCtxMatchesSequential(t *testing.T) {
	g := graph.NewCSR(datasets.ErdosRenyiGM(200, 400, 5))
	fracs := []float64{0, 0.1, 0.2, 0.3, 0.5}
	want := resilience(t, g, fracs)
	for _, workers := range []int{2, 4, 8} {
		got, err := Resilience(context.Background(), g, fracs, workers)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("workers=%d: resilience[%d] = %v, want %v", workers, i, got[i], want[i])
			}
		}
	}
}

// statsHash digests a statistic's printed value (%v prints float64s
// in their shortest round-trip form, so equal hashes mean equal bits).
func statsHash(v any) string {
	return fmt.Sprintf("%x", sha256.Sum256([]byte(fmt.Sprint(v))))[:16]
}

// slicePathPins holds what the adjacency-slice (*graph.Graph) versions
// of these statistics returned before they were removed: the summary
// row, hashes of the degree sample, degree histogram, clustering sample
// and the 50-pair path-length sample drawn with seed 3, the mean
// clustering, and the resilience series at sliceFracs.
var slicePathPins = map[string]struct {
	summary, degree, hist, clust, path string
	global                             float64
	res                                string
}{
	"ba": {
		summary: "{Name:ba Vertices:300 Edges:596 MinDeg:2 MaxDeg:38 MedianDeg:3 AvgDeg:3.973333333333333}",
		degree:  "9313baa6455b77b8", hist: "455cb15091bae41f", clust: "2086011270f1dd7c", path: "155f61bb92b146e6",
		global: 0.0431693330425315,
		res:    "[1 0.8933333333333333 0.7433333333333333 0.05333333333333334 0.013333333333333334]",
	},
	"ws": {
		summary: "{Name:ws Vertices:200 Edges:400 MinDeg:2 MaxDeg:6 MedianDeg:4 AvgDeg:4}",
		degree:  "b89042fd56c8aaec", hist: "4a523a4ec2947798", clust: "fed1fa00db0267f1", path: "d9f05f586cf90e83",
		global: 0.3860000000000002,
		res:    "[1 0.95 0.9 0.275 0.275]",
	},
	"empty": {
		summary: "{Name:empty Vertices:0 Edges:0 MinDeg:0 MaxDeg:0 MedianDeg:0 AvgDeg:0}",
		degree:  "4f53cda18c2baa0c", hist: "d0bca111f8628137", clust: "4f53cda18c2baa0c", path: "4f53cda18c2baa0c",
		res: "[0 0 0 0 0]",
	},
	"iso": {
		summary: "{Name:iso Vertices:5 Edges:0 MinDeg:0 MaxDeg:0 MedianDeg:0 AvgDeg:0}",
		degree:  "d30a7d50aead69ea", hist: "1ae3592f8248c3f8", clust: "d30a7d50aead69ea", path: "4f53cda18c2baa0c",
		res: "[0.2 0.2 0.2 0.2 0.2]",
	},
}

var sliceFracs = []float64{0, 0.05, 0.1, 0.2, 0.4}

// The CSR statistics must reproduce the removed adjacency-slice path
// exactly: same values, same draw sequences, same resilience series, at
// every worker count.
func TestCSRStatsMatchSlicePath(t *testing.T) {
	graphs := map[string]*graph.Graph{
		"ba":    datasets.BarabasiAlbert(300, 3, 2, 7),
		"ws":    datasets.WattsStrogatz(200, 4, 0.1, 9),
		"empty": graph.New(0),
		"iso":   graph.New(5),
	}
	for name, g := range graphs {
		want := slicePathPins[name]
		c := graph.NewCSR(g)
		if got := fmt.Sprintf("%+v", Summarize(name, c)); got != want.summary {
			t.Errorf("%s: Summarize = %s, want %s", name, got, want.summary)
		}
		if got := statsHash(DegreeSample(c).Values()); got != want.degree {
			t.Errorf("%s: DegreeSample hash = %s, want %s", name, got, want.degree)
		}
		if got := statsHash(DegreeHistogram(c)); got != want.hist {
			t.Errorf("%s: DegreeHistogram hash = %s, want %s", name, got, want.hist)
		}
		if got := statsHash(ClusteringSample(c).Values()); got != want.clust {
			t.Errorf("%s: ClusteringSample hash = %s, want %s", name, got, want.clust)
		}
		if got := GlobalClustering(c); got != want.global {
			t.Errorf("%s: GlobalClustering = %v, want %v", name, got, want.global)
		}
		if got := statsHash(PathLengthSample(c, 50, rand.New(rand.NewSource(3))).Values()); got != want.path {
			t.Errorf("%s: PathLengthSample draw sequence diverged (hash %s, want %s)", name, got, want.path)
		}
		for _, w := range []int{1, 4} {
			r, err := Resilience(context.Background(), c, sliceFracs, w)
			if err != nil {
				t.Fatalf("%s: Resilience workers=%d: %v", name, w, err)
			}
			if got := fmt.Sprint(r); got != want.res {
				t.Errorf("%s: Resilience workers=%d = %s, want %s", name, w, got, want.res)
			}
		}
		if got, want := c.IsConnected(), g.IsConnected(); got != want {
			t.Errorf("%s: CSR.IsConnected = %v, want %v", name, got, want)
		}
	}
}
