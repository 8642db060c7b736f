package sampling

import (
	"bytes"
	"context"
	"runtime"
	"testing"

	"ksymmetry/internal/datasets"
	"ksymmetry/internal/faulttest"
	"ksymmetry/internal/graph"
	"ksymmetry/internal/ksym"
	"ksymmetry/internal/partition"
	"ksymmetry/internal/refine"
)

// renderBatch serializes every sampled graph so determinism checks
// compare exact edge lists, not summaries.
func renderBatch(t *testing.T, samples []*graph.Graph) []string {
	t.Helper()
	out := make([]string, len(samples))
	for i, s := range samples {
		var buf bytes.Buffer
		if err := s.Write(&buf); err != nil {
			t.Fatal(err)
		}
		out[i] = buf.String()
	}
	return out
}

// TestBatchDeterministicAcrossWorkers is the tentpole guarantee: the
// batch is byte-identical at every Parallelism value, because sample
// i's RNG is derived from (Seed, i) rather than shared.
func TestBatchDeterministicAcrossWorkers(t *testing.T) {
	g, res := anonFig3(t, 3)
	const count = 12
	workerCounts := []int{1, 4, runtime.GOMAXPROCS(0)}
	var want []string
	for _, wk := range workerCounts {
		samples, err := Batch(res.Graph, res.Partition, g.N(), count, &Options{Seed: 42, Parallelism: wk})
		if err != nil {
			t.Fatalf("workers=%d: %v", wk, err)
		}
		if len(samples) != count {
			t.Fatalf("workers=%d: got %d samples, want %d", wk, len(samples), count)
		}
		got := renderBatch(t, samples)
		if want == nil {
			want = got
			continue
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("workers=%d: sample %d differs from workers=%d run:\n%s\nvs\n%s",
					wk, i, workerCounts[0], got[i], want[i])
			}
		}
	}
}

// TestBatchExactDeterministic covers the exact sampler path (which also
// exercises the concurrent backbone when Parallelism ≥ 2).
func TestBatchExactDeterministic(t *testing.T) {
	g, res := anonFig3(t, 3)
	const count = 6
	var want []string
	for _, wk := range []int{1, 4} {
		samples, err := Batch(res.Graph, res.Partition, g.N(), count,
			&Options{Seed: 7, Parallelism: wk, Method: SamplerExact})
		if err != nil {
			t.Fatalf("workers=%d: %v", wk, err)
		}
		got := renderBatch(t, samples)
		if want == nil {
			want = got
			continue
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("exact batch not deterministic: sample %d differs between workers 1 and 4", i)
			}
		}
	}
}

// TestBatchSeedVariation: distinct seeds must not replay the same
// stream (12 approximate samples of Fig.3 under two seeds colliding on
// every sample would mean DeriveSeed ignores its input).
func TestBatchSeedVariation(t *testing.T) {
	g, res := anonFig3(t, 3)
	a, err := Batch(res.Graph, res.Partition, g.N(), 12, &Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Batch(res.Graph, res.Partition, g.N(), 12, &Options{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	ra, rb := renderBatch(t, a), renderBatch(t, b)
	same := 0
	for i := range ra {
		if ra[i] == rb[i] {
			same++
		}
	}
	if same == len(ra) {
		t.Fatalf("seeds 1 and 2 produced identical batches")
	}
}

// TestBatchRejectsInvalidOptions: Batch validates its arguments once,
// before any sample runs.
func TestBatchRejectsInvalidOptions(t *testing.T) {
	g, res := anonFig3(t, 3)
	if _, err := Batch(res.Graph, res.Partition, g.N(), 2, nil); err == nil {
		t.Fatal("Batch accepted nil Options")
	}
	if _, err := Batch(res.Graph, res.Partition, g.N(), -1, &Options{}); err == nil {
		t.Fatal("Batch accepted a negative count")
	}
	for _, m := range []Sampler{SamplerExact, SamplerApproximate} {
		if _, err := Batch(res.Graph, res.Partition, g.N(), 2, &Options{Method: m, Probabilities: []float64{1}}); err == nil {
			t.Fatalf("method %d: Batch accepted a wrong probability count", m)
		}
		if _, err := Batch(res.Graph, partition.Unit(2), 2, 2, &Options{Method: m}); err == nil {
			t.Fatalf("method %d: Batch accepted a mismatched partition", m)
		}
	}
}

// TestBatchEmpty: a zero-count batch succeeds with no samples.
func TestBatchEmpty(t *testing.T) {
	g, res := anonFig3(t, 3)
	samples, err := Batch(res.Graph, res.Partition, g.N(), 0, &Options{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) != 0 {
		t.Fatalf("got %d samples, want 0", len(samples))
	}
}

// TestDeriveSeedStreams: nearby (seed, stream) pairs must map to
// distinct stream seeds — a collision would hand two samples the same
// RNG.
func TestDeriveSeedStreams(t *testing.T) {
	seen := map[int64]string{}
	for seed := int64(-2); seed <= 2; seed++ {
		for stream := 0; stream < 100; stream++ {
			s := DeriveSeed(seed, stream)
			if s == seed {
				t.Fatalf("DeriveSeed(%d,%d) returned the base seed", seed, stream)
			}
			if prev, dup := seen[s]; dup {
				t.Fatalf("DeriveSeed collision: (%d,%d) and %s", seed, stream, prev)
			}
			seen[s] = ""
		}
	}
}

// TestCancelBatch cancels a large batch mid-flight: every in-flight
// sample must notice, no goroutines may leak, and the error must be the
// cancellation (not a worker artifact).
func TestCancelBatch(t *testing.T) {
	g := datasets.ErdosRenyiGM(20000, 60000, 7)
	p := refine.TotalDegreePartition(g)
	res, err := ksym.Anonymize(g, p, 5)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	base := faulttest.Goroutines()
	errc := make(chan error, 1)
	go func() {
		_, err := BatchCtx(ctx, res.Graph, res.Partition, g.N(), 64, &Options{Seed: 3, Parallelism: 4})
		errc <- err
	}()
	cancel()
	faulttest.ExpectErr(t, errc, context.Canceled)
	faulttest.AssertNoLeak(t, base)
}
