package ksymmetry

// Golden equivalence pins for the CSR migration. Every hash below was
// captured from the adjacency-slice kernels BEFORE the hot paths
// (refinement splitter scans, backbone classification, the sampling
// DFS) were retuned onto the frozen CSR rows, so this test is the
// byte-identity proof the migration promised: on each paper network the
// 𝒯𝒟𝒱 and orbit partitions, the backbone, the k=2 anonymization, and
// both samplers at worker counts 1 and 4 still produce exactly the
// bytes the old representation produced. A mismatch is a determinism
// regression — fix the kernel, never the pin.

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"testing"

	"ksymmetry/internal/automorphism"
	"ksymmetry/internal/datasets"
	"ksymmetry/internal/graph"
	"ksymmetry/internal/ksym"
	"ksymmetry/internal/partition"
	"ksymmetry/internal/refine"
	"ksymmetry/internal/sampling"
)

func graphHash(t *testing.T, g *graph.Graph) string {
	t.Helper()
	var buf bytes.Buffer
	if err := g.Write(&buf); err != nil {
		t.Fatalf("write: %v", err)
	}
	return fmt.Sprintf("%x", sha256.Sum256(buf.Bytes()))[:16]
}

func partitionHash(p *partition.Partition) string {
	return fmt.Sprintf("%x", sha256.Sum256([]byte(p.String())))[:16]
}

func batchHash(t *testing.T, gp *graph.Graph, vp *partition.Partition, n int, method sampling.Sampler, workers int) string {
	t.Helper()
	samples, err := sampling.Batch(gp, vp, n, 3, &sampling.Options{Seed: 42, Parallelism: workers, Method: method})
	if err != nil {
		t.Fatalf("batch: %v", err)
	}
	var buf bytes.Buffer
	for _, s := range samples {
		if err := s.Write(&buf); err != nil {
			t.Fatalf("write sample: %v", err)
		}
	}
	return fmt.Sprintf("%x", sha256.Sum256(buf.Bytes()))[:16]
}

type equivPins struct {
	tdv, orb      string
	backbone      string // graph/partition
	anon          string // graph/partition, k=2
	approx, exact string // batch of 3, seed 42, both worker counts
}

var equivGolden = map[string]equivPins{
	"Enron": {
		tdv: "c81f2a6080308899", orb: "c81f2a6080308899",
		backbone: "870e82bbfb6c5b42/8528789fb1af0805",
		anon:     "8a972c534bd02baa/79d87a424c042e49",
		approx:   "ae5f10804bf187a6", exact: "93d840cf07354edb",
	},
	"Hepth": {
		tdv: "6fbf316916a53354", orb: "6fbf316916a53354",
		backbone: "fb2fc40cc262bcd2/f278a71fe93c1308",
		anon:     "5d91be6225a0724d/3d9f5c4bc7fe376a",
		approx:   "d3e5fc99e11529d2", exact: "c48544d3b7b455e3",
	},
	"Net-trace": {
		tdv: "f9b6edea29090482", orb: "f9b6edea29090482",
		backbone: "5b5b15fa50ce7e40/74960c1609487cf5",
		anon:     "0c8057ab85183dd3/2fbe6b0c9ce94da7",
		approx:   "780144f9a5592c4e", exact: "78caae3dcf71d18f",
	},
	"fig3": {
		tdv: "56773cb3844e27a4", orb: "56773cb3844e27a4",
		backbone: "ce572dfa3ad22451/17b6e5944fa57eb9",
		anon:     "f22d2c8a2f2b66e2/53a1ab0bed5b8f61",
		approx:   "83f5bcd7a68392c4", exact: "a3ecf639895e07bd",
	},
}

func equivNetworks(t *testing.T) map[string]*graph.Graph {
	t.Helper()
	nets := datasets.Networks()
	fig3, err := graph.ReadFile("examples/data/fig3.edges")
	if err != nil {
		t.Fatalf("fig3: %v", err)
	}
	nets["fig3"] = fig3
	return nets
}

func TestCSRKernelsMatchSliceGolden(t *testing.T) {
	for name, g := range equivNetworks(t) {
		name, g := name, g
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			want := equivGolden[name]
			tdv := refine.TotalDegreePartition(g)
			if got := partitionHash(tdv); got != want.tdv {
				t.Errorf("tdv partition hash = %s, want %s", got, want.tdv)
			}
			// The frozen-view entry point must hit the same pin at worker
			// counts 1 and 4 (these networks are under the parallel pass's
			// size cutover, but the routing itself is part of the
			// contract).
			for _, w := range []int{1, 4} {
				tdvCSR, err := refine.TotalDegreePartitionWorkersCSRCtx(context.Background(), graph.NewCSR(g), w)
				if err != nil {
					t.Fatalf("tdv w=%d: %v", w, err)
				}
				if got := partitionHash(tdvCSR); got != want.tdv {
					t.Errorf("tdv-via-CSR w=%d partition hash = %s, want %s", w, got, want.tdv)
				}
			}
			// The orbit search is pinned at worker counts 1 and 4: the
			// parallel classifier promises byte-identical orbits AND a
			// byte-identical generator sequence at every pool size.
			var genHash string
			for _, w := range []int{1, 4} {
				orb, gens, err := automorphism.OrbitPartition(g, &automorphism.Options{Workers: w})
				if err != nil {
					t.Fatalf("orbit w=%d: %v", w, err)
				}
				if got := partitionHash(orb); got != want.orb {
					t.Errorf("orbit w=%d partition hash = %s, want %s", w, got, want.orb)
				}
				if h := automorphism.GeneratorSetHash(gens); w == 1 {
					genHash = h
				} else if h != genHash {
					t.Errorf("orbit w=%d generator hash = %s, want %s (w=1)", w, h, genHash)
				}
			}
			for _, w := range []int{1, 4} {
				bb, err := ksym.BackboneWorkersCtx(context.Background(), g, tdv, w)
				if err != nil {
					t.Fatalf("backbone w=%d: %v", w, err)
				}
				if got := graphHash(t, bb.Graph) + "/" + partitionHash(bb.Partition); got != want.backbone {
					t.Errorf("backbone w=%d hash = %s, want %s", w, got, want.backbone)
				}
			}
			res, err := ksym.Anonymize(g, tdv, 2)
			if err != nil {
				t.Fatalf("anonymize: %v", err)
			}
			if got := graphHash(t, res.Graph) + "/" + partitionHash(res.Partition); got != want.anon {
				t.Errorf("anonymization hash = %s, want %s", got, want.anon)
			}
			gp, vp := res.Graph, res.Partition
			n := gp.N() / 2
			if n < vp.NumCells() {
				n = vp.NumCells()
			}
			for _, w := range []int{1, 4} {
				if got := batchHash(t, gp, vp, n, sampling.SamplerApproximate, w); got != want.approx {
					t.Errorf("approx batch w=%d hash = %s, want %s", w, got, want.approx)
				}
				if got := batchHash(t, gp, vp, n, sampling.SamplerExact, w); got != want.exact {
					t.Errorf("exact batch w=%d hash = %s, want %s", w, got, want.exact)
				}
			}
		})
	}
}
