// Command kbench is the repository's benchmark. It runs one workload at a
// seed through the shipped commands (ksym, ksample, ksymd), checks every
// output, and prints one JSON line with the operations attempted and failed
// and the metrics BENCHMARK.json names: the end-to-end ones, or with
// -trace 1 the per-layer ones from a traced run that calls each layer's
// public functions in-process. When an operation failed, the line reads
// correct:false and the run exits 1.
//
// Run it through run.sh, which builds the commands from the checkout:
//
//	bash kbench/run.sh --workload paper-exact --seed 1 --seconds 20 --trace 0
//
// README.md describes the workloads and metrics.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// start is the process's start, from which setup_s is measured.
var start = time.Now()

// runLimit bounds a run, leaving time to stop ksymd and report before the
// 180 s a run may take.
const runLimit = 150 * time.Second

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// bench is one benchmark run: its settings, the operations it attempted
// and failed, and the metrics it measured.
type bench struct {
	// ctx ends shortly before the run must have exited.
	ctx       context.Context
	workload  string
	root, bin string // checkout root and the directory of the built commands
	dir       string // this run's scratch directory, removed at exit
	seed      int64
	seconds   time.Duration
	trace     bool

	attempted, failed int
	// setupDone is when the first timed operation began.
	setupDone time.Time
	// roundStart is when the latest round began.
	roundStart time.Time
	metrics    map[string]float64
}

// op records one attempted operation, failed when err is non-nil.
func (b *bench) op(what string, err error) {
	b.attempted++
	if err != nil {
		b.failed++
		fmt.Fprintf(os.Stderr, "kbench: %s: %v\n", what, err)
	}
}

// endSetup marks the start of the first timed operation.
func (b *bench) endSetup() {
	if b.setupDone.IsZero() {
		b.setupDone = time.Now()
	}
}

// more reports whether another round fits in the run: the first round
// always runs, and a later one starts only while -seconds has not passed
// and, if it takes as long as the round before it, it ends before
// runLimit, so that no round is cut off by the run's deadline.
func (b *bench) more(round int) bool {
	now := time.Now()
	last := now.Sub(b.roundStart)
	b.roundStart = now
	return round == 0 || now.Sub(b.setupDone) < b.seconds && now.Add(last).Before(start.Add(runLimit))
}

func (b *bench) set(name string, v float64) { b.metrics[name] = v }

var workloads = map[string]func(*bench) error{
	"paper-exact":   runPaperExact,
	"scale-tdv":     runScaleTDV,
	"serve-sharded": runServeSharded,
}

func main() {
	var (
		workload = flag.String("workload", "", "workload name: paper-exact, scale-tdv or serve-sharded")
		seed     = flag.Int64("seed", 1, "seed the inputs are generated from")
		seconds  = flag.Int("seconds", 20, "how long to keep starting rounds of the workload")
		trace    = flag.Int("trace", 0, "1 reports the per-layer metrics of a traced run, 0 the end-to-end metrics")
		root     = flag.String("root", ".", "root of the checkout")
		bin      = flag.String("bin", "", "directory holding the built ksym, ksample and ksymd")
	)
	flag.Parse()
	run, ok := workloads[*workload]
	if !ok || *trace < 0 || *trace > 1 || *seconds < 1 || *bin == "" {
		fmt.Fprintln(os.Stderr, "kbench: need -workload paper-exact|scale-tdv|serve-sharded, -trace 0|1, -seconds ≥ 1 and -bin")
		os.Exit(2)
	}
	want, err := declaredMetrics(*root, *trace == 1)
	if err != nil {
		fatal(err)
	}
	ctx, cancel := context.WithDeadline(context.Background(), start.Add(runLimit))
	defer cancel()
	b := &bench{
		ctx:      ctx,
		workload: *workload,
		root:     *root,
		bin:      *bin,
		dir:      filepath.Join(*root, ".bench_build", "run", fmt.Sprintf("%s-%d", *workload, os.Getpid())),
		seed:     *seed,
		seconds:  time.Duration(*seconds) * time.Second,
		trace:    *trace == 1,
		metrics:  map[string]float64{},
	}
	if err := os.MkdirAll(b.dir, 0o755); err != nil {
		fatal(err)
	}
	err = run(b)
	os.RemoveAll(b.dir)
	if err != nil {
		fatal(err)
	}
	if !b.trace {
		b.set("setup_s", b.setupDone.Sub(start).Seconds())
	}
	out, err := b.result(want)
	if err != nil {
		fatal(err)
	}
	line, err := json.Marshal(out)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
	if !out.Correct {
		os.Exit(1)
	}
}

// result is the line a run prints.
type result struct {
	// Correct is false when any operation failed: its command did not
	// finish, or one of its outputs failed a check.
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// result reports the run's operations and, of its metrics, the ones want
// declares, with their units.
func (b *bench) result(want map[string]string) (result, error) {
	out := result{b.failed == 0, b.attempted, b.failed, map[string]metric{}}
	for name, unit := range want {
		// A layer the workload does not call reads 0 (README.md lists
		// which layers each workload calls).
		out.Metrics[name] = metric{b.metrics[name], unit}
	}
	for name := range b.metrics {
		if _, ok := want[name]; !ok {
			return out, fmt.Errorf("metric %s missing from BENCHMARK.json", name)
		}
	}
	return out, nil
}

// declaredMetrics reads the names and units of the end-to-end or the
// per-layer metrics from BENCHMARK.json, so the two cannot drift apart.
func declaredMetrics(root string, perLayer bool) (map[string]string, error) {
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	type entry struct{ Name, Unit string }
	var spec struct {
		EndToEnd []entry `json:"end_to_end"`
		PerLayer []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	list := spec.EndToEnd
	if perLayer {
		list = spec.PerLayer
	}
	out := map[string]string{}
	for _, e := range list {
		out[e.Name] = e.Unit
	}
	return out, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "kbench:", err)
	os.Exit(1)
}
