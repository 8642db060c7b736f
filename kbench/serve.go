package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptrace"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"ksymmetry/internal/datasets"
	"ksymmetry/internal/graph"
)

// The serve-sharded workload: two tenants submit graphs to a sharded
// ksymd front over two backends. One client, over at most two
// connections, drives three phases: the interactive tenant's open loop on
// a fixed schedule, bursts of small interactive jobs back to back, and
// the bulk tenant's large jobs one at a time. Between the first two, an
// analyst samples some of the open loop's releases with ksample.

const (
	// openJobs interactive jobs arrive every openInterval (2.5 jobs/s),
	// well below what the two one-worker backends complete, so the open
	// loop measures the path every job takes, not a growing queue.
	openJobs     = 80
	openInterval = 400 * time.Millisecond
	// bursts of burstJobs small interactive jobs each are sent back to
	// back, one burst after another; jobs_per_s is their median rate. The
	// front's queue cap is far above a burst.
	bursts    = 3
	burstJobs = 100
	// bulkJobs large jobs are sent one at a time, each when the last
	// one's release is in hand, as a publisher of big graphs would.
	bulkJobs = 4
	// The analyst draws drawSamples samples from each of the first
	// analystDraws Hepth-sized releases.
	analystDraws = 8
	drawSamples  = 20
	// pollInterval is how often the client asks whether a job is done.
	pollInterval = 20 * time.Millisecond
	// maxConns is the client's connection limit.
	maxConns = 2
	// jobTimeout is generous, so that no job leaves its rung.
	jobTimeout = "5m"
	bulkN      = 100_000
)

// jobKind is one kind of job and its share of a phase's jobs.
type jobKind struct {
	kind     string
	k, count int
}

var (
	// openMix is the interactive open loop, per ten jobs: Enron-sized
	// graphs at k = 10, which a backend finishes in milliseconds, and
	// Hepth-sized graphs at k = 10, whose 5 MB releases make transfer the
	// larger part of the job. The median falls among the Enron jobs and
	// the tail among the Hepth jobs.
	openMix  = []jobKind{{"enron", 10, 7}, {"hepth", 10, 3}}
	burstMix = []jobKind{{"enron", 10, 1}}
	bulkMix  = []jobKind{{"ba", 2, 1}}
)

// serveJob is one job: its request, and what the client saw of it.
type serveJob struct {
	kind, tenant, mode string
	k                  int
	body               []byte // the graph in edge-list format

	due, sent, inHand time.Time
	submitS, resultS  float64
	status            jobStatus
	release           []byte
	added             int // vertices the release added
	err               error
}

// jobStatus is the part of GET /v1/jobs/{id} the benchmark reads.
type jobStatus struct {
	ID          string     `json:"id"`
	State       string     `json:"state"`
	SubmittedAt time.Time  `json:"submitted_at"`
	StartedAt   *time.Time `json:"started_at"`
	FinishedAt  *time.Time `json:"finished_at"`
	Summary     *struct {
		PartitionMode string   `json:"partition_mode"`
		Downgrades    []string `json:"downgrades"`
		Stages        []struct {
			DurationMS float64 `json:"duration_ms"`
		} `json:"stages"`
	} `json:"summary"`
}

func (s jobStatus) terminal() bool {
	switch s.State {
	case "done", "failed", "canceled", "quarantined":
		return true
	}
	return false
}

// newServeJobs builds n jobs of the mix, its kinds spread evenly over the
// schedule, each graph generated from its own seed so that placement
// spreads them. Bulk jobs are Barabási–Albert graphs on the 𝒯𝒟𝒱 rung.
func newServeJobs(n int, rng *rand.Rand, mix []jobKind) ([]*serveJob, error) {
	// Smooth weighted round robin: every slot goes to the kind furthest
	// behind its share, so the order is the same for every seed.
	total := 0
	for _, m := range mix {
		total += m.count
	}
	credit := make([]int, len(mix))
	jobs := make([]*serveJob, n)
	for i := range jobs {
		best := 0
		for k, m := range mix {
			credit[k] += m.count
			if credit[k] > credit[best] {
				best = k
			}
		}
		credit[best] -= total
		jobs[i] = &serveJob{kind: mix[best].kind, tenant: "interactive", mode: "exact", k: mix[best].k}
	}
	for _, j := range jobs {
		seed := rng.Int63()
		var g *graph.Graph
		switch j.kind {
		case "enron":
			g = datasets.Enron(seed)
		case "hepth":
			g = datasets.Hepth(seed)
		case "nettrace":
			g = datasets.NetTrace(seed)
		case "ba":
			g = datasets.ScaleGraph("BA", bulkN, seed)
			j.tenant, j.mode = "bulk", "tdv"
		}
		var buf bytes.Buffer
		if err := g.Write(&buf); err != nil {
			return nil, err
		}
		j.body = buf.Bytes()
	}
	return jobs, nil
}

// client talks to the front over at most maxConns connections.
type client struct {
	base string
	http *http.Client
}

func (c *client) get(ctx context.Context, path string) ([]byte, int, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+path, nil)
	if err != nil {
		return nil, 0, err
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return body, resp.StatusCode, err
}

// run submits j and waits for its release.
func (c *client) run(ctx context.Context, j *serveJob) {
	if j.err = c.submit(ctx, j); j.err == nil {
		c.await(ctx, j)
	}
}

// await polls a submitted job's status, at once and then every
// pollInterval until it is terminal, and fetches its release.
func (c *client) await(ctx context.Context, j *serveJob) {
	for {
		body, code, err := c.get(ctx, "/v1/jobs/"+j.status.ID)
		if err == nil {
			err = decode(body, code, http.StatusOK, &j.status)
		}
		if err != nil {
			j.err = err
			return
		}
		if j.status.terminal() {
			break
		}
		time.Sleep(pollInterval)
	}
	if j.status.State != "done" {
		j.err = fmt.Errorf("job %s ended %s", j.status.ID, j.status.State)
		return
	}
	t0 := time.Now()
	body, code, err := c.get(ctx, "/v1/jobs/"+j.status.ID+"/result")
	j.inHand = time.Now()
	j.resultS = j.inHand.Sub(t0).Seconds()
	if err == nil && code != http.StatusOK {
		err = fmt.Errorf("result: HTTP %d: %s", code, tail(body))
	}
	j.release, j.err = body, err
}

func (c *client) submit(ctx context.Context, j *serveJob) error {
	q := fmt.Sprintf("/v1/anonymize?k=%d&mode=%s&timeout=%s", j.k, j.mode, jobTimeout)
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+q, bytes.NewReader(j.body))
	if err != nil {
		return err
	}
	req.Header.Set("X-Tenant", j.tenant)
	// The job is sent when the client holds a connection for it.
	req = req.WithContext(httptrace.WithClientTrace(ctx, &httptrace.ClientTrace{
		GotConn: func(httptrace.GotConnInfo) { j.sent = time.Now() },
	}))
	t0 := time.Now()
	resp, err := c.http.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	j.submitS = time.Since(t0).Seconds()
	if err != nil {
		return err
	}
	return decode(body, resp.StatusCode, http.StatusAccepted, &j.status)
}

func decode(body []byte, code, want int, v any) error {
	if code != want {
		return fmt.Errorf("HTTP %d, want %d: %s", code, want, tail(body))
	}
	return json.Unmarshal(body, v)
}

// fsyncs reads journal.fsyncs from the front's /metrics.
func (c *client) fsyncs(ctx context.Context) (float64, error) {
	body, code, err := c.get(ctx, "/metrics")
	if err != nil {
		return 0, err
	}
	var m map[string]float64
	if err := decode(body, code, http.StatusOK, &m); err != nil {
		return 0, err
	}
	return m["journal.fsyncs"], nil
}

// front is a running `ksymd -shard-exec 2` and the backends it spawned.
type front struct {
	cmd    *exec.Cmd
	log    *frontLog
	addr   string
	exited chan struct{} // closed once cmd.Wait has returned
}

// frontLog keeps ksymd's diagnostics and finds the front's address: the
// first "listening on" line after the front reports its backends (each
// backend prints its own before that).
type frontLog struct {
	mu    sync.Mutex
	buf   bytes.Buffer
	addr  chan string
	found bool
}

func (l *frontLog) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.buf.Write(p)
	if !l.found {
		text := l.buf.String()
		if i := strings.Index(text, "sharded front over"); i >= 0 {
			rest := text[i:]
			const mark = "listening on http://"
			if j := strings.Index(rest, mark); j >= 0 {
				if f := strings.Fields(rest[j+len(mark):]); len(f) > 1 {
					l.found = true
					l.addr <- f[0]
				}
			}
		}
	}
	return len(p), nil
}

func (l *frontLog) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return string(tail(l.buf.Bytes()))
}

// startFront starts the sharded front with durable jobs, queue caps far
// above the workload and a generous timeout ceiling, and waits until it
// answers /readyz.
func (b *bench) startFront(ctx context.Context, c *client) (*front, error) {
	f := &front{log: &frontLog{addr: make(chan string, 1)}}
	f.cmd = exec.Command(filepath.Join(b.bin, "ksymd"),
		"-addr", "localhost:0", "-shard-exec", "2", "-data-dir", filepath.Join(b.dir, "data"),
		"-queue", "1024", "-max-timeout", "10m")
	f.cmd.Stderr = f.log
	f.cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true}
	f.cmd.WaitDelay = 10 * time.Second
	if err := f.cmd.Start(); err != nil {
		return nil, err
	}
	f.exited = make(chan struct{})
	go func() { f.cmd.Wait(); close(f.exited) }()
	select {
	case f.addr = <-f.log.addr:
	case <-f.exited:
		f.stop()
		return nil, fmt.Errorf("ksymd exited during start-up:\n%s", f.log)
	case <-time.After(60 * time.Second):
		f.stop()
		return nil, fmt.Errorf("ksymd did not report its address:\n%s", f.log)
	}
	c.base = "http://" + f.addr
	for deadline := time.Now().Add(30 * time.Second); ; time.Sleep(10 * time.Millisecond) {
		if _, code, err := c.get(ctx, "/readyz"); err == nil && code == http.StatusOK {
			return f, nil
		}
		if time.Now().After(deadline) {
			f.stop()
			return nil, fmt.Errorf("ksymd not ready:\n%s", f.log)
		}
	}
}

// stop drains the front with SIGTERM (it stops its backends), then kills
// whatever is left of its process group and waits until none is left. It
// returns the peak resident set of the front and its backends.
func (f *front) stop() float64 {
	pgid := f.cmd.Process.Pid
	f.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-f.exited:
	case <-time.After(60 * time.Second):
		syscall.Kill(-pgid, syscall.SIGKILL)
		<-f.exited
	}
	syscall.Kill(-pgid, syscall.SIGKILL)
	for i := 0; i < 500 && syscall.Kill(-pgid, 0) == nil; i++ {
		time.Sleep(10 * time.Millisecond)
	}
	if f.cmd.ProcessState == nil {
		return 0
	}
	return rssMB(f.cmd)
}

// runJobs runs every job in its own goroutine, starting each at its due
// time, and waits for all of them.
func runJobs(ctx context.Context, c *client, jobs []*serveJob) {
	var wg sync.WaitGroup
	for _, j := range jobs {
		time.Sleep(time.Until(j.due))
		wg.Add(1)
		go func(j *serveJob) {
			defer wg.Done()
			c.run(ctx, j)
		}(j)
	}
	wg.Wait()
}

// servePhases are one round's jobs.
type servePhases struct{ open, burst, bulk []*serveJob }

func (p servePhases) all() []*serveJob {
	return append(append(append([]*serveJob{}, p.open...), p.burst...), p.bulk...)
}

// serveRound is what one round of serve-sharded measured.
type serveRound struct {
	servePhases
	rate    float64 // the bursts' median rate of completed jobs per second
	bulkS   float64 // the bulk jobs' total time from send to release in hand
	sampleS float64
	rssMB   float64
	fsyncs  float64
}

func runServeSharded(b *bench) error {
	ctx := b.ctx
	rng := rand.New(rand.NewSource(b.seed))
	var in servePhases
	var err error
	if in.open, err = newServeJobs(openJobs, rng, openMix); err != nil {
		return err
	}
	if in.burst, err = newServeJobs(bursts*burstJobs, rng, burstMix); err != nil {
		return err
	}
	if in.bulk, err = newServeJobs(bulkJobs, rng, bulkMix); err != nil {
		return err
	}
	c := &client{http: &http.Client{Transport: &http.Transport{MaxConnsPerHost: maxConns, MaxIdleConnsPerHost: maxConns}}}
	f, err := b.startFront(ctx, c)
	if err != nil {
		return err
	}
	rss := 0.0
	var results []serveRound
	for round := 0; b.more(round); round++ {
		jobs := servePhases{fresh(in.open), fresh(in.burst), fresh(in.bulk)}
		r, err := b.serveRound(ctx, c, jobs)
		if err != nil {
			f.stop()
			return err
		}
		results = append(results, r)
		rss = max(rss, r.rssMB)
	}
	rss = max(rss, f.stop())
	return b.reportServe(results, rss)
}

// fresh copies jobs' requests into new jobs, so every round sends the same
// graphs in the same order.
func fresh(jobs []*serveJob) []*serveJob {
	out := make([]*serveJob, len(jobs))
	for i, j := range jobs {
		out[i] = &serveJob{kind: j.kind, tenant: j.tenant, mode: j.mode, k: j.k, body: j.body}
	}
	return out
}

// burst sends jobs back to back on one connection while collecting
// their releases in the same order on the other, and returns the jobs per
// second completed from the first send to the last release in the
// client's hands.
func burst(ctx context.Context, c *client, jobs []*serveJob) float64 {
	t0 := time.Now()
	submitted := make(chan *serveJob, len(jobs)) // one slot per job: the sender never waits
	go func() {
		defer close(submitted)
		for _, j := range jobs {
			j.due = t0
			j.err = c.submit(ctx, j)
			submitted <- j
		}
	}()
	last, done := t0, 0
	for j := range submitted {
		if j.err == nil {
			c.await(ctx, j)
		}
		if j.err == nil {
			last, done = j.inHand, done+1
		}
	}
	if done == 0 {
		return 0
	}
	return float64(done) / last.Sub(t0).Seconds()
}

// serveRound runs the three phases and the analyst's draws, and checks
// every job.
func (b *bench) serveRound(ctx context.Context, c *client, jobs servePhases) (serveRound, error) {
	r := serveRound{servePhases: jobs}
	before, err := c.fsyncs(ctx)
	if err != nil {
		return r, err
	}
	b.endSetup()
	t0 := time.Now()
	for i, j := range jobs.open {
		j.due = t0.Add(time.Duration(i) * openInterval)
	}
	runJobs(ctx, c, jobs.open)
	var draws []int // the open-loop jobs the analyst draws from
	rels := map[int]*release{}
	for i, j := range jobs.open {
		rel := b.checkServeJob(j)
		if j.kind == "hepth" && len(draws) < analystDraws {
			draws = append(draws, i)
			rels[i] = rel
		}
	}
	for _, i := range draws {
		p, err := b.serveDraw(i, jobs.open[i], rels[i])
		r.sampleS += p.wall.Seconds()
		r.rssMB = max(r.rssMB, p.rssMB)
		b.op("draw from hepth job", err)
	}
	var rates []float64
	for i := 0; i < bursts; i++ {
		rates = append(rates, burst(ctx, c, jobs.burst[i*burstJobs:(i+1)*burstJobs]))
	}
	r.rate = median(rates)
	for _, j := range jobs.bulk {
		j.due = time.Now()
		c.run(ctx, j)
		if j.err == nil {
			r.bulkS += j.inHand.Sub(j.due).Seconds()
		}
	}
	after, err := c.fsyncs(ctx)
	if err != nil {
		return r, err
	}
	r.fsyncs = after - before
	for _, j := range append(jobs.burst, jobs.bulk...) {
		b.checkServeJob(j)
	}
	return r, nil
}

// checkServeJob checks the job and counts it as an operation. It returns
// the parsed release, or nil when the job failed.
func (b *bench) checkServeJob(j *serveJob) *release {
	rel, err := j.check()
	j.err = err
	b.op(fmt.Sprintf("%s job %s", j.kind, j.status.ID), err)
	return rel
}

// check checks that the job ran on the rung it asked for and that its
// release passes the release checks against the submitted graph.
func (j *serveJob) check() (*release, error) {
	if j.err != nil {
		return nil, j.err
	}
	sum := j.status.Summary
	if sum == nil || sum.PartitionMode != j.mode || len(sum.Downgrades) > 0 {
		return nil, fmt.Errorf("job %s did not run on the %s rung: %+v", j.status.ID, j.mode, sum)
	}
	g, err := parseGraph(j.body)
	if err != nil {
		return nil, err
	}
	rel, err := parseRelease(j.release)
	if err != nil {
		return nil, err
	}
	if err := checkRelease(rel, g, j.k); err != nil {
		return nil, err
	}
	j.added = rel.verticesAdded()
	if j.mode == "tdv" {
		if err := checkTDV(rel, coarsestEquitable(g)); err != nil {
			return nil, err
		}
	}
	return rel, nil
}

// serveDraw writes a job's fetched release to disk and draws drawSamples
// samples from it with ksample; rel is the release as check parsed it.
func (b *bench) serveDraw(i int, j *serveJob, rel *release) (procRun, error) {
	if rel == nil {
		return procRun{}, fmt.Errorf("no release to draw from")
	}
	path := filepath.Join(b.dir, "open-"+strconv.Itoa(i)+".release")
	dir := path + "-samples"
	if err := os.WriteFile(path, j.release, 0o644); err != nil {
		return procRun{}, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return procRun{}, err
	}
	p, err := b.command("ksample", "-release", path, "-count", strconv.Itoa(drawSamples), "-out-dir", dir)
	if err != nil {
		return p, err
	}
	for s := 0; s < drawSamples; s++ {
		g, err := readGraph(filepath.Join(dir, fmt.Sprintf("sample_%03d.edges", s)))
		if err == nil {
			err = checkSample(g, rel, j.k, nil)
		}
		if err != nil {
			return p, fmt.Errorf("sample %d: %w", s, err)
		}
	}
	return p, nil
}

// reportServe turns the rounds into the end-to-end metrics, or with
// -trace 1 the per-layer ones, which come from the client's own timings
// and the front's status and /metrics answers.
func (b *bench) reportServe(rounds []serveRound, rss float64) error {
	var latency, submit, queue, run, stages, hop, result, late []float64
	var release, sample, vertices, rate, fsyncs []float64
	for _, r := range rounds {
		for _, j := range r.open {
			if j.err != nil {
				continue
			}
			st := j.status
			latency = append(latency, j.inHand.Sub(j.due).Seconds())
			late = append(late, j.sent.Sub(j.due).Seconds())
			submit = append(submit, j.submitS)
			result = append(result, j.resultS)
			queue = append(queue, st.StartedAt.Sub(st.SubmittedAt).Seconds())
			runS := st.FinishedAt.Sub(*st.StartedAt).Seconds()
			stageS := 0.0
			for _, s := range st.Summary.Stages {
				stageS += s.DurationMS / 1000
			}
			run = append(run, runS)
			stages = append(stages, stageS)
			hop = append(hop, runS-stageS)
		}
		added := 0
		for _, j := range r.all() {
			added += j.added
		}
		release = append(release, r.bulkS)
		rate = append(rate, r.rate)
		sample = append(sample, r.sampleS)
		vertices = append(vertices, float64(added))
		fsyncs = append(fsyncs, r.fsyncs)
	}
	if b.trace {
		b.set("server.submit_s", median(submit))
		b.set("server.queue_wait_s", median(queue))
		b.set("server.run_s", median(run))
		b.set("pipeline.stages_s", median(stages))
		b.set("shard.hop_s", median(hop))
		b.set("server.result_s", median(result))
		b.set("journal.fsyncs", median(fsyncs))
		b.set("client.late_s", maxOf(late))
		return nil
	}
	pct, tail, ok := tailPercentile(latency)
	if !ok {
		return fmt.Errorf("only %d open-loop jobs completed, too few for a tail", len(latency))
	}
	fmt.Fprintf(os.Stderr, "kbench: job_tail_s is p%d of %d open-loop jobs\n", pct, len(latency))
	b.set("job_p50_s", median(latency))
	b.set("job_tail_s", tail)
	b.set("jobs_per_s", median(rate))
	b.set("release_s", median(release))
	b.set("sample_s", median(sample))
	b.set("vertices_added", median(vertices))
	b.set("peak_rss_mb", rss)
	return nil
}
