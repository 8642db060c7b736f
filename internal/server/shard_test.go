// Sharded-front fault suite, run under -race -count=2 in CI
// (DESIGN.md §14): a front over real backend servers places jobs by
// rendezvous hash and survives the ring's failure modes — a backend
// SIGKILLed mid-job fails over without a client-visible error, a ring
// that is entirely down degrades to bounded local execution (gauged,
// and recorded in the job summary), a resurrected backend is rehired
// by the health probe's half-open trial, placements survive journal
// replay, and results stay byte-identical at every shard count.
package server

import (
	"context"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"ksymmetry/internal/faulttest"
	"ksymmetry/internal/obs"
	"ksymmetry/internal/pipeline"
	"ksymmetry/internal/shard"
)

// shardBackend is one real backend daemon behind an httptest listener.
type shardBackend struct {
	srv  *Server
	ts   *httptest.Server
	addr string
}

// newShardBackend starts a plain (non-sharded) backend server.
func newShardBackend(t *testing.T) *shardBackend {
	t.Helper()
	s := mustNew(t, Config{})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
	})
	return &shardBackend{srv: s, ts: ts, addr: ts.Listener.Addr().String()}
}

// testShardConfig returns router timings tightened for tests: probes
// and breaker cooldowns fire in tens of milliseconds so failover and
// recovery are observable without long sleeps.
func testShardConfig() shard.Config {
	return shard.Config{
		ProbeInterval:    25 * time.Millisecond,
		ProbeTimeout:     time.Second,
		BreakerThreshold: 2,
		BreakerCooldown:  50 * time.Millisecond,
		RetryMax:         2,
		RetryBase:        10 * time.Millisecond,
		RetryCap:         50 * time.Millisecond,
		CallTimeout:      2 * time.Second,
	}
}

// newShardFront starts a front server routing over addrs.
func newShardFront(t *testing.T, addrs []string, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	r, err := shard.NewRouter(addrs, testShardConfig())
	if err != nil {
		t.Fatal(err)
	}
	cfg.ShardRouter = r
	return newTestServer(t, cfg)
}

// getStatus fetches and decodes a job's status document.
func getStatus(t *testing.T, url string) jobStatus {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st jobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatalf("decode status: %v", err)
	}
	return st
}

// getResult fetches a job's result artifact.
func getResult(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, data
}

// blockThenRunIdx is blockThenRun for a fleet: started reports which
// backend the job landed on.
func blockThenRunIdx(idx int, release <-chan struct{}, started chan<- int) func(context.Context, pipeline.Config) (*pipeline.Result, error) {
	return func(ctx context.Context, cfg pipeline.Config) (*pipeline.Result, error) {
		started <- idx
		select {
		case <-release:
		case <-ctx.Done():
			return &pipeline.Result{}, ctx.Err()
		}
		return pipeline.Run(ctx, cfg)
	}
}

// deadAddr reserves an ephemeral port and releases it, yielding an
// address nothing listens on.
func deadAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr
}

// TestShardedRunMatchesLocal pins the determinism contract: the same
// request produces byte-identical release artifacts whether run
// locally or through a front at every shard count, and a sharded run
// reports which backend it was placed on.
func TestShardedRunMatchesLocal(t *testing.T) {
	body := fig3Body(t)
	run := func(s *Server, ts *httptest.Server) (jobStatus, []byte) {
		code, st, _ := postJob(t, ts.URL+"/v1/anonymize?k=2", body, nil)
		if code != http.StatusAccepted {
			t.Fatalf("submit = %d, want 202", code)
		}
		if j := waitDone(t, s, st.ID); j.State() != JobDone {
			t.Fatalf("job = %s, want done", j.State())
		}
		code, data := getResult(t, ts.URL+"/v1/jobs/"+st.ID+"/result")
		if code != http.StatusOK {
			t.Fatalf("result = %d, want 200", code)
		}
		return getStatus(t, ts.URL+"/v1/jobs/"+st.ID), data
	}

	localSrv, localTS := newTestServer(t, Config{})
	_, want := run(localSrv, localTS)

	for _, n := range []int{1, 2, 3} {
		var addrs []string
		for i := 0; i < n; i++ {
			addrs = append(addrs, newShardBackend(t).addr)
		}
		s, ts := newShardFront(t, addrs, Config{})
		st, got := run(s, ts)
		if string(got) != string(want) {
			t.Errorf("%d shards: result bytes differ from local run (%d vs %d bytes)", n, len(got), len(want))
		}
		if st.Backend == "" {
			t.Errorf("%d shards: status lacks the backend placement", n)
		}
	}
}

// TestShardFailoverOnBackendDeathMidJob kills the backend that owns a
// running job. The front must re-place the job on the surviving
// backend — deduped by the idempotency key, counted as a failover —
// and the client sees a completed job, never an error.
func TestShardFailoverOnBackendDeathMidJob(t *testing.T) {
	obs.Enable()
	baseFailovers := obsShardFailovers.Value()

	backends := []*shardBackend{newShardBackend(t), newShardBackend(t)}
	releases := []chan struct{}{make(chan struct{}), make(chan struct{})}
	started := make(chan int, 4)
	for i, b := range backends {
		b.srv.runPipeline = blockThenRunIdx(i, releases[i], started)
	}
	s, ts := newShardFront(t, []string{backends[0].addr, backends[1].addr}, Config{})

	code, st, _ := postJob(t, ts.URL+"/v1/anonymize?k=2", fig3Body(t), nil)
	if code != http.StatusAccepted {
		t.Fatalf("submit = %d, want 202", code)
	}
	owner := <-started // the hash placed the job; its run is parked

	// SIGKILL equivalent: the owning backend vanishes mid-job, taking
	// its listener with it. The survivor runs unblocked.
	close(releases[1-owner])
	backends[owner].ts.CloseClientConnections()
	backends[owner].ts.Close()

	j := waitDone(t, s, st.ID)
	if j.State() != JobDone {
		t.Fatalf("job after backend death = %s (summary %+v), want done", j.State(), getStatus(t, ts.URL+st.StatusURL).Summary)
	}
	if got := obsShardFailovers.Value(); got <= baseFailovers {
		t.Errorf("shard_failovers = %d, want > %d", got, baseFailovers)
	}
	if code, _ := getResult(t, ts.URL+"/v1/jobs/"+st.ID+"/result"); code != http.StatusOK {
		t.Errorf("result after failover = %d, want 200", code)
	}
	// The surviving run still blocks in the dead backend's worker; let
	// its shutdown cancel it.
	_ = releases[owner]
}

// TestShardAllDownDegradedLocal points a front at a ring with nothing
// listening: the job must still complete — locally, at degraded
// concurrency — with the shard_degraded gauge raised and the
// downgrade recorded in the job's summary.
func TestShardAllDownDegradedLocal(t *testing.T) {
	obs.Enable()
	baseRuns := obsShardDegradedRuns.Value()

	s, ts := newShardFront(t, []string{deadAddr(t), deadAddr(t)}, Config{DegradedWorkers: 1})
	code, st, _ := postJob(t, ts.URL+"/v1/anonymize?k=2", fig3Body(t), nil)
	if code != http.StatusAccepted {
		t.Fatalf("submit = %d, want 202", code)
	}
	if j := waitDone(t, s, st.ID); j.State() != JobDone {
		t.Fatalf("job with ring down = %s, want done (degraded local run)", j.State())
	}
	if got := obsShardDegraded.Value(); got != 1 {
		t.Errorf("shard_degraded gauge = %d, want 1 while the ring is down", got)
	}
	if got := obsShardDegradedRuns.Value(); got <= baseRuns {
		t.Errorf("shard_degraded_runs = %d, want > %d", got, baseRuns)
	}
	doc := getStatus(t, ts.URL+st.StatusURL)
	if doc.Summary == nil {
		t.Fatal("degraded job summary missing")
	}
	found := false
	for _, d := range doc.Summary.Downgrades {
		if strings.Contains(d, "degraded") {
			found = true
		}
	}
	if !found {
		t.Errorf("summary downgrades %v lack the degraded-mode note", doc.Summary.Downgrades)
	}
	if doc.Backend != "" {
		t.Errorf("degraded local run reports backend %q, want none", doc.Backend)
	}
}

// TestShardBackendRecoveryRehires takes the only backend down (first
// job degrades to local), then resurrects it on the same address: the
// health probe's half-open trial must close the breaker, after which
// the next job is placed remotely again and the degraded gauge drops.
func TestShardBackendRecoveryRehires(t *testing.T) {
	obs.Enable()

	b := newShardBackend(t)
	addr := b.addr
	b.ts.CloseClientConnections()
	b.ts.Close()

	s, ts := newShardFront(t, []string{addr}, Config{DegradedWorkers: 1})
	code, st, _ := postJob(t, ts.URL+"/v1/anonymize?k=2", fig3Body(t), nil)
	if code != http.StatusAccepted {
		t.Fatalf("submit = %d, want 202", code)
	}
	if j := waitDone(t, s, st.ID); j.State() != JobDone {
		t.Fatalf("job with backend down = %s, want done", j.State())
	}
	if got := obsShardDegraded.Value(); got != 1 {
		t.Errorf("shard_degraded = %d, want 1 with the backend down", got)
	}

	// Resurrect a backend on the same address (a restart under
	// supervision). The listener may need a moment to rebind.
	replacement := mustNew(t, Config{})
	var ln net.Listener
	deadline := time.Now().Add(5 * time.Second)
	for {
		var err error
		ln, err = net.Listen("tcp", addr)
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("rebinding %s: %v", addr, err)
		}
		time.Sleep(20 * time.Millisecond)
	}
	hs := &http.Server{Handler: replacement.Handler()}
	go func() { _ = hs.Serve(ln) }()
	t.Cleanup(func() {
		_ = hs.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = replacement.Shutdown(ctx)
	})

	// The probe loop must notice: breaker half-opens on cooldown, the
	// trial probe succeeds, the ring is whole again. Wait for the closed
	// breaker itself: Degraded() already reads false at half-open with no
	// trial in flight, and a probe that claims the trial just then sends
	// the next placement down the degraded path.
	deadline = time.Now().Add(10 * time.Second)
	for s.router.Backends()[0].State() != shard.BreakerClosed {
		if time.Now().After(deadline) {
			t.Fatal("router never rehired the resurrected backend")
		}
		time.Sleep(20 * time.Millisecond)
	}

	basePlacements := obsShardPlacements.Value()
	code, st2, _ := postJob(t, ts.URL+"/v1/anonymize?k=2", fig3Body(t), nil)
	if code != http.StatusAccepted {
		t.Fatalf("submit after recovery = %d, want 202", code)
	}
	if j := waitDone(t, s, st2.ID); j.State() != JobDone {
		t.Fatalf("job after recovery = %s, want done", j.State())
	}
	if got := obsShardPlacements.Value(); got <= basePlacements {
		t.Errorf("shard_placements = %d, want > %d (job should run remotely again)", got, basePlacements)
	}
	if got := obsShardDegraded.Value(); got != 0 {
		t.Errorf("shard_degraded = %d, want 0 after recovery", got)
	}
}

// TestShardProxyStreamsRemoteEvents subscribes to a remotely running
// job through the front: the relayed stream must carry the backend's
// transitions rewritten to the front's job id and close after the
// terminal event.
func TestShardProxyStreamsRemoteEvents(t *testing.T) {
	b := newShardBackend(t)
	// Offset the backend's job-id sequence so the front's id and the
	// remote id differ — otherwise a missing rewrite would pass by
	// coincidence.
	_, warm, _ := postJob(t, b.ts.URL+"/v1/anonymize?k=2", fig3Body(t), nil)
	waitDone(t, b.srv, warm.ID)

	release := make(chan struct{})
	started := make(chan int, 1)
	b.srv.runPipeline = blockThenRunIdx(0, release, started)
	s, ts := newShardFront(t, []string{b.addr}, Config{})

	code, st, _ := postJob(t, ts.URL+"/v1/anonymize?k=2", fig3Body(t), nil)
	if code != http.StatusAccepted {
		t.Fatalf("submit = %d, want 202", code)
	}
	<-started

	resp, err := http.Get(ts.URL + st.EventsURL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("events = %d, want 200", resp.StatusCode)
	}
	close(release)
	frames, _ := readSSE(t, resp.Body)
	waitDone(t, s, st.ID)

	if len(frames) == 0 {
		t.Fatal("no frames relayed from the backend")
	}
	last := frames[len(frames)-1]
	if !strings.Contains(last.data, `"state":"`+string(JobDone)+`"`) {
		t.Fatalf("last relayed frame is not terminal: %+v", last)
	}
	for i, f := range frames {
		if !strings.Contains(f.data, `"job_id":"`+st.ID+`"`) {
			t.Errorf("frame %d not rewritten to the front's job id: %s", i, f.data)
		}
	}
	if !strings.Contains(last.data, `"result_url":"/v1/jobs/`+st.ID+`/result"`) {
		t.Errorf("terminal frame's result url not rewritten: %s", last.data)
	}
}

// TestShardPlacementSurvivesJournalReplay pins the placed record's
// replay semantics: the placement lands back on the job, and a placed
// record for a job the journal never accepted refuses startup.
func TestShardPlacementSurvivesJournalReplay(t *testing.T) {
	dir := t.TempDir()
	st, _, _, err := openStore(dir, 1024)
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range []record{
		{Type: recAccepted, ID: "j000001", Fp: "fp1", K: 2},
		{Type: recRunning, ID: "j000001", Attempt: 1},
		{Type: recPlaced, ID: "j000001", Backend: "b1:1234", RemoteID: "j000042"},
	} {
		if err := st.append(rec); err != nil {
			t.Fatal(err)
		}
	}
	st.close()

	st2, rs, _, err := openStore(dir, 1024)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.close()
	rj := rs.jobs["j000001"]
	if rj == nil {
		t.Fatal("job j000001 lost in replay")
	}
	if rj.backend != "b1:1234" || rj.remoteID != "j000042" {
		t.Fatalf("replayed placement = (%q, %q), want (b1:1234, j000042)", rj.backend, rj.remoteID)
	}

	dir2 := t.TempDir()
	st3, _, _, err := openStore(dir2, 1024)
	if err != nil {
		t.Fatal(err)
	}
	if err := st3.append(record{Type: recPlaced, ID: "j000009", Backend: "x:1"}); err != nil {
		t.Fatal(err)
	}
	st3.close()
	if _, _, _, err := openStore(dir2, 1024); err == nil {
		t.Fatal("placed record for an unaccepted job replayed without error")
	}
}

// TestShardFrontShutdownLeavesNoGoroutines runs one sharded job end to
// end and tears everything down: the router's probe loop, the front's
// workers, and the proxy machinery must all exit.
func TestShardFrontShutdownLeavesNoGoroutines(t *testing.T) {
	base := faulttest.Goroutines()

	b := mustNew(t, Config{})
	bts := httptest.NewServer(b.Handler())
	r, err := shard.NewRouter([]string{bts.Listener.Addr().String()}, testShardConfig())
	if err != nil {
		t.Fatal(err)
	}
	s := mustNew(t, Config{ShardRouter: r})
	ts := httptest.NewServer(s.Handler())

	code, st, _ := postJob(t, ts.URL+"/v1/anonymize?k=2", fig3Body(t), nil)
	if code != http.StatusAccepted {
		t.Fatalf("submit = %d, want 202", code)
	}
	if j := waitDone(t, s, st.ID); j.State() != JobDone {
		t.Fatalf("job = %s, want done", j.State())
	}

	ts.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("front shutdown: %v", err)
	}
	bts.Close()
	if err := b.Shutdown(ctx); err != nil {
		t.Fatalf("backend shutdown: %v", err)
	}
	http.DefaultClient.CloseIdleConnections()
	faulttest.AssertNoLeak(t, base)
}
