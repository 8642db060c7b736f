// Crash-point kill suite: re-exec the test binary as a ksymd-shaped
// helper process, SIGKILL it at every journal crash point via the
// internal/faulttest environment hooks, then restart a server over the
// surviving data directory and prove nothing durable was lost. This is
// the real-process counterpart to store_test.go's in-process forced
// drains: the kill happens mid-syscall-sequence, exactly where a power
// cut would.
package server

import (
	"bufio"
	"bytes"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"ksymmetry/internal/faulttest"
)

// TestCrashHelper is the subprocess body. It is skipped in normal
// runs; TestKillAtEveryCrashPoint re-execs the test binary with
// KSYM_CRASH_HELPER=1 and a crash point armed in the environment, and
// the process SIGKILLs itself mid-journal-write.
func TestCrashHelper(t *testing.T) {
	if os.Getenv("KSYM_CRASH_HELPER") != "1" {
		t.Skip("crash helper: run only as a subprocess of TestKillAtEveryCrashPoint")
	}
	if err := faulttest.ArmCrashFromEnv(); err != nil {
		fmt.Fprintln(os.Stderr, "helper:", err)
		os.Exit(2)
	}
	dir := os.Getenv("KSYM_CRASH_DIR")
	// Small retention + compaction floor so a handful of jobs drives
	// the full record mix: appends, evictions (tombs), and a rewrite
	// (which is where the compaction crash points live).
	s, ts := newTestServer(t, Config{DataDir: dir, MaxRetainedJobs: 2, CompactMinRecords: 8})
	body := fig3Body(t)
	for i := 0; i < 6; i++ {
		code, st, _ := postJob(t, ts.URL+"/v1/anonymize?k=2", body, nil)
		if code != http.StatusAccepted {
			fmt.Fprintf(os.Stderr, "helper: submit %d = %d\n", i, code)
			os.Exit(2)
		}
		// A 202 means the accepted record is fsynced: the id below is
		// a durability promise the parent will hold us to.
		fmt.Printf("accepted %s\n", st.ID)
		os.Stdout.Sync()
		waitDone(t, s, st.ID)
	}
}

func TestKillAtEveryCrashPoint(t *testing.T) {
	if os.Getenv("KSYM_CRASH_HELPER") == "1" {
		t.Skip("already inside the helper")
	}
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	// Append points fire three times per job (accepted, running, done):
	// kill on the first hit and mid-stream on the third. The compaction
	// points fire once per rewrite, and the helper's workload drives
	// exactly one rewrite, so only hit 1 is reachable there.
	hitsFor := map[faulttest.Point][]int{
		faulttest.JournalBeforeAppend:  {1, 3},
		faulttest.JournalAfterAppend:   {1, 3},
		faulttest.JournalBeforeRename:  {1},
		faulttest.JournalMidCompaction: {1},
	}
	for _, point := range faulttest.Points {
		for _, hits := range hitsFor[point] {
			name := fmt.Sprintf("%s/hit%d", point, hits)
			t.Run(strings.ReplaceAll(name, ".", "_"), func(t *testing.T) {
				dir := t.TempDir()
				cmd := exec.Command(exe, "-test.run", "TestCrashHelper", "-test.v")
				var out bytes.Buffer
				cmd.Stdout = &out
				cmd.Stderr = &out
				cmd.Env = append(os.Environ(),
					"KSYM_CRASH_HELPER=1",
					"KSYM_CRASH_DIR="+dir,
					faulttest.EnvCrashPoint+"="+string(point),
					fmt.Sprintf("%s=%d", faulttest.EnvCrashHits, hits),
				)
				runErr := cmd.Run()
				if runErr == nil {
					t.Fatalf("helper exited cleanly; crash point %s (hit %d) never fired.\n%s", point, hits, out.String())
				}
				ee, ok := runErr.(*exec.ExitError)
				if !ok {
					t.Fatalf("helper: %v\n%s", runErr, out.String())
				}
				ws, ok := ee.Sys().(syscall.WaitStatus)
				if !ok || !ws.Signaled() || ws.Signal() != syscall.SIGKILL {
					t.Fatalf("helper died by %v, want SIGKILL.\n%s", ee, out.String())
				}

				// Collect the ids whose 202 the helper acknowledged
				// before dying: each is a durable promise.
				var accepted []string
				sc := bufio.NewScanner(bytes.NewReader(out.Bytes()))
				for sc.Scan() {
					if id, ok := strings.CutPrefix(strings.TrimSpace(sc.Text()), "accepted "); ok {
						accepted = append(accepted, id)
					}
				}

				// Restart over the wreckage: the journal must open (torn
				// tails repaired, tmp debris swept) and every acknowledged
				// job must be present and reach done — completed before
				// the kill, or replayed and re-run after it.
				s := mustNew(t, Config{DataDir: dir, RetryBackoff: time.Millisecond})
				defer gracefulStop(t, s) // idempotent; covers the early exits
				for _, id := range accepted {
					if _, ok := s.job(id); !ok {
						if _, gone := s.tomb(id); gone {
							continue // evicted with its terminal state recorded
						}
						t.Fatalf("job %s acknowledged before the kill is gone after restart", id)
					}
					if got := waitDone(t, s, id).State(); got != JobDone {
						t.Fatalf("job %s = %s after restart, want done", id, got)
					}
				}

				// No journal/spool/result temp debris survives recovery.
				// The restarted server may still be running a job the
				// helper never acknowledged (compaction runs inside
				// submit, after the accepted record is fsynced and before
				// the 202), and that job's atomic result write is not
				// debris. Stop gracefully first: Shutdown returns once
				// every worker, and so every writer, has exited.
				gracefulStop(t, s)
				var debris []string
				filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
					if err == nil && !d.IsDir() && strings.HasSuffix(path, ".tmp") {
						debris = append(debris, path)
					}
					return nil
				})
				if len(debris) > 0 {
					t.Fatalf("tmp debris after recovery: %v", debris)
				}
			})
		}
	}
}
