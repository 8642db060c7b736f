package main

import (
	"bytes"
	"fmt"
	"os/exec"
	"path/filepath"
	"runtime"
	"syscall"
	"time"
)

// procRun is one finished process of a shipped command.
type procRun struct {
	wall  time.Duration
	rssMB float64 // peak resident set of the process and its reaped children
}

// command runs one of the built commands to completion, its standard
// output to the null device as a publisher running `ksym -release` would
// discard it, and times it from fork to reap. The benchmark collects its
// own garbage first, so that its collector does not take CPU from the
// timed process.
func (b *bench) command(name string, args ...string) (procRun, error) {
	cmd := exec.CommandContext(b.ctx, filepath.Join(b.bin, name), args...)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	runtime.GC()
	t0 := time.Now()
	err := cmd.Run()
	wall := time.Since(t0)
	if err != nil {
		return procRun{}, fmt.Errorf("%s %v: %v\n%s", name, args, err, tail(stderr.Bytes()))
	}
	return procRun{wall: wall, rssMB: rssMB(cmd)}, nil
}

// rssMB is the peak resident set that wait4 reported for a reaped process.
func rssMB(cmd *exec.Cmd) float64 {
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		return float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	return 0
}

// tail keeps the end of a process's diagnostics for an error message.
func tail(b []byte) []byte {
	if len(b) > 2000 {
		return b[len(b)-2000:]
	}
	return b
}
