package main

import (
	"encoding/json"
	"errors"
	"strings"
	"testing"
	"time"
)

func TestFailedOperationMakesTheRunIncorrect(t *testing.T) {
	b := &bench{metrics: map[string]float64{"release_s": 1.5}}
	want := map[string]string{"release_s": "s", "setup_s": "s"}
	b.op("release", nil)
	out, err := b.result(want)
	if err != nil || !out.Correct || out.Attempted != 1 || out.Failed != 0 {
		t.Fatalf("after one good operation: %+v, %v", out, err)
	}
	b.op("release", errors.New("a cell of k − 1 vertices"))
	out, err = b.result(want)
	if err != nil {
		t.Fatal(err)
	}
	line, err := json.Marshal(out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(line), `{"correct":false,"attempted":2,"failed":1,`) {
		t.Fatalf("after a failed operation the run printed %s", line)
	}
}

func TestUndeclaredMetricIsAnError(t *testing.T) {
	b := &bench{metrics: map[string]float64{"release_s": 1.5, "other_s": 2}}
	if _, err := b.result(map[string]string{"release_s": "s"}); err == nil {
		t.Fatal("a metric missing from BENCHMARK.json was reported")
	}
}

func TestRoundStartsOnlyIfItFits(t *testing.T) {
	b := &bench{seconds: time.Hour, setupDone: time.Now()}
	if !b.more(0) {
		t.Fatal("the first round did not start")
	}
	if !b.more(1) {
		t.Fatal("a short round did not start with time to spare")
	}
	b.roundStart = time.Now().Add(-runLimit) // the last round took runLimit
	if b.more(2) {
		t.Fatal("a round started that would outlast runLimit")
	}
	b = &bench{seconds: time.Millisecond, setupDone: time.Now().Add(-time.Second)}
	if b.more(0); b.more(1) {
		t.Fatal("a round started after -seconds had passed")
	}
}
