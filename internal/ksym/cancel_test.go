package ksym

import (
	"context"
	"strings"
	"testing"
	"time"

	"ksymmetry/internal/datasets"
	"ksymmetry/internal/faulttest"
	"ksymmetry/internal/partition"
	"ksymmetry/internal/refine"
)

func TestCancelMidCopy(t *testing.T) {
	// A path's total degree partition has ~n/2 cells of size 2; a huge
	// k makes the copy loop the dominant work, so the cancellation must
	// land inside it.
	g := datasets.Path(4000)
	p := refine.TotalDegreePartition(g)
	base := faulttest.Goroutines()
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, err := AnonymizeFCtx(ctx, g, p, ConstantTarget(1<<20))
		errc <- err
	}()
	time.Sleep(30 * time.Millisecond)
	cancel()
	faulttest.ExpectErr(t, errc, context.Canceled)
	faulttest.AssertNoLeak(t, base)
}

func TestDeadlineDuringBackbone(t *testing.T) {
	// Backbone detection on an anonymized path scans thousands of tiny
	// components per cell; an already-expired deadline must surface at
	// the first amortized poll.
	g := datasets.Path(2000)
	p := refine.TotalDegreePartition(g)
	res, err := Anonymize(g, p, 50)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	errc := make(chan error, 1)
	go func() {
		_, err := BackboneWorkersCtx(ctx, res.Graph, res.Partition, 1)
		errc <- err
	}()
	faulttest.ExpectErr(t, errc, context.DeadlineExceeded)
}

func TestCancelMidMinimalAnonymize(t *testing.T) {
	g := datasets.Path(4000)
	p := refine.TotalDegreePartition(g)
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, err := MinimalAnonymizeFCtx(ctx, g, p, ConstantTarget(1<<20))
		errc <- err
	}()
	time.Sleep(30 * time.Millisecond)
	cancel()
	faulttest.ExpectErr(t, errc, context.Canceled)
}

func TestAnonymizeRejectsInvalidPartition(t *testing.T) {
	g := datasets.Path(10)
	smaller := refine.TotalDegreePartition(datasets.Path(6))
	if _, err := Anonymize(g, smaller, 2); err == nil || !strings.Contains(err.Error(), "invalid partition") {
		t.Fatalf("mismatched partition: err = %v, want invalid-partition error", err)
	}
	if _, err := MinimalAnonymizeFCtx(context.Background(), g, smaller, ConstantTarget(2)); err == nil || !strings.Contains(err.Error(), "invalid partition") {
		t.Fatalf("minimal with mismatched partition: err = %v", err)
	}
	var nilPart *partition.Partition
	if _, err := Anonymize(g, nilPart, 2); err == nil {
		t.Fatal("nil partition accepted")
	}
}
