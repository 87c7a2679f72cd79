package main

import (
	"errors"
	"path/filepath"
	"testing"

	"repro/internal/harness"
	"repro/internal/scenario"
)

func TestDigestBookTripsOnPerturbedOutput(t *testing.T) {
	path := filepath.Join(t.TempDir(), "digests.json")
	b, err := openDigestBook(path)
	if err != nil {
		t.Fatal(err)
	}
	first := []opResult{{id: "cell/0", digest: digestOf([]byte("report a"))}, {id: "report", digest: digestOf([]byte("csv"))}}
	if errs := b.check(first); len(errs) != 0 {
		t.Fatalf("first sighting failed: %v", errs)
	}
	if errs := b.check(first); len(errs) != 0 {
		t.Fatalf("identical rerun failed: %v", errs)
	}
	perturbed := []opResult{{id: "cell/0", digest: digestOf([]byte("report b"))}, {id: "report", digest: digestOf([]byte("csv"))}}
	if errs := b.check(perturbed); len(errs) != 1 {
		t.Fatalf("perturbed output: %d failed ops, want 1: %v", len(errs), errs)
	}
	if err := b.save(); err != nil {
		t.Fatal(err)
	}

	// A later run at the same seed compares against the saved references.
	again, err := openDigestBook(path)
	if err != nil {
		t.Fatal(err)
	}
	if errs := again.check(perturbed); len(errs) != 1 {
		t.Fatalf("reopened book: %d failed ops, want 1: %v", len(errs), errs)
	}
	if errs := again.check(first); len(errs) != 0 {
		t.Fatalf("reopened book rejected the reference output: %v", errs)
	}
}

func TestFailedOpsCount(t *testing.T) {
	b, _ := openDigestBook("")
	ops := []opResult{
		{id: "round/0", digest: "a"},
		failedOp("round/1", errors.New("optimizer broke")),
		failedOp("experiment/fig4", errors.New("input assets/remycc_delta1.json: sha256 mismatch")),
	}
	if errs := b.check(ops); len(errs) != 2 {
		t.Fatalf("%d failed ops, want 2: %v", len(errs), errs)
	}
}

func TestDigestOfSeparatesParts(t *testing.T) {
	if digestOf([]byte("ab"), []byte("c")) == digestOf([]byte("a"), []byte("bc")) {
		t.Error("digestOf concatenates parts without a separator")
	}
}

func TestCheckChurnCounts(t *testing.T) {
	ok := []scenario.Result{{Res: harness.Result{Churn: []harness.ChurnResult{{Spawned: 5, Completed: 5}, {Spawned: 3, Completed: 1}}}}}
	if err := checkChurnCounts(ok); err != nil {
		t.Errorf("valid counts rejected: %v", err)
	}
	bad := []scenario.Result{{Rep: 1, Res: harness.Result{Churn: []harness.ChurnResult{{Class: 2, Spawned: 3, Completed: 4}}}}}
	if err := checkChurnCounts(bad); err == nil {
		t.Error("Completed > Spawned accepted")
	}
}

func TestSameCounts(t *testing.T) {
	a := harness.Result{Offered: 10, Delivered: 8, Dropped: 2, Churn: []harness.ChurnResult{{Spawned: 4, Completed: 3}}}
	if err := sameCounts(a, a); err != nil {
		t.Errorf("identical results differ: %v", err)
	}
	b := a
	b.Churn = []harness.ChurnResult{{Spawned: 4, Completed: 2}}
	if err := sameCounts(b, a); err == nil {
		t.Error("differing churn counts accepted")
	}
	c := a
	c.AcksDropped = 1
	if err := sameCounts(c, a); err == nil {
		t.Error("differing ack drops accepted")
	}
}
