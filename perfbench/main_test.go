package main

import (
	"bytes"
	"encoding/json"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

func TestManifestPinsEveryInput(t *testing.T) {
	dir, _ := filepath.Abs("inputs")
	m, err := readManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.verify(dir, slices.Sorted(maps.Keys(m.Files))...); err != nil {
		t.Fatal(err)
	}
	if m.DefaultSeed == m.ClaimSeed {
		t.Error("the claim seed must differ from the default seed")
	}
}

// copyInputs copies the pinned inputs into a fresh directory.
func copyInputs(t *testing.T) string {
	t.Helper()
	src, _ := filepath.Abs("inputs")
	dst := t.TempDir()
	err := filepath.WalkDir(src, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(src, path)
		if d.IsDir() {
			return os.MkdirAll(filepath.Join(dst, rel), 0o755)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dst, rel), data, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
	return dst
}

func TestVerifyRejectsChangedOrMissingInputs(t *testing.T) {
	dir := copyInputs(t)
	m, err := readManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "train_start.json")
	data, _ := os.ReadFile(path)
	if err := os.WriteFile(path, append(data, ' '), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := m.verify(dir, "train_start.json"); err == nil {
		t.Error("a changed input passed verification")
	}
	if err := os.Remove(filepath.Join(dir, "assets", "remycc_dc.json")); err != nil {
		t.Fatal(err)
	}
	if _, err := m.verify(dir, "assets/remycc_dc.json"); err == nil {
		t.Error("a missing input passed verification")
	}
	if _, err := m.verify(dir, "unpinned.json"); err == nil {
		t.Error("an input without a pinned hash passed verification")
	}
}

// runBench runs the command in process and decodes its last output line.
func runBench(t *testing.T, args ...string) (result, string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var r result
	dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&r); err != nil {
		t.Fatalf("last line %q: %v", lines[len(lines)-1], err)
	}
	return r, stderr.String()
}

func TestChangedInputFailsEveryOp(t *testing.T) {
	dir := copyInputs(t)
	path := filepath.Join(dir, "assets", "remycc_delta1.json")
	data, _ := os.ReadFile(path)
	if err := os.WriteFile(path, bytes.Replace(data, []byte("1"), []byte("2"), 1), 0o644); err != nil {
		t.Fatal(err)
	}
	r, _ := runBench(t, "--workload", "paper_eval", "--seconds", "0", "--inputs", dir)
	if r.Correct || r.Attempted != len(paperExperiments) || r.Failed != r.Attempted {
		t.Fatalf("result %+v: want every op failed", r)
	}
	if len(r.Metrics) != len(endToEnd) {
		t.Fatalf("%d metrics, want %d", len(r.Metrics), len(endToEnd))
	}
}

func TestRejectsBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "train", "--trace", "2"},
		{"--workload", "train", "extra"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code == 0 || stdout.Len() != 0 {
			t.Errorf("%v: exit %d, stdout %q; want a non-zero exit and no result", args, code, stdout.String())
		}
	}
}

// TestPaperEvalEndToEnd runs one untraced and one traced paper_eval job.
func TestPaperEvalEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the paper_eval workload")
	}
	r, _ := runBench(t, "--workload", "paper_eval", "--seconds", "0")
	if !r.Correct || r.Failed != 0 || r.Attempted != len(paperExperiments) {
		t.Fatalf("untraced result %+v", r)
	}
	for _, d := range endToEnd {
		if m, ok := r.Metrics[d.name]; !ok || m.Value <= 0 || m.Unit != d.unit {
			t.Errorf("%s = %+v, want a positive value in %s", d.name, m, d.unit)
		}
	}
	tr, _ := runBench(t, "--workload", "paper_eval", "--seconds", "0", "--trace", "1")
	if !tr.Correct || tr.Attempted != 2*len(paperExperiments) {
		t.Fatalf("traced result %+v", tr)
	}
	total := 0.0
	for _, l := range layers {
		total += tr.Metrics[l+".self_share"].Value
	}
	if total < 99 || total > 101 {
		t.Errorf("self_share values sum to %g%%", total)
	}
	if tr.Metrics["exp.sim_runs"].Value <= 0 || tr.Metrics["trace_overhead"].Value <= 0 {
		t.Errorf("exp.sim_runs %v, trace_overhead %v: want positive", tr.Metrics["exp.sim_runs"], tr.Metrics["trace_overhead"])
	}
}
