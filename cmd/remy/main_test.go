package main

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

// The e2e tests drive the real CLI binary: TestMain re-execs the test binary
// as `remy` when the env gate is set, so subprocess runs go through the
// genuine main().

const mainEnvGate = "REMY_E2E_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(mainEnvGate) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// remyCmd builds an *exec.Cmd that runs the CLI with the given args.
func remyCmd(t *testing.T, args ...string) *exec.Cmd {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(exe, args...)
	cmd.Env = append(os.Environ(), mainEnvGate+"=1")
	return cmd
}

// e2eModel is a tiny custom design model: quick enough for subprocess runs,
// non-trivial enough that every round performs real candidate evaluations.
func e2eModel() []string {
	return []string{
		"-senders", "1:2", "-rate", "10e6", "-rtt", "100:150",
		"-duration", "1", "-specimens", "2", "-seed", "7", "-workers", "2",
	}
}

func train(t *testing.T, out string, extra ...string) []byte {
	t.Helper()
	args := append(e2eModel(), "-out", out)
	args = append(args, extra...)
	cmdOut, err := remyCmd(t, args...).CombinedOutput()
	if err != nil {
		t.Fatalf("remy %v failed: %v\n%s", args, err, cmdOut)
	}
	tree, err := os.ReadFile(out)
	if err != nil {
		t.Fatalf("no output tree: %v\n%s", err, cmdOut)
	}
	return tree
}

// TestResumeMatchesUninterrupted pins that -checkpoint/-resume compose byte
// for byte: a run checkpointed after 2 rounds and resumed to 4 trains exactly
// the tree an uninterrupted 4-round run trains.
func TestResumeMatchesUninterrupted(t *testing.T) {
	if testing.Short() {
		t.Skip("e2e subprocess test")
	}
	dir := t.TempDir()
	ref := train(t, filepath.Join(dir, "ref.json"), "-rounds", "4")
	ckpt := filepath.Join(dir, "run.ckpt.json")
	train(t, filepath.Join(dir, "run2.json"), "-rounds", "2", "-checkpoint", ckpt)
	got := train(t, filepath.Join(dir, "run4.json"), "-rounds", "4", "-checkpoint", ckpt, "-resume")
	if !bytes.Equal(ref, got) {
		t.Fatal("checkpointed and resumed run diverged from the uninterrupted run")
	}
}
