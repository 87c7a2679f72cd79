package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// opResult is one op of a job — a training round, a campaign cell or
// report, or a paper experiment — with the digest of what it produced.
// An op with a non-nil err failed outright.
type opResult struct {
	id     string
	digest string
	err    error
}

func failedOp(id string, err error) opResult { return opResult{id: id, err: err} }

// digestBook holds the reference digest of every op at one seed: the first
// digest seen for the op in this checkout (persisted across runs when a
// state file is configured), so every later execution of the op at the
// same seed must reproduce it byte for byte.
type digestBook struct {
	path string // "" keeps the book in memory only
	ref  map[string]string
	// dirty marks references first recorded by this process.
	dirty bool
}

func openDigestBook(path string) (*digestBook, error) {
	b := &digestBook{path: path, ref: map[string]string{}}
	if path == "" {
		return b, nil
	}
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return b, nil
	}
	if err != nil {
		return nil, err
	}
	if err := json.Unmarshal(data, &b.ref); err != nil {
		return nil, fmt.Errorf("digest book %s: %w", path, err)
	}
	return b, nil
}

// check compares ops against the book, recording the digest of any op seen
// for the first time, and returns the ops that failed with their reasons.
func (b *digestBook) check(ops []opResult) []error {
	var errs []error
	for _, op := range ops {
		if op.err != nil {
			errs = append(errs, fmt.Errorf("%s: %w", op.id, op.err))
			continue
		}
		want, ok := b.ref[op.id]
		if !ok {
			b.ref[op.id] = op.digest
			b.dirty = true
			continue
		}
		if want != op.digest {
			errs = append(errs, fmt.Errorf("%s: digest %.16s differs from the reference %.16s at this seed", op.id, op.digest, want))
		}
	}
	return errs
}

// save persists newly recorded references.
func (b *digestBook) save() error {
	if b.path == "" || !b.dirty {
		return nil
	}
	data, err := json.MarshalIndent(b.ref, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(b.path), 0o755); err != nil {
		return err
	}
	tmp := b.path + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, b.path)
}
