package main

import (
	"context"
	"errors"
	"path/filepath"
	"testing"
)

// TestRunRejectsCkptEveryWithoutTrain requires an explicit -ckpt-every in fit
// mode to be a usage error before any work: the model file does not exist,
// so anything that got as far as loading it would fail differently.
func TestRunRejectsCkptEveryWithoutTrain(t *testing.T) {
	dir := t.TempDir()
	err := run(context.Background(), "Hangzhou", false, filepath.Join(dir, "missing.ovs"), "", "", "test", 1,
		filepath.Join(dir, "ckpt"), 1, true, false)
	if !errors.Is(err, errUsage) {
		t.Fatalf("fit mode with -ckpt-every: run returned %v, want a usage error", err)
	}
}

// TestRunAcceptsCkptEvery is the control: -ckpt-every passes the flag check
// with -train, and fit mode without it is not a usage error either. Both
// runs start on a cancelled context, so they stop at the first cancellation
// check instead of training or fitting.
func TestRunAcceptsCkptEvery(t *testing.T) {
	dir := t.TempDir()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, c := range []struct {
		name            string
		train, everySet bool
	}{{"train with -ckpt-every", true, true}, {"fit without -ckpt-every", false, false}} {
		err := run(ctx, "Hangzhou", c.train, filepath.Join(dir, "model.ovs"), "", "", "test", 1,
			filepath.Join(dir, "ckpt"), 1, c.everySet, false)
		if errors.Is(err, errUsage) || !errors.Is(err, context.Canceled) {
			t.Fatalf("%s: run returned %v, want the cancellation", c.name, err)
		}
	}
}
