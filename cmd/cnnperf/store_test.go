package main

import (
	"bytes"
	"context"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"cnnperf"
	"cnnperf/internal/artifactstore"
)

// captureStdout runs fn and returns what it printed.
func captureStdout(t *testing.T, fn func() error) string {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	orig := os.Stdout
	os.Stdout = w
	out := make(chan string)
	go func() {
		b, _ := io.ReadAll(r)
		out <- string(b)
	}()
	ferr := fn()
	os.Stdout = orig
	w.Close()
	s := <-out
	r.Close()
	if ferr != nil {
		t.Fatalf("%v (output: %s)", ferr, s)
	}
	return s
}

// snapshotNamespaces counts the records of each namespace in a snapshot.
func snapshotNamespaces(t *testing.T, path string) map[string]int {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	got := make(map[string]int)
	if _, err := artifactstore.ReadSnapshot(f, func(ns, _ string, _ []byte) error {
		got[ns]++
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return got
}

// TestStoreCommandsKeepCodecNamespaces seeds a store with records of
// the namespaces this build has a codec for (dca, est) and of the ones
// older builds also wrote (lint, dcac, ptxa). `store export` must pack
// only the former, `store import` of a snapshot holding all five must
// write only the former, and `store gc` must delete the latter's
// directories, count them, and leave the live records and any directory
// that is not a store namespace alone.
func TestStoreCommandsKeepCodecNamespaces(t *testing.T) {
	ctx := context.Background()
	cfg := cnnperf.DefaultConfig()
	dir := t.TempDir()
	store, err := artifactstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	live := []string{"dca", "est"}
	legacy := []string{"dcac", "lint", "ptxa"}
	for _, ns := range append(append([]string{}, live...), legacy...) {
		if err := store.EnsureNamespace(ns, 1); err != nil {
			t.Fatal(err)
		}
		for _, k := range []string{"a", "b"} {
			if err := store.Put(ctx, ns, ns+":"+k, []byte(`{"version":1}`)); err != nil {
				t.Fatal(err)
			}
		}
	}
	foreign := filepath.Join(dir, "notes")
	if err := os.MkdirAll(foreign, 0o755); err != nil {
		t.Fatal(err)
	}

	snap := filepath.Join(t.TempDir(), "store.snap")
	captureStdout(t, func() error {
		return runStore(ctx, []string{"export", "-dir", dir, "-out", snap}, cfg)
	})
	if got, want := snapshotNamespaces(t, snap), map[string]int{"dca": 2, "est": 2}; !reflect.DeepEqual(got, want) {
		t.Errorf("exported namespaces %v, want %v", got, want)
	}

	full := filepath.Join(t.TempDir(), "full.snap")
	f, err := os.Create(full)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := store.Export(ctx, f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	imported := t.TempDir()
	captureStdout(t, func() error {
		return runStore(ctx, []string{"import", "-dir", imported, "-in", full}, cfg)
	})
	ents, err := os.ReadDir(imported)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, e := range ents {
		got = append(got, e.Name())
	}
	if !reflect.DeepEqual(got, live) {
		t.Errorf("import wrote namespaces %v, want %v", got, live)
	}

	out := captureStdout(t, func() error {
		return runStore(ctx, []string{"gc", "-dir", dir}, cfg)
	})
	if !strings.Contains(out, "3 namespace(s) without a codec: dcac, lint, ptxa") {
		t.Errorf("gc output does not count the removed namespaces: %q", out)
	}
	for _, ns := range legacy {
		if _, err := os.Stat(filepath.Join(dir, ns)); !os.IsNotExist(err) {
			t.Errorf("gc left namespace %s (stat err %v)", ns, err)
		}
	}
	if _, err := os.Stat(foreign); err != nil {
		t.Errorf("gc removed a directory that is not a store namespace: %v", err)
	}
	res, err := store.Verify(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if res.Records != 4 || res.Corrupt != 0 {
		t.Errorf("after gc the store holds %d records (%d corrupt), want the 4 live ones", res.Records, res.Corrupt)
	}
	out = captureStdout(t, func() error {
		return runStore(ctx, []string{"gc", "-dir", dir}, cfg)
	})
	if !strings.Contains(out, "0 namespace(s) without a codec") {
		t.Errorf("second gc output %q, want nothing left to remove", out)
	}
}

// TestStoreWarmIndependentOfWorkers warms two stores with the same
// models, one analysis at a time and four at once, and requires their
// exported snapshots to be byte-identical: which of several
// content-identical kernel launches writes a shared record first must
// not show in its bytes.
func TestStoreWarmIndependentOfWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("warms the full-zoo estimator twice")
	}
	ctx := context.Background()
	cfg := cnnperf.DefaultConfig()
	var snaps [][]byte
	for _, workers := range []string{"1", "4"} {
		dir := t.TempDir()
		snap := filepath.Join(t.TempDir(), "store.snap")
		captureStdout(t, func() error {
			if err := runStore(ctx, []string{"warm", "-dir", dir, "-models", "alexnet,mobilenet", "-workers", workers}, cfg); err != nil {
				return err
			}
			return runStore(ctx, []string{"export", "-dir", dir, "-out", snap}, cfg)
		})
		b, err := os.ReadFile(snap)
		if err != nil {
			t.Fatal(err)
		}
		snaps = append(snaps, b)
	}
	if !bytes.Equal(snaps[0], snaps[1]) {
		t.Fatalf("snapshots warmed with 1 and 4 workers differ (%d vs %d bytes)", len(snaps[0]), len(snaps[1]))
	}
}
