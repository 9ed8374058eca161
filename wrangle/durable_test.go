package wrangle_test

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"repro/wrangle"
)

// durableOpts is the shared session shape of the facade durability tests:
// small sharded universe, tight retention, durable log in dir.
func durableOpts(dir string) []wrangle.Option {
	return []wrangle.Option{
		wrangle.WithSeed(9),
		wrangle.WithSyntheticSources(5),
		wrangle.WithIntegrationShards(2),
		wrangle.WithRetainVersions(3),
		wrangle.WithDurableLog(dir),
	}
}

// TestDurableOptionValidation pins the option guard rails: an empty
// directory, a bogus fsync policy and an fsync policy without a log are
// all construction-time errors.
func TestDurableOptionValidation(t *testing.T) {
	if _, err := wrangle.New(wrangle.WithDurableLog("")); err == nil || !strings.Contains(err.Error(), "empty durable log directory") {
		t.Fatalf("empty dir: %v", err)
	}
	if _, err := wrangle.New(wrangle.WithDurableFsync(wrangle.FsyncPolicy(42))); err == nil || !strings.Contains(err.Error(), "unknown fsync policy") {
		t.Fatalf("bogus policy: %v", err)
	}
	if _, err := wrangle.New(wrangle.WithDurableFsync(wrangle.FsyncAlways)); err == nil || !strings.Contains(err.Error(), "requires WithDurableLog") {
		t.Fatalf("fsync without log: %v", err)
	}
}

// TestInMemorySessionDurability pins the in-memory defaults: not
// restored, no durability stats, Close is a no-op, Checkpoint errors.
func TestInMemorySessionDurability(t *testing.T) {
	s, err := wrangle.New(wrangle.WithSyntheticSources(3))
	if err != nil {
		t.Fatal(err)
	}
	if s.Restored() {
		t.Fatal("in-memory session claims to be restored")
	}
	if _, ok := s.Durability(); ok {
		t.Fatal("in-memory session reports durability stats")
	}
	if err := s.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if err := s.Checkpoint(); err == nil {
		t.Fatal("checkpoint on an in-memory session succeeded")
	}
}

// TestSessionWarmRestart is the facade acceptance path: run + react under
// a durable log, close, reopen — the new session reports Restored, serves
// the same retained versions with identical tables, keeps the retention
// boundary (ErrCompacted below the window), and reacts warm.
func TestSessionWarmRestart(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()

	s, err := wrangle.New(durableOpts(dir)...)
	if err != nil {
		t.Fatal(err)
	}
	if s.Restored() {
		t.Fatal("fresh directory restored a session")
	}
	if _, err := s.Run(ctx); err != nil {
		t.Fatal(err)
	}
	// Publish past the retention window so the compaction boundary is live.
	for i := 0; i < 4; i++ {
		if _, err := s.Refresh(ctx); err != nil {
			t.Fatal(err)
		}
	}
	v, err := s.View()
	if err != nil {
		t.Fatal(err)
	}
	wantVersions := v.Versions()
	wantTable := s.Wrangled().String()
	wantTrust := s.Trust()
	if _, err := v.At(1); !errors.Is(err, wrangle.ErrCompacted) {
		t.Fatalf("live At(1) = %v, want ErrCompacted", err)
	}
	ds, ok := s.Durability()
	if !ok || ds.Bytes <= 0 || ds.Dir != dir {
		t.Fatalf("durability stats = %+v ok=%v", ds, ok)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	r, err := wrangle.New(durableOpts(dir)...)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if !r.Restored() {
		t.Fatal("reopen did not restore the session")
	}
	rv, err := r.View()
	if err != nil {
		t.Fatal(err)
	}
	if got := rv.Versions(); len(got) != len(wantVersions) || got[0] != wantVersions[0] || got[len(got)-1] != wantVersions[len(got)-1] {
		t.Fatalf("restored versions %v, want %v", got, wantVersions)
	}
	if got := r.Wrangled().String(); got != wantTable {
		t.Fatal("restored table differs from the live session's")
	}
	gotTrust := r.Trust()
	for id, w := range wantTrust {
		if gotTrust[id] != w {
			t.Fatalf("trust[%s] = %g, want %g", id, gotTrust[id], w)
		}
	}
	// The retention boundary answers identically right after rehydration.
	if _, err := rv.At(1); !errors.Is(err, wrangle.ErrCompacted) {
		t.Fatalf("restored At(1) = %v, want ErrCompacted", err)
	}
	// Every retained version's table round-tripped.
	for _, seq := range wantVersions {
		lv, err := v.At(seq)
		if err != nil {
			t.Fatalf("live At(%d): %v", seq, err)
		}
		got, err := rv.At(seq)
		if err != nil {
			t.Fatalf("restored At(%d): %v", seq, err)
		}
		if lv.Table().String() != got.Table().String() {
			t.Fatalf("version %d table diverged after restore", seq)
		}
	}

	// Warm reaction without a fresh Run: requireRun must pass, the memo
	// must engage, and the published version continues the sequence.
	stats, err := r.Refresh(ctx, r.SelectedSources()[0])
	if err != nil {
		t.Fatalf("post-restore refresh: %v", err)
	}
	if stats.ShardsReused == 0 {
		t.Fatalf("post-restore refresh reused no shards: %+v", stats)
	}
	rv2, _ := r.View()
	if rv2.Version() != wantVersions[len(wantVersions)-1]+1 {
		t.Fatalf("post-restore publish seq %d, want %d", rv2.Version(), wantVersions[len(wantVersions)-1]+1)
	}
}

// TestDurableLogIgnoresStreamingOption pins the config record's fold: the
// bool that used to carry the streaming knob is derived from the shard
// count, so a log written by a sharded session reopens — and restores
// warm — whether or not the deprecated option is passed, while a
// different shard count is still refused.
func TestDurableLogIgnoresStreamingOption(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	opts := func(shards int, extra ...wrangle.Option) []wrangle.Option {
		return append([]wrangle.Option{
			wrangle.WithSeed(9), wrangle.WithSyntheticSources(5),
			wrangle.WithIntegrationShards(shards), wrangle.WithDurableLog(dir),
		}, extra...)
	}
	s, err := wrangle.New(opts(4, wrangle.WithStreamingRefresh())...)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(ctx); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	for name, extra := range map[string][]wrangle.Option{
		"without the option": nil,
		"with the option":    {wrangle.WithStreamingRefresh()},
	} {
		r, err := wrangle.New(opts(4, extra...)...)
		if err != nil {
			t.Fatalf("reopen %s: %v", name, err)
		}
		if !r.Restored() {
			t.Fatalf("reopen %s did not restore the session", name)
		}
		stats, err := r.Refresh(ctx, r.SelectedSources()[0])
		if err != nil {
			t.Fatalf("reopen %s: refresh: %v", name, err)
		}
		if stats.ShardsReused == 0 {
			t.Errorf("reopen %s: first reaction was a cold tail: %+v", name, stats)
		}
		if err := r.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := wrangle.New(opts(3)...); err == nil {
		t.Error("a log written under 4 shards attached to a 3-shard session")
	}
}

// TestSessionWatchAfterRestart: a watcher subscribing after a warm
// restart catches up from the restored retention window, exactly like a
// live store.
func TestSessionWatchAfterRestart(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	s, err := wrangle.New(durableOpts(dir)...)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Refresh(ctx); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	r, err := wrangle.New(durableOpts(dir)...)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	ch, cancel, err := r.Watch(ctx, 1)
	if err != nil {
		t.Fatalf("watch from restored window: %v", err)
	}
	defer cancel()
	select {
	case c := <-ch:
		if c.Version() != 2 {
			t.Fatalf("catch-up delivered version %d, want 2", c.Version())
		}
	case <-time.After(10 * time.Second):
		t.Fatal("restored watch delivered no catch-up")
	}
}

// TestCheckpointBoundsLog pins Session.Checkpoint: after growth, a
// checkpoint rewrites the log down to the retention window, records the
// checkpointed seq, and the compacted log still restores.
func TestCheckpointBoundsLog(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	s, err := wrangle.New(durableOpts(dir)...)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(ctx); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := s.Refresh(ctx); err != nil {
			t.Fatal(err)
		}
	}
	before, _ := s.Durability()
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	after, _ := s.Durability()
	if after.Bytes >= before.Bytes {
		t.Fatalf("checkpoint did not shrink the log: %d -> %d bytes", before.Bytes, after.Bytes)
	}
	v, _ := s.View()
	if after.LastCheckpointSeq != v.Version() {
		t.Fatalf("checkpoint seq %d, want latest %d", after.LastCheckpointSeq, v.Version())
	}
	wantTable := s.Wrangled().String()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	r, err := wrangle.New(durableOpts(dir)...)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if !r.Restored() || r.Wrangled().String() != wantTable {
		t.Fatal("compacted log did not restore the same session")
	}
}
