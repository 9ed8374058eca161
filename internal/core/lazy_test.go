package core_test

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/wrangletest"
)

const (
	lazySeed    = int64(17)
	lazySources = 5
	lazyShards  = 4
)

var lazyChurn = []float64{0.2, 0.15, 0.25}

// seedLazyLog runs a sharded durable session — a run, then one churn and
// refresh per lazyChurn entry, so the log retains four versions — and
// closes it. It returns the log's directory and the live session.
func seedLazyLog(t *testing.T) (string, *core.Wrangler) {
	t.Helper()
	dir := t.TempDir()
	live := wrangletest.NewWrangler(lazySeed, lazySources, lazyShards)
	d, err := core.OpenDurableLog(dir, core.FsyncOnCheckpoint)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := live.AttachDurableLog(d); err != nil {
		t.Fatal(err)
	}
	if _, err := live.Run(); err != nil {
		t.Fatal(err)
	}
	for i, churn := range lazyChurn {
		live.EvolveWorld(churn)
		ids := live.SelectedSources()
		if _, err := live.RefreshSourcesContext(context.Background(), ids[i%len(ids):i%len(ids)+1]); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	return dir, live
}

// openLazyLog opens the log in dir over a fresh wrangler whose world has
// seen the same churn as the live one; the log is not attached yet.
func openLazyLog(t *testing.T, dir string) (*core.Wrangler, *core.DurableLog) {
	t.Helper()
	w := wrangletest.NewWrangler(lazySeed, lazySources, lazyShards)
	for _, churn := range lazyChurn {
		w.EvolveWorld(churn)
	}
	d, err := core.OpenDurableLog(dir, core.FsyncOnCheckpoint)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.Close() })
	return w, d
}

// TestLazyRestoreDecodeCounts pins where restore stops decoding: opening
// the log decodes no page or version body; attaching and serving the
// latest version decodes exactly the newest version and its pages; the
// deferred working-state rebuild decodes nothing more; and reaching the
// oldest retained version decodes exactly one more version.
func TestLazyRestoreDecodeCounts(t *testing.T) {
	dir, live := seedLazyLog(t)
	w, d := openLazyLog(t, dir)
	if p, v := d.Decoded(); p != 0 || v != 0 {
		t.Fatalf("open decoded %d pages and %d versions, want none", p, v)
	}
	if restored, err := w.AttachDurableLog(d); err != nil || !restored {
		t.Fatalf("attach: restored=%v err=%v", restored, err)
	}
	if w.Serve.Latest().Data().Table.Len() == 0 {
		t.Fatal("the restored latest version serves an empty table")
	}
	if p, v := d.Decoded(); p != lazyShards || v != 1 {
		t.Fatalf("attach and first read decoded %d pages and %d versions, want the newest version's %d pages and it", p, v, lazyShards)
	}
	if got, want := wrangletest.Fingerprint(w), wrangletest.Fingerprint(live); got != want {
		t.Fatal("the rebuilt working state differs from the live session's")
	}
	if p, v := d.Decoded(); p != lazyShards || v != 1 {
		t.Fatalf("the working-state rebuild decoded more: %d pages and %d versions", p, v)
	}
	versions := w.Serve.Versions()
	if len(versions) != len(lazyChurn)+1 {
		t.Fatalf("restored %d versions, want %d", len(versions), len(lazyChurn)+1)
	}
	if _, err := w.Serve.At(versions[0]); err != nil {
		t.Fatalf("At(oldest): %v", err)
	}
	if _, v := d.Decoded(); v != 2 {
		t.Fatalf("At(oldest) left %d versions decoded, want 2", v)
	}
}

// TestLazyRestoreStickyError pins what a restore whose working state
// cannot be rebuilt does now that the rebuild is deferred: attach succeeds
// and the restored versions serve, but every reaction returns the rebuild
// error — the first, which ran it, and every one after — and none panics.
// Two corruptions of the newest version's clusters: an assignment that
// misses a union row, and one that names a cluster id past the last.
func TestLazyRestoreStickyError(t *testing.T) {
	for _, tc := range []struct {
		name    string
		corrupt func(*core.DurableLog) error
		want    string
	}{
		{"truncated", (*core.DurableLog).TruncateNewestClusters, "clusters do not cover"},
		{"out-of-range id", (*core.DurableLog).OutOfRangeNewestCluster, "outside [0,"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir, live := seedLazyLog(t)
			w, d := openLazyLog(t, dir)
			if err := tc.corrupt(d); err != nil {
				t.Fatal(err)
			}
			if restored, err := w.AttachDurableLog(d); err != nil || !restored {
				t.Fatalf("attach: restored=%v err=%v", restored, err)
			}
			if got, want := w.Serve.Latest().Seq(), live.Serve.Latest().Seq(); got != want {
				t.Fatalf("serving version %d, want %d", got, want)
			}
			ids := live.SelectedSources()
			for i := 0; i < 2; i++ {
				_, err := w.RefreshSourcesContext(context.Background(), ids[:1])
				if err == nil || !strings.Contains(err.Error(), tc.want) {
					t.Fatalf("reaction %d after a failed rebuild returned %v, want the rebuild error", i+1, err)
				}
			}
			if _, err := w.ReactToFeedbackContext(context.Background()); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("a feedback reaction after a failed rebuild returned %v, want the rebuild error", err)
			}
			if _, err := w.Serve.At(w.Serve.Versions()[0]); err != nil {
				t.Fatalf("the restored versions stopped serving: %v", err)
			}
		})
	}
}

// TestLazyRestoreConcurrentReaders has readers load every older restored
// version — through At and Watch catch-up, each decoding the version and
// the pages it shares with its neighbours — while the session reacts and
// compacts, which decodes the same versions for their page ids. Run under
// -race: every lazy decode runs once, and what each reader gets is the
// live session's version.
func TestLazyRestoreConcurrentReaders(t *testing.T) {
	dir, live := seedLazyLog(t)
	w, d := openLazyLog(t, dir)
	if _, err := w.AttachDurableLog(d); err != nil {
		t.Fatal(err)
	}
	want := map[uint64]string{}
	for _, seq := range live.Serve.Versions() {
		v, err := live.Serve.At(seq)
		if err != nil {
			t.Fatal(err)
		}
		want[seq] = versionKey(v)
	}
	versions := w.Serve.Versions()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			if g%2 == 0 {
				for _, seq := range versions {
					// Compacted away by the session's reactions is fine; a
					// version handed out must be the live one.
					if v, err := w.Serve.At(seq); err == nil && versionKey(v) != want[seq] {
						t.Errorf("At(%d) served another version", seq)
					}
				}
				return
			}
			ch, cancel, err := w.Serve.Watch(context.Background(), versions[0]-1)
			if err != nil {
				return // compacted already
			}
			defer cancel()
			for range versions {
				if c := <-ch; want[c.Seq()] != "" && versionKey(c.Version) != want[c.Seq()] {
					t.Errorf("Watch replayed another version %d", c.Seq())
				}
			}
		}(g)
	}
	ids := live.SelectedSources()
	for i := 0; i < 2; i++ {
		w.EvolveWorld(0.1)
		if _, err := w.RefreshSourcesContext(context.Background(), ids[i:i+1]); err != nil {
			t.Fatal(err)
		}
		if err := w.Checkpoint(); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
	if _, v := d.Decoded(); v != int64(len(versions)) {
		t.Errorf("decoded %d version bodies, want each of the %d restored ones once", v, len(versions))
	}
}

// versionKey renders a version's identity and table for comparison.
func versionKey(v *core.PublishedVersion) string {
	d := v.Data()
	return fmt.Sprint(v.Seq(), v.Step(), d.Table.Len(), d.Entities, d.Trust)
}
