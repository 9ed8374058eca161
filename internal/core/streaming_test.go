package core

import (
	stdctx "context"
	"testing"

	"repro/internal/context"
	"repro/internal/feedback"
	"repro/internal/ontology"
	"repro/internal/sources"
)

// newShardedWrangler builds a sharded wrangler over a moderate synthetic
// universe.
func newShardedWrangler(seed int64, nSources, shards int) *Wrangler {
	u := buildUniverse(seed, nSources, false)
	dataCtx := context.NewDataContext().WithTaxonomy(ontology.ProductTaxonomy())
	w := New(u, ProductConfig(), nil, dataCtx)
	w.IntegrationShards = shards
	return w
}

// TestStreamingRefreshScalesWithDirtyShards pins the sharded refresh's
// observable behaviour: a one-source refresh re-resolves only the shards
// its delta touched, reports the split in ReactStats, attributes the
// tail per DAG stage, and still shares every untouched shard's records
// with the predecessor version by pointer.
func TestStreamingRefreshScalesWithDirtyShards(t *testing.T) {
	const shards = 8
	w := newShardedWrangler(7, 12, shards)
	if _, err := w.Run(); err != nil {
		t.Fatal(err)
	}
	if w.memo == nil {
		t.Fatal("a sharded session's run must record a tail memo")
	}
	id := w.SelectedSources()[0]
	reused := 0
	for round := 0; round < 3; round++ {
		before := w.Serve.Latest().Data().Table
		w.EvolveWorld(0.1)
		stats, err := w.RefreshSource(id)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if got := stats.ShardsResolved + stats.ShardsReused; got != shards {
			t.Fatalf("round %d: resolved %d + reused %d != %d shards",
				round, stats.ShardsResolved, stats.ShardsReused, shards)
		}
		reused += stats.ShardsReused
		for _, stage := range []string{"replan", "trust", "merge", "integrate", "reextract"} {
			if _, ok := stats.Stages[stage]; !ok {
				t.Errorf("round %d: stage %q missing from %v", round, stage, stats.Stages)
			}
		}
		after := w.Serve.Latest().Data().Table
		if shared := SharedRecords(before, after); shared == 0 {
			t.Errorf("round %d: no records shared with the predecessor version", round)
		}
	}
	if reused == 0 {
		t.Error("three one-source refreshes never reused a shard")
	}
}

// TestStreamingValueFeedbackReusesClusters pins the fuse-only sharded
// reaction: value feedback re-estimates trust and re-fuses, but every
// shard's clusters carry over — ShardsReused reports all of them and the
// reaction is not a recluster.
func TestStreamingValueFeedbackReusesClusters(t *testing.T) {
	const shards = 4
	w := newShardedWrangler(11, 8, shards)
	if _, err := w.Run(); err != nil {
		t.Fatal(err)
	}
	res := w.Results()
	if len(res) == 0 {
		t.Fatal("no fused results")
	}
	w.AddFeedback(feedback.Item{
		Kind: feedback.ValueIncorrect, SourceID: w.SelectedSources()[0],
		Entity: res[0].Entity, Attribute: res[0].Attribute, Worker: "expert", Cost: 1,
	})
	stats, err := w.ReactToFeedback()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Reclustered {
		t.Error("value feedback must not recluster")
	}
	if !stats.Refused {
		t.Error("value feedback must refuse")
	}
	if stats.ShardsResolved != 0 || stats.ShardsReused != shards {
		t.Errorf("fuse-only reaction: resolved=%d reused=%d, want 0/%d",
			stats.ShardsResolved, stats.ShardsReused, shards)
	}
}

// TestStreamingFallsBackWithoutMemo pins the degradation path: with the
// memo invalidated (as after a failed tail), the next reaction runs a
// full tail, still succeeds, and re-records the memo so partial tails
// resume.
func TestStreamingFallsBackWithoutMemo(t *testing.T) {
	w := newShardedWrangler(13, 8, 4)
	if _, err := w.Run(); err != nil {
		t.Fatal(err)
	}
	w.memo = nil
	w.EvolveWorld(0.2)
	if _, err := w.RefreshSource(w.SelectedSources()[0]); err != nil {
		t.Fatal(err)
	}
	if w.memo == nil {
		t.Fatal("full-tail fallback must re-record the memo")
	}
	// The re-recorded memo must be a valid diff baseline.
	w.EvolveWorld(0.1)
	stats, err := w.RefreshSource(w.SelectedSources()[0])
	if err != nil {
		t.Fatal(err)
	}
	if stats.ShardsResolved+stats.ShardsReused != 4 {
		t.Errorf("partial tails did not resume: %+v", stats)
	}
}

// TestFuseOnlyWithoutPagesRunsFullTail pins the other degradation path: a
// value-feedback (fuse-only) reaction on a sharded session whose last
// tail never merged — as after a first run cancelled mid-tail — has no
// pages to re-fuse, so it runs the full tail, which builds them, and
// lands where an intact default session's fuse-only reaction does.
func TestFuseOnlyWithoutPagesRunsFullTail(t *testing.T) {
	drive := func(shards int) *Wrangler {
		t.Helper()
		w := newShardedWrangler(11, 8, shards)
		if _, err := w.Run(); err != nil {
			t.Fatal(err)
		}
		if shards > 0 {
			w.pages, w.memo = nil, nil
		}
		res := w.Results()
		w.AddFeedback(feedback.Item{
			Kind: feedback.ValueIncorrect, SourceID: w.SelectedSources()[0],
			Entity: res[0].Entity, Attribute: res[0].Attribute, Worker: "expert", Cost: 1,
		})
		if _, err := w.ReactToFeedback(); err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		return w
	}
	base, sharded := drive(0), drive(4)
	if len(sharded.pages) != 4 || sharded.memo == nil {
		t.Fatalf("the reaction did not rebuild the sharded integration: %d pages, memo %v", len(sharded.pages), sharded.memo != nil)
	}
	if base.Wrangled().String() != sharded.Wrangled().String() {
		t.Error("sharded reaction diverged from the default session's fuse-only reaction")
	}
	for src, want := range base.Trust() {
		if got := sharded.Trust()[src]; got != want {
			t.Errorf("trust[%s] = %v, the default session says %v", src, got, want)
		}
	}
}

// serialOnly hides a provider's ConcurrentProvider implementation, so
// the orchestrator takes the serial acquisition path.
type serialOnly struct{ sources.Provider }

// TestConcurrentAcquireMatchesSerial pins the ConcurrentProvider
// contract end to end: refreshing a batch (with duplicate ids) through
// the concurrent acquisition path installs byte-identical working data
// to the serial path.
func TestConcurrentAcquireMatchesSerial(t *testing.T) {
	build := func(concurrent bool) (*Wrangler, *sources.Universe) {
		u := buildUniverse(19, 8, false)
		var p sources.Provider = u
		if !concurrent {
			// Hiding the ConcurrentProvider method forces the serial
			// acquisition path.
			p = &serialOnly{Provider: u}
		}
		dataCtx := context.NewDataContext().WithTaxonomy(ontology.ProductTaxonomy())
		w := New(p, ProductConfig(), nil, dataCtx)
		w.Parallelism = 4
		return w, u
	}
	drive := func(w *Wrangler, u *sources.Universe) *Wrangler {
		t.Helper()
		if _, err := w.Run(); err != nil {
			t.Fatal(err)
		}
		ids := w.SelectedSources()
		u.World.Evolve(0.3)
		batch := []string{ids[0], ids[1], ids[0], ids[2]} // duplicate on purpose
		if _, err := w.RefreshSourcesContext(stdctx.Background(), batch); err != nil {
			t.Fatal(err)
		}
		return w
	}
	serial := drive(build(false))
	conc := drive(build(true))
	if serial.Wrangled().String() != conc.Wrangled().String() {
		t.Error("concurrent acquisition produced a different table than serial")
	}
	st, ct := serial.Trust(), conc.Trust()
	if len(st) != len(ct) {
		t.Fatalf("trust maps differ in size: %d vs %d", len(st), len(ct))
	}
	for k, v := range st {
		if ct[k] != v {
			t.Errorf("trust[%s] = %v (concurrent) vs %v (serial)", k, ct[k], v)
		}
	}
	if serial.LastStats.SourcesProcessed != conc.LastStats.SourcesProcessed {
		t.Error("stats diverged between acquisition paths")
	}
}
