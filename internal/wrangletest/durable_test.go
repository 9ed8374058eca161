package wrangletest

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/feedback"
	"repro/internal/report"
	"repro/internal/serve"
)

// These tests pin the durable-log acceptance property: a session closed
// and reopened from its log is indistinguishable from the live session it
// was — the working data fingerprints byte-identically, every retained
// snapshot version round-trips exactly (metadata, change set and all
// published artefacts), compaction errors survive the restart, and the
// first reaction after a warm restart runs the partial tail, not a cold
// integration.

// openDurable attaches a fresh durable log in dir to w, failing the test
// on any error.
func openDurable(t *testing.T, w *core.Wrangler, dir string) bool {
	t.Helper()
	d, err := core.OpenDurableLog(dir, core.FsyncOnCheckpoint)
	if err != nil {
		t.Fatalf("open durable log: %v", err)
	}
	restored, err := w.AttachDurableLog(d)
	if err != nil {
		t.Fatalf("attach durable log: %v", err)
	}
	return restored
}

// fingerprintVersion renders one committed snapshot version — metadata,
// change set and every published artefact — into a stable string, the
// per-version analogue of Fingerprint.
func fingerprintVersion(v *core.PublishedVersion) string {
	var b strings.Builder
	fmt.Fprintf(&b, "seq=%d step=%d origin=%s at=%d\n", v.Seq(), v.Step(), v.Origin(), v.At().UnixNano())
	b.WriteString(changeKey(v.Changes()))
	d := v.Data()
	if t := d.Table; t != nil {
		fmt.Fprintf(&b, "schema %s\n", t.Schema().String())
		for i := 0; i < t.Len(); i++ {
			parts := make([]string, len(t.Row(i)))
			for j, val := range t.Row(i) {
				parts[j] = val.Key()
			}
			fmt.Fprintf(&b, "%d: %s\n", i, strings.Join(parts, "|"))
		}
	}
	if d.Report != nil {
		fmt.Fprintf(&b, "report %q\n", d.Report.Title)
		for _, l := range d.Report.Lines {
			fmt.Fprintf(&b, "%s/%s = %s conf=%g conflict=%v sup=%s\n",
				l.Entity, l.Attribute, l.Value, l.Confidence, l.Conflict, strings.Join(l.Supporters, ","))
		}
	}
	fmt.Fprintf(&b, "stats proc=%d sel=%d rows=%d/%d reex=%v repairs=%d fail=%v dur=%d stages=%s\n",
		d.Stats.SourcesProcessed, d.Stats.SourcesSelected, d.Stats.RowsExtracted, d.Stats.RowsWrangled,
		d.Stats.Reextracted, d.Stats.WrapperRepairs, d.Stats.Failures, d.Stats.Duration, stagesKey(d.Stats.Stages))
	fmt.Fprintf(&b, "react fb=%d reex=%d remap=%d reclustered=%v refused=%v resolved=%d reused=%d dur=%d stages=%s\n",
		d.React.FeedbackItems, d.React.SourcesReextracted, d.React.Remapped, d.React.Reclustered,
		d.React.Refused, d.React.ShardsResolved, d.React.ShardsReused, d.React.Duration, stagesKey(d.React.Stages))
	ids := make([]string, 0, len(d.Trust))
	for id := range d.Trust {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		fmt.Fprintf(&b, "trust %s = %g\n", id, d.Trust[id])
	}
	ids = ids[:0]
	for id := range d.Sources {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		fmt.Fprintf(&b, "source %s = %+v\n", id, d.Sources[id])
	}
	fmt.Fprintf(&b, "selected %s\nentities %s\n", strings.Join(d.Selected, ","), strings.Join(d.Entities, ","))
	return b.String()
}

func stagesKey(m map[string]time.Duration) string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, len(keys))
	for i, k := range keys {
		parts[i] = fmt.Sprintf("%s=%d", k, m[k])
	}
	return strings.Join(parts, ",")
}

// changeKey renders a version's change set.
func changeKey(c serve.ChangeSet) string {
	return fmt.Sprintf("changes full=%v shards=%v pages=%d shared=%d recs=%v removed=%v\n",
		c.Full, c.ChangedShards, c.ChangedPages, c.SharedPages, c.ChangedRecords, c.RemovedRecords)
}

// compareStores fails the test unless both serve stores retain the same
// version sequence and every retained version fingerprints identically.
func compareStores(t *testing.T, stage string, live, restored *core.VersionStore) {
	t.Helper()
	wantSeqs, gotSeqs := live.Versions(), restored.Versions()
	if fmt.Sprint(wantSeqs) != fmt.Sprint(gotSeqs) {
		t.Fatalf("%s: retained versions diverged: live %v, restored %v", stage, wantSeqs, gotSeqs)
	}
	for _, seq := range wantSeqs {
		lv, err := live.At(seq)
		if err != nil {
			t.Fatalf("%s: live At(%d): %v", stage, seq, err)
		}
		rv, err := restored.At(seq)
		if err != nil {
			t.Fatalf("%s: restored At(%d): %v", stage, seq, err)
		}
		want, got := fingerprintVersion(lv), fingerprintVersion(rv)
		if want != got {
			t.Fatalf("%s: version %d diverged after restore:\n%s", stage, seq, firstDiff(want, got))
		}
	}
}

// reopen closes w's durable log and rehydrates a fresh same-universe
// wrangler from it, replaying the script's world churn so the synthetic
// provider is in the same state the live session left it.
func reopen(t *testing.T, dir string, seed int64, nSources, shards int, script []Step) *core.Wrangler {
	t.Helper()
	w := NewWrangler(seed, nSources, shards)
	// The log restores the session, not the world: replay the churn calls
	// so the provider's synthetic universe matches the live one.
	for _, step := range script {
		if step.Churn > 0 {
			w.EvolveWorld(step.Churn)
		}
	}
	if !openDurable(t, w, dir) {
		t.Fatal("reopen did not restore a session from the log")
	}
	return w
}

// TestDurableWarmRestartFingerprint is the acceptance property: run a
// sharded session under a durable log, drive it through a
// seeded feedback/refresh script, close it, reopen from the directory —
// and the reopened session must fingerprint byte-identically to the live
// one, at the working data and at every retained version. Then both
// sessions assimilate the same value verdict: the restored one must run
// the fuse-only tail along the entity routing it rebuilt from its plan,
// and publish the same version — change set, changed shards and records
// included. Then both refresh the same single source; the restored one
// must reuse shards (warm partial tail) and stay byte-identical.
func TestDurableWarmRestartFingerprint(t *testing.T) {
	const (
		seed     = int64(11)
		nSources = 6
		shards   = 4
		steps    = 5
	)
	ctx := context.Background()
	dir := t.TempDir()

	live := NewWrangler(seed, nSources, shards)
	if openDurable(t, live, dir) {
		t.Fatal("fresh directory claimed to restore a session")
	}
	if _, err := live.Run(); err != nil {
		t.Fatalf("run: %v", err)
	}
	rng := rand.New(rand.NewSource(seed*7919 + 13))
	script := Script(rng, live, steps)
	for _, step := range script {
		if _, _, err := step.Apply(ctx, live); err != nil {
			t.Fatalf("%s: %v", step.Name, err)
		}
	}
	if err := live.Durable().Close(); err != nil {
		t.Fatalf("close durable log: %v", err)
	}

	restored := reopen(t, dir, seed, nSources, shards, script)
	if want, got := Fingerprint(live), Fingerprint(restored); want != got {
		t.Fatalf("restored session diverged from live:\n%s", firstDiff(want, got))
	}
	compareStores(t, "after reopen", live.Serve, restored.Serve)

	// First post-restart reaction: one value verdict on both sessions. It
	// re-fuses along the restored entity routing — a fuse-only tail, no
	// re-plan that would route the entities afresh.
	var verdict Step
	for _, l := range report.Build(live, "restart", nil).Lines {
		if len(l.Supporters) > 0 {
			verdict = Step{Name: "restart:value", Feedback: []feedback.Item{{
				Kind: feedback.ValueIncorrect, SourceID: l.Supporters[0], Entity: l.Entity,
				Attribute: l.Attribute, Worker: "expert", Cost: 0.5,
			}}}
			break
		}
	}
	if verdict.Feedback == nil {
		t.Fatal("the live report has no supported line to give a verdict on")
	}
	if _, _, err := verdict.Apply(ctx, live); err != nil {
		t.Fatalf("live verdict: %v", err)
	}
	vstats, _, err := verdict.Apply(ctx, restored)
	if err != nil {
		t.Fatalf("restored verdict: %v", err)
	}
	if vstats.Reclustered {
		t.Fatal("the post-restart value verdict reclustered: the restored memo did not engage")
	}
	if want, got := Fingerprint(live), Fingerprint(restored); want != got {
		t.Fatalf("post-restart verdict diverged from live:\n%s", firstDiff(want, got))
	}
	// The new version's timings are the two sessions' own; everything
	// else it published must agree.
	lv, rv := live.Serve.Latest(), restored.Serve.Latest()
	if lv.Seq() != rv.Seq() || changeKey(lv.Changes()) != changeKey(rv.Changes()) {
		t.Fatalf("post-restart verdict published version %d %s, live published %d %s",
			rv.Seq(), changeKey(rv.Changes()), lv.Seq(), changeKey(lv.Changes()))
	}

	// Second: refresh one source on both sessions. The restored memo must
	// engage — shards reused, not a cold tail — and the outputs must stay
	// identical.
	target := live.SelectedSources()[0]
	if _, err := live.RefreshSourcesContext(ctx, []string{target}); err != nil {
		t.Fatalf("live refresh: %v", err)
	}
	stats, err := restored.RefreshSourcesContext(ctx, []string{target})
	if err != nil {
		t.Fatalf("restored refresh: %v", err)
	}
	if stats.ShardsReused == 0 {
		t.Fatalf("first post-restart reaction reused no shards (resolved %d): the restored memo did not engage", stats.ShardsResolved)
	}
	if want, got := Fingerprint(live), Fingerprint(restored); want != got {
		t.Fatalf("post-restart reaction diverged from live:\n%s", firstDiff(want, got))
	}
}

// TestDurableSequentialRoundTrip pins the default session — shard count
// left at 0, so the tail runs at one shard and every version is a full
// change — through the log: it round-trips as exactly as a sharded one,
// and restores with its tail memo. The script's last step refreshes the
// target source after churn, so refreshing it again after the reopen
// finds every row unchanged and the restored one-shard tail is reused
// whole.
func TestDurableSequentialRoundTrip(t *testing.T) {
	const (
		seed     = int64(5)
		nSources = 5
		steps    = 3
	)
	ctx := context.Background()
	dir := t.TempDir()

	live := NewWrangler(seed, nSources, 0)
	openDurable(t, live, dir)
	if _, err := live.Run(); err != nil {
		t.Fatalf("run: %v", err)
	}
	rng := rand.New(rand.NewSource(seed*7919 + 13))
	script := Script(rng, live, steps)
	target := live.SelectedSources()[0]
	script = append(script, Step{Name: "last:refresh", Churn: 0.2, Refresh: []string{target}})
	for _, step := range script {
		if _, _, err := step.Apply(ctx, live); err != nil {
			t.Fatalf("%s: %v", step.Name, err)
		}
	}
	if !live.Serve.Latest().Changes().Full {
		t.Fatal("a default session published a delta change set")
	}
	if err := live.Durable().Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	restored := reopen(t, dir, seed, nSources, 0, script)
	if want, got := Fingerprint(live), Fingerprint(restored); want != got {
		t.Fatalf("restored default session diverged:\n%s", firstDiff(want, got))
	}
	compareStores(t, "default reopen", live.Serve, restored.Serve)

	if _, err := live.RefreshSourcesContext(ctx, []string{target}); err != nil {
		t.Fatalf("live refresh: %v", err)
	}
	stats, err := restored.RefreshSourcesContext(ctx, []string{target})
	if err != nil {
		t.Fatalf("restored refresh: %v", err)
	}
	if stats.ShardsResolved != 0 || stats.ShardsReused != 1 {
		t.Fatalf("first post-restart refresh resolved %d and reused %d shards, want the restored one-shard memo reused",
			stats.ShardsResolved, stats.ShardsReused)
	}
	if want, got := Fingerprint(live), Fingerprint(restored); want != got {
		t.Fatalf("default post-restart reaction diverged:\n%s", firstDiff(want, got))
	}
}

// TestDurableErrCompactedConsistency pins the retention contract across a
// restart: a version pruned from the live retention window must answer
// At(seq) with serve.ErrCompacted both before the close and immediately
// after rehydration — the HTTP layer turns exactly this error into a 410.
func TestDurableErrCompactedConsistency(t *testing.T) {
	const (
		seed     = int64(23)
		nSources = 5
		shards   = 2
	)
	ctx := context.Background()
	dir := t.TempDir()

	live := NewWrangler(seed, nSources, shards)
	openDurable(t, live, dir)
	if _, err := live.Run(); err != nil {
		t.Fatalf("run: %v", err)
	}
	// Publish past the retention window (DefaultRetain versions).
	retain := live.Serve.Retain()
	rng := rand.New(rand.NewSource(seed))
	script := Script(rng, live, retain+2)
	for _, step := range script {
		if _, _, err := step.Apply(ctx, live); err != nil {
			t.Fatalf("%s: %v", step.Name, err)
		}
	}
	oldest := live.Serve.Versions()[0]
	if oldest < 2 {
		t.Fatalf("script did not push version 1 out of the retention window (oldest retained %d)", oldest)
	}
	if _, err := live.Serve.At(1); !errors.Is(err, serve.ErrCompacted) {
		t.Fatalf("live At(1) = %v, want ErrCompacted", err)
	}
	if err := live.Durable().Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	restored := reopen(t, dir, seed, nSources, shards, script)
	if _, err := restored.Serve.At(1); !errors.Is(err, serve.ErrCompacted) {
		t.Fatalf("restored At(1) = %v, want ErrCompacted", err)
	}
	if _, err := restored.Serve.At(oldest); err != nil {
		t.Fatalf("restored At(%d) (oldest retained) = %v, want ok", oldest, err)
	}
	compareStores(t, "post-compaction reopen", live.Serve, restored.Serve)
}

// TestDurableCheckpointAndStats drives an explicit checkpoint: the log
// compacts down to the retention window (shrinking or bounding the file),
// stats report the checkpoint seq, and a reopen afterwards still restores
// the exact session.
func TestDurableCheckpointAndStats(t *testing.T) {
	const (
		seed     = int64(31)
		nSources = 5
		shards   = 2
	)
	ctx := context.Background()
	dir := t.TempDir()

	live := NewWrangler(seed, nSources, shards)
	openDurable(t, live, dir)
	if _, err := live.Run(); err != nil {
		t.Fatalf("run: %v", err)
	}
	rng := rand.New(rand.NewSource(seed))
	script := Script(rng, live, 3)
	for _, step := range script {
		if _, _, err := step.Apply(ctx, live); err != nil {
			t.Fatalf("%s: %v", step.Name, err)
		}
	}
	if err := live.Checkpoint(); err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	st := live.Durable().Stats()
	latest := live.Serve.Latest().Seq()
	if st.LastCheckpointSeq != latest {
		t.Fatalf("checkpoint seq = %d, want latest published %d", st.LastCheckpointSeq, latest)
	}
	if st.RetainedVersions != len(live.Serve.Versions()) {
		t.Fatalf("stats retain %d versions, store retains %d", st.RetainedVersions, len(live.Serve.Versions()))
	}
	if st.Bytes <= 0 {
		t.Fatalf("stats report %d log bytes", st.Bytes)
	}
	if err := live.Durable().Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	restored := reopen(t, dir, seed, nSources, shards, script)
	if want, got := Fingerprint(live), Fingerprint(restored); want != got {
		t.Fatalf("post-checkpoint reopen diverged:\n%s", firstDiff(want, got))
	}
	compareStores(t, "post-checkpoint reopen", live.Serve, restored.Serve)
}

// TestDurableConfigMismatchRefused pins the compatibility gate: a log
// written by one configuration must refuse to attach to a session with a
// different shard count instead of restoring garbage.
func TestDurableConfigMismatchRefused(t *testing.T) {
	dir := t.TempDir()
	live := NewWrangler(3, 4, 2)
	openDurable(t, live, dir)
	if _, err := live.Run(); err != nil {
		t.Fatalf("run: %v", err)
	}
	if err := live.Durable().Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	other := NewWrangler(3, 4, 3) // different shard count
	d, err := core.OpenDurableLog(dir, core.FsyncOnCheckpoint)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer d.Close()
	if _, err := other.AttachDurableLog(d); err == nil {
		t.Fatal("attach accepted a log written under a different configuration")
	}
}
