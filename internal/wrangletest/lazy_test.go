package wrangletest

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/feedback"
	"repro/internal/report"
)

// A restore decodes the newest version and leaves the working state to be
// rebuilt by whatever first needs it. These tests pin that boundary from
// the outside: whichever call comes first after a reopen — an accessor, a
// checkpoint, a run or a reaction — the session behaves as the live one
// it was restored from.

// pairLabels draws n expert pair labels over ref's union rows, along the
// current clustering or across it.
func pairLabels(rng *rand.Rand, ref *core.Wrangler, n int) []feedback.Item {
	rows := ref.Union().Len()
	var items []feedback.Item
	for len(items) < n {
		a, b := rng.Intn(rows), rng.Intn(rows)
		if a == b {
			continue
		}
		kind := feedback.NotDuplicatePair
		if ref.EntityOf(a) == ref.EntityOf(b) || rng.Intn(2) == 0 {
			kind = feedback.DuplicatePair
		}
		items = append(items, feedback.Item{
			Kind: kind, PairKey: feedback.PairKey(ref.RowKey(a), ref.RowKey(b)),
			Worker: "expert", Cost: 1,
		})
	}
	return items
}

// TestPendingPairLabelsAcrossRestart: pair labels no reaction has consumed
// yet — logged before the close, or added after the reopen but before the
// first reaction rebuilds the working state — must not be folded into the
// restored tail memo. If they were, the first reaction would find its
// constraints unchanged, reuse the stale clusters and diverge from live.
func TestPendingPairLabelsAcrossRestart(t *testing.T) {
	const nSources = 5
	ctx := context.Background()
	for _, shards := range []int{0, 1, 4} {
		for _, seed := range []int64{1, 2, 3} {
			for _, afterReopen := range []bool{false, true} {
				name := fmt.Sprintf("shards=%d/seed=%d/afterReopen=%v", shards, seed, afterReopen)
				t.Run(name, func(t *testing.T) {
					dir := t.TempDir()
					live := NewWrangler(seed, nSources, shards)
					openDurable(t, live, dir)
					if _, err := live.Run(); err != nil {
						t.Fatalf("run: %v", err)
					}
					labels := pairLabels(rand.New(rand.NewSource(seed)), live, 12)
					if !afterReopen {
						for _, it := range labels {
							live.AddFeedback(it)
						}
					}
					if err := live.Durable().Close(); err != nil {
						t.Fatalf("close: %v", err)
					}
					restored := reopen(t, dir, seed, nSources, shards, nil)
					if afterReopen {
						for _, it := range labels {
							live.AddFeedback(it)
							restored.AddFeedback(it)
						}
					}
					if _, err := live.ReactToFeedbackContext(ctx); err != nil {
						t.Fatalf("live reaction: %v", err)
					}
					stats, err := restored.ReactToFeedbackContext(ctx)
					if err != nil {
						t.Fatalf("restored reaction: %v", err)
					}
					if want, got := Fingerprint(live), Fingerprint(restored); want != got {
						t.Fatalf("restored reaction to pending pair labels diverged from live (resolved %d, reused %d shards):\n%s",
							stats.ShardsResolved, stats.ShardsReused, firstDiff(want, got))
					}
				})
			}
		}
	}
}

// firstCallSession is a closed durable session driven through a short
// script, ready to be reopened.
type firstCallSession struct {
	dir    string
	live   *core.Wrangler
	script []Step
}

const (
	firstCallSeed    = int64(13)
	firstCallSources = 5
	firstCallShards  = 4
)

func newFirstCallSession(t *testing.T) firstCallSession {
	t.Helper()
	dir := t.TempDir()
	live := NewWrangler(firstCallSeed, firstCallSources, firstCallShards)
	openDurable(t, live, dir)
	if _, err := live.Run(); err != nil {
		t.Fatalf("run: %v", err)
	}
	script := Script(rand.New(rand.NewSource(firstCallSeed)), live, 3)
	for _, step := range script {
		if _, _, err := step.Apply(context.Background(), live); err != nil {
			t.Fatalf("%s: %v", step.Name, err)
		}
	}
	if err := live.Durable().Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	return firstCallSession{dir: dir, live: live, script: script}
}

func (s firstCallSession) reopen(t *testing.T) *core.Wrangler {
	t.Helper()
	return reopen(t, s.dir, firstCallSeed, firstCallSources, firstCallShards, s.script)
}

// TestRestoreFirstCallAccessors makes each exported accessor of working
// state the first call after a reopen: it must answer what the live
// session answers, and the session must fingerprint as live afterwards.
func TestRestoreFirstCallAccessors(t *testing.T) {
	s := newFirstCallSession(t)
	res := s.live.Results()[0]
	accessors := map[string]func(*core.Wrangler) string{
		"Wrangled": func(w *core.Wrangler) string {
			t := w.Wrangled()
			return fmt.Sprint(t.Len(), t.Row(0))
		},
		"Results":          func(w *core.Wrangler) string { return fmt.Sprint(len(w.Results()), w.Results()[0]) },
		"Trust":            func(w *core.Wrangler) string { return fmt.Sprint(w.Trust()) },
		"Union":            func(w *core.Wrangler) string { return fmt.Sprint(w.Union().Len()) },
		"UnionSourceOf":    func(w *core.Wrangler) string { return w.UnionSourceOf(1) },
		"UnionRowInSource": func(w *core.Wrangler) string { return fmt.Sprint(w.UnionRowInSource(1)) },
		"RowKey":           func(w *core.Wrangler) string { return w.RowKey(1) },
		"Resolver":         func(w *core.Wrangler) string { return fmt.Sprint(w.Resolver() != nil) },
		"Clusters":         func(w *core.Wrangler) string { return fmt.Sprint(w.Clusters().Num) },
		"EntityOf":         func(w *core.Wrangler) string { return w.EntityOf(1) },
		"ClaimSupporters":  func(w *core.Wrangler) string { return fmt.Sprint(w.ClaimSupporters(res.Entity, res.Attribute)) },
		"FeedbackSeq":      func(w *core.Wrangler) string { return fmt.Sprint(w.FeedbackSeq()) },
		"EvaluateProducts": func(w *core.Wrangler) string { return fmt.Sprintf("%+v", w.EvaluateProducts()) },
		"Report": func(w *core.Wrangler) string {
			return fmt.Sprint(report.Build(w, "first", nil).Lines[0])
		},
	}
	want := Fingerprint(s.live)
	for name, call := range accessors {
		t.Run(name, func(t *testing.T) {
			restored := s.reopen(t)
			if got, want := call(restored), call(s.live); got != want {
				t.Fatalf("first call after reopen answered %q, live answers %q", got, want)
			}
			if got := Fingerprint(restored); got != want {
				t.Fatalf("restored session diverged from live:\n%s", firstDiff(want, got))
			}
		})
	}
}

// TestRestoreFirstCallCheckpoint makes a checkpoint the first call after
// a reopen: it compacts without the working state, which must still
// rebuild as live's, and the compacted log must reopen to live's session
// and retained versions.
func TestRestoreFirstCallCheckpoint(t *testing.T) {
	s := newFirstCallSession(t)
	restored := s.reopen(t)
	if err := restored.Checkpoint(); err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	want := Fingerprint(s.live)
	if got := Fingerprint(restored); got != want {
		t.Fatalf("restored session diverged after a first-call checkpoint:\n%s", firstDiff(want, got))
	}
	if err := restored.Durable().Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	again := s.reopen(t)
	if got := Fingerprint(again); got != want {
		t.Fatalf("the compacted log reopened to another session:\n%s", firstDiff(want, got))
	}
	compareStores(t, "reopen after a first-call checkpoint", s.live.Serve, again.Serve)
}

// TestRestoreFirstCallReactions makes each kind of run or reaction the
// first call after a reopen: a full rerun, a run, a refresh and a value-
// feedback reaction. Each must leave the restored session where the same
// call leaves the live one.
func TestRestoreFirstCallReactions(t *testing.T) {
	ctx := context.Background()
	calls := map[string]func(w, live *core.Wrangler) error{
		"FullRerun": func(w, _ *core.Wrangler) error {
			_, err := w.FullRerun()
			return err
		},
		"Run": func(w, _ *core.Wrangler) error {
			_, err := w.RunContext(ctx)
			return err
		},
		"Refresh": func(w, live *core.Wrangler) error {
			w.EvolveWorld(0.2)
			_, err := w.RefreshSourcesContext(ctx, live.SelectedSources()[:1])
			return err
		},
		"ValueFeedback": func(w, live *core.Wrangler) error {
			line := report.Build(live, "first", []string{"price"}).Lines[0]
			src := live.SelectedSources()[0]
			if len(line.Supporters) > 0 {
				src = line.Supporters[0]
			}
			w.AddFeedback(feedback.Item{
				Kind: feedback.ValueIncorrect, SourceID: src, Entity: line.Entity, Attribute: line.Attribute,
				Worker: "expert", Cost: 0.5,
			})
			_, err := w.ReactToFeedbackContext(ctx)
			return err
		},
	}
	for name, call := range calls {
		t.Run(name, func(t *testing.T) {
			s := newFirstCallSession(t)
			restored := s.reopen(t)
			if err := call(restored, s.live); err != nil {
				t.Fatalf("restored: %v", err)
			}
			if err := call(s.live, s.live); err != nil {
				t.Fatalf("live: %v", err)
			}
			if want, got := Fingerprint(s.live), Fingerprint(restored); want != got {
				t.Fatalf("first-call %s after reopen diverged from live:\n%s", name, firstDiff(want, got))
			}
		})
	}
}
