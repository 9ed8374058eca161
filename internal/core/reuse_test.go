package core_test

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/feedback"
	"repro/internal/fusion"
	"repro/internal/obs"
	"repro/internal/wrangletest"
)

// TestFuseOnlyReusesGroups pins the fuse-only tail's reuse of the
// installed claim groups, at shards 0, 1 and 4, over value feedback ×3 →
// refresh → value feedback. After every step the installed groups must
// equal a fresh grouping of the session's claims, prepared state
// included; a fuse-only reaction must have taken them as they were (the
// very same groups, nothing prepared, no claim build timed); and the
// outputs must equal a FullRerun's.
func TestFuseOnlyReusesGroups(t *testing.T) {
	const seed, nSources = 23, 5
	for _, shards := range []int{0, 1, 4} {
		t.Run(fmt.Sprintf("shards%d", shards), func(t *testing.T) {
			w := wrangletest.NewWrangler(seed, nSources, shards)
			rerun := wrangletest.NewWrangler(seed, nSources, shards)
			for _, s := range []*core.Wrangler{w, rerun} {
				if _, err := s.Run(); err != nil {
					t.Fatal(err)
				}
			}
			steps := []struct {
				name     string
				refresh  bool
				fuseOnly bool // the reaction must take the installed groups as they are
			}{
				{name: "value 1", fuseOnly: true},
				{name: "value 2", fuseOnly: true},
				{name: "value 3", fuseOnly: true},
				{name: "refresh", refresh: true},
				{name: "value 4", fuseOnly: true},
			}
			for n, step := range steps {
				apply := func(s *core.Wrangler) (core.ReactStats, error) {
					s.EvolveWorld(0.2)
					return s.RefreshSource(w.SelectedSources()[0])
				}
				if !step.refresh {
					res := w.Results()[(37*n)%len(w.Results())]
					kind := feedback.ValueIncorrect
					if n%2 == 1 {
						kind = feedback.ValueCorrect
					}
					it := feedback.Item{Kind: kind, SourceID: w.SelectedSources()[n%len(w.SelectedSources())],
						Entity: res.Entity, Attribute: res.Attribute, Worker: "expert", Cost: 1}
					apply = func(s *core.Wrangler) (core.ReactStats, error) {
						s.AddFeedback(it)
						return s.ReactToFeedback()
					}
				}
				before := w.TailGroups()
				stats, err := apply(w)
				if err != nil {
					t.Fatalf("%s: %v", step.name, err)
				}
				after := w.TailGroups()
				if reused := after == before; reused != step.fuseOnly {
					t.Fatalf("%s: groups reused = %v, want %v", step.name, reused, step.fuseOnly)
				}
				if step.fuseOnly {
					if stats.TrustGroupsKept != after.Len() || stats.TrustGroupsPrepared != 0 {
						t.Errorf("%s: %d groups kept, %d prepared; want all %d kept", step.name,
							stats.TrustGroupsKept, stats.TrustGroupsPrepared, after.Len())
					}
					if d, ok := stats.Stages["trust.claims"]; !ok || d != 0 {
						t.Errorf("%s: trust.claims = %v (reported %v), want 0", step.name, d, ok)
					}
				}
				fresh := fusion.GroupClaims(w.BuildClaims())
				fusion.EstimateTrustWarmParallel(fresh, w.FusionOptions(), nil, 1)
				if !reflect.DeepEqual(after, fresh) {
					t.Fatalf("%s: the installed groups differ from a fresh grouping of the session's claims", step.name)
				}

				if _, err := apply(rerun); err != nil {
					t.Fatalf("%s: rerun session: %v", step.name, err)
				}
				if _, err := rerun.FullRerun(); err != nil {
					t.Fatalf("%s: full rerun: %v", step.name, err)
				}
				if got, want := outputs(w), outputs(rerun); got != want {
					t.Fatalf("%s: outputs differ from a full rerun", step.name)
				}
			}
		})
	}
}

// outputs is the part of a fingerprint a FullRerun shares with the
// incremental session: everything but the provenance log.
func outputs(w *core.Wrangler) string {
	fp := wrangletest.Fingerprint(w)
	return fp[:strings.Index(fp, "== provenance")]
}

// TestTrustLayoutCarried pins the trust fixpoint's layout to its claim
// groups, at shards 0, 1 and 4, over Run → value feedback ×2 → refresh →
// value feedback: the run and the refresh, which build new groups, lay
// out the fixpoint once each; a value-feedback reaction, which hands on
// the same groups, lays out nothing and re-votes the same contested
// groups. Every version's outputs equal a FullRerun's.
func TestTrustLayoutCarried(t *testing.T) {
	const seed, nSources = 29, 5
	for _, shards := range []int{0, 1, 4} {
		t.Run(fmt.Sprintf("shards%d", shards), func(t *testing.T) {
			w := wrangletest.NewWrangler(seed, nSources, shards)
			rerun := wrangletest.NewWrangler(seed, nSources, shards)
			reg := obs.NewRegistry()
			w.SetMetrics(reg)
			builds := reg.Counter("wrangle_trust_layout_builds_total")
			contested := reg.Gauge("wrangle_trust_contested_groups")
			for _, s := range []*core.Wrangler{w, rerun} {
				if _, err := s.Run(); err != nil {
					t.Fatal(err)
				}
			}
			if n := builds.Value(); n != 1 {
				t.Fatalf("run: %d layouts built, want 1", n)
			}
			lastContested := contested.Value()
			if lastContested <= 0 || lastContested >= float64(w.TailGroups().Len()) {
				t.Fatalf("run: %v of %d groups contested, want some but not all", lastContested, w.TailGroups().Len())
			}
			for n, refresh := range []bool{false, false, true, false} {
				apply := func(s *core.Wrangler) error {
					s.EvolveWorld(0.2)
					_, err := s.RefreshSource(w.SelectedSources()[0])
					return err
				}
				if !refresh {
					res := w.Results()[(41*n)%len(w.Results())]
					it := feedback.Item{Kind: feedback.ValueIncorrect, SourceID: w.SelectedSources()[n%len(w.SelectedSources())],
						Entity: res.Entity, Attribute: res.Attribute, Worker: "expert", Cost: 1}
					apply = func(s *core.Wrangler) error {
						s.AddFeedback(it)
						_, err := s.ReactToFeedback()
						return err
					}
				}
				before := builds.Value()
				if err := apply(w); err != nil {
					t.Fatalf("step %d: %v", n, err)
				}
				built := builds.Value() - before
				switch {
				case refresh && built != 1:
					t.Fatalf("step %d (refresh): %d layouts built, want 1", n, built)
				case !refresh && built != 0:
					t.Fatalf("step %d (value feedback): %d layouts built, want 0", n, built)
				case !refresh && contested.Value() != lastContested:
					t.Fatalf("step %d (value feedback): %v groups contested over the same groups, was %v", n, contested.Value(), lastContested)
				}
				lastContested = contested.Value()

				if err := apply(rerun); err != nil {
					t.Fatalf("step %d: rerun session: %v", n, err)
				}
				if _, err := rerun.FullRerun(); err != nil {
					t.Fatalf("step %d: full rerun: %v", n, err)
				}
				if got, want := outputs(w), outputs(rerun); got != want {
					t.Fatalf("step %d: outputs differ from a full rerun", n)
				}
			}
		})
	}
}

// TestFuseOnlyWithoutPagesRunsFullTail pins the other way a fuse-only
// reaction runs the full tail: a value-feedback reaction on a sharded
// session that lost a refresh's tail right after its plan stage. The lost
// tail installed nothing, so the reaction folds the refreshed source in
// with a full tail, partial against the installed state (it reuses
// shards); it publishes a delta against the last version that shares
// exactly the records that stayed Same, and lands where a default session
// whose refresh completed lands, and where a FullRerun does.
func TestFuseOnlyWithoutPagesRunsFullTail(t *testing.T) {
	drive := func(shards int) (*core.Wrangler, core.ReactStats) {
		t.Helper()
		w := core.NewShardedWrangler(11, 8, shards)
		if _, err := w.Run(); err != nil {
			t.Fatal(err)
		}
		before := w.Serve.Latest()
		w.EvolveWorld(0.2)
		ctx := context.Background()
		if shards > 0 {
			ctx = w.CancelAfterInstall(ctx, 3) // the dispatch after integrate:plan
		}
		if _, err := w.RefreshSourcesContext(ctx, w.SelectedSources()[:1]); (shards > 0) != errors.Is(err, context.Canceled) {
			t.Fatalf("shards=%d: refresh: %v", shards, err)
		}
		if shards > 0 {
			if w.Serve.Latest() != before {
				t.Fatalf("shards=%d: the lost tail published", shards)
			}
		} else {
			before = w.Serve.Latest()
		}
		res := w.Results()
		w.AddFeedback(feedback.Item{
			Kind: feedback.ValueIncorrect, SourceID: w.SelectedSources()[0],
			Entity: res[0].Entity, Attribute: res[0].Attribute, Worker: "expert", Cost: 1,
		})
		stats, err := w.ReactToFeedback()
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		if err := wrangletest.CheckSharing(before, w.Serve.Latest(), shards); err != nil {
			t.Errorf("shards=%d: %v", shards, err)
		}
		return w, stats
	}
	base, _ := drive(0)
	sharded, stats := drive(4)
	if stats.ShardsResolved == 0 || stats.ShardsReused == 0 {
		t.Fatalf("the reaction after the lost tail ran no partial full tail: %+v", stats)
	}
	if cs := sharded.Serve.Latest().Changes(); cs.Full {
		t.Errorf("the reaction published a full change, want a delta: %+v", cs)
	}
	if base.Wrangled().String() != sharded.Wrangled().String() {
		t.Error("sharded reaction diverged from the default session's")
	}
	for src, want := range base.Trust() {
		if got := sharded.Trust()[src]; got != want {
			t.Errorf("trust[%s] = %v, the default session says %v", src, got, want)
		}
	}
	got := outputs(sharded)
	if _, err := sharded.FullRerun(); err != nil {
		t.Fatal(err)
	}
	if got != outputs(sharded) {
		t.Error("the reaction after the lost tail differs from a full rerun")
	}
}
