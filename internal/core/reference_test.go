package core_test

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/er"
	"repro/internal/fusion"
	"repro/internal/wrangletest"
)

// TestTailMatchesReference holds the integration tail — the one engine
// DAG, at IntegrationShards 0, 1 and 4 — to a differently built
// reference after the run and after every step of a seeded script that
// covers every reaction kind: the session's clustering must equal one
// global er.ResolveConstrained over its union (a fresh resolver under the
// session's learned rule, with its pair constraints), and its results
// must equal one fusion.Fuse over its claims under its fusion options,
// field for field with floats bit-equal. The DAG's incremental machinery
// (re-plan, reused shards, warm trust, shared pages) has nothing to lean
// on in either reference.
func TestTailMatchesReference(t *testing.T) {
	const (
		seed     = int64(17)
		nSources = 5
		steps    = 12
	)
	for _, shards := range []int{0, 1, 4} {
		t.Run(fmt.Sprintf("shards%d", shards), func(t *testing.T) {
			w := wrangletest.NewWrangler(seed, nSources, shards)
			if _, err := w.Run(); err != nil {
				t.Fatalf("run: %v", err)
			}
			checkReference(t, w, "run")
			script := wrangletest.Script(rand.New(rand.NewSource(seed)), w, steps)
			kinds := map[string]bool{}
			for _, step := range script {
				kinds[step.Name[strings.Index(step.Name, ":")+1:]] = true
				if _, _, err := step.Apply(context.Background(), w); err != nil {
					t.Fatalf("%s: %v", step.Name, err)
				}
				checkReference(t, w, step.Name)
			}
			for _, k := range []string{"value", "pairs", "relevance", "wrapper", "refresh"} {
				if !kinds[k] {
					t.Errorf("the script never drove a %s step", k)
				}
			}
		})
	}
}

func checkReference(t *testing.T, w *core.Wrangler, stage string) {
	t.Helper()
	union := w.Union()
	if union == nil || union.Len() == 0 {
		if len(w.Results()) != 0 {
			t.Fatalf("%s: %d results over an empty union", stage, len(w.Results()))
		}
		return
	}

	rule := w.Resolver()
	ref := er.NewResolver(rule.KeyColumn, rule.NameColumn, rule.SecondaryColumn, rule.NumericColumn)
	ref.Weights = slices.Clone(rule.Weights)
	ref.Threshold = rule.Threshold
	ref.BlockGramSize, ref.MaxBlockSize = rule.BlockGramSize, rule.MaxBlockSize
	must, cannot := w.PairConstraints()
	want, _, err := ref.ResolveConstrained(union, must, cannot)
	if err != nil {
		t.Fatalf("%s: reference resolve: %v", stage, err)
	}
	got := w.Clusters()
	if got.Num != want.Num || !slices.Equal(got.Assign, want.Assign) {
		t.Fatalf("%s: clustering has %d clusters, the reference %d (assignments equal: %v)",
			stage, got.Num, want.Num, slices.Equal(got.Assign, want.Assign))
	}

	wantRes := fusion.Fuse(w.BuildClaims(), w.FusionOptions())
	gotRes := w.Results()
	if len(gotRes) != len(wantRes) {
		t.Fatalf("%s: %d results, the reference %d", stage, len(gotRes), len(wantRes))
	}
	for i, g := range gotRes {
		r := wantRes[i]
		if g.Entity != r.Entity || g.Attribute != r.Attribute || g.Value.Key() != r.Value.Key() ||
			math.Float64bits(g.Confidence) != math.Float64bits(r.Confidence) ||
			g.Support != r.Support || g.Conflict != r.Conflict {
			t.Fatalf("%s: result %d = %+v, the reference %+v", stage, i, g, r)
		}
	}
}
