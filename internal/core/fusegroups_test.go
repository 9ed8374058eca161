package core_test

import (
	"context"
	"fmt"
	"testing"

	wctx "repro/internal/context"
	"repro/internal/core"
	"repro/internal/feedback"
	"repro/internal/fusion"
	"repro/internal/obs"
	"repro/internal/sources"
	"repro/internal/wrangletest"
)

// TestFuseOnlyRevotesContestedGroups pins what a fuse-only reaction
// reports it voted, at shards 0 and 4. Under TruthFinder at ordinary
// trust it votes exactly the groups with more than one fuse bucket — the
// results that report a conflict — and fuses every other group without a
// vote. Under FreshnessWeighted, whose decay can move a one-bucket
// group's confidence, it votes every group with a non-null claim. Either
// way wrangle_fuse_groups{kind} splits the reaction's groups between
// "revoted" and "trust_free".
func TestFuseOnlyRevotesContestedGroups(t *testing.T) {
	const seed, nSources = 29, 5
	for _, policy := range []fusion.Policy{fusion.TruthFinder, fusion.FreshnessWeighted} {
		for _, shards := range []int{0, 4} {
			t.Run(fmt.Sprintf("%s/shards%d", policy, shards), func(t *testing.T) {
				w := wrangletest.NewWrangler(seed, nSources, shards)
				if policy == fusion.FreshnessWeighted {
					w.UserCtx.Weights[wctx.Timeliness] = 0.5
				}
				if got := w.FusionOptions().Policy; got != policy {
					t.Fatalf("session fuses under %s, want %s", got, policy)
				}
				reg := obs.NewRegistry()
				w.SetMetrics(reg)
				if _, err := w.Run(); err != nil {
					t.Fatal(err)
				}
				res := w.Results()[len(w.Results())/3]
				w.AddFeedback(feedback.Item{Kind: feedback.ValueIncorrect, SourceID: w.SelectedSources()[0],
					Entity: res.Entity, Attribute: res.Attribute, Worker: "expert", Cost: 1})
				stats, err := w.ReactToFeedback()
				if err != nil {
					t.Fatal(err)
				}
				if stats.Reclustered || stats.TrustGroupsPrepared != 0 {
					t.Fatalf("not a fuse-only reaction: %+v", stats)
				}
				contested, claimed := 0, 0
				for _, r := range w.Results() {
					if r.Conflict {
						contested++
					}
					if !r.Value.IsNull() {
						claimed++
					}
				}
				want := contested
				if policy == fusion.FreshnessWeighted {
					want = claimed
				}
				groups := w.TailGroups().Len()
				if stats.FuseRevoted != want || want == 0 || contested == groups {
					t.Fatalf("revoted %d of %d groups (%d contested, %d with a claim), want %d",
						stats.FuseRevoted, groups, contested, claimed, want)
				}
				revoted := reg.Gauge("wrangle_fuse_groups", "kind", "revoted").Value()
				free := reg.Gauge("wrangle_fuse_groups", "kind", "trust_free").Value()
				if revoted != float64(want) || revoted+free != float64(groups) {
					t.Fatalf("wrangle_fuse_groups: revoted %v, trust_free %v; want %d of %d", revoted, free, want, groups)
				}
			})
		}
	}
}

// TestTrustGaugesResetWhenNoFixpointRuns is the regression for stale trust
// and shard-reuse gauges: after a run that estimated trust over one
// component and a refresh that reused some shards, every source refreshes
// to empty. That refresh's tail runs no fixpoint, resolves and reuses no
// shard and fuses nothing, so its publication must read 0 on the trust,
// fuse and reuse gauges rather than keep the last tail's shape.
func TestTrustGaugesResetWhenNoFixpointRuns(t *testing.T) {
	a := &sources.Source{ID: "srcA", Kind: sources.KindCSV,
		Raw: "sku,name,brand,price\nAX-1,palma lampal,acme,10\nAX-2,palma mallap,acme,20\n"}
	b := &sources.Source{ID: "srcB", Kind: sources.KindCSV,
		Raw: "sku,name,brand,price\nAX-1,palma lampal,acme,11\nBR-2,brond bindor,umbra,40\n"}
	w := core.New(sources.NewStatic(a, b), core.ProductConfig(), nil, nil)
	w.IntegrationShards = 4
	reg := obs.NewRegistry()
	w.SetMetrics(reg)
	gauges := map[string]*obs.Gauge{
		"components":      reg.Gauge("wrangle_trust_components"),
		"contested":       reg.Gauge("wrangle_trust_contested_groups"),
		"fuse revoted":    reg.Gauge("wrangle_fuse_groups", "kind", "revoted"),
		"fuse trust-free": reg.Gauge("wrangle_fuse_groups", "kind", "trust_free"),
		"shard reuse":     reg.Gauge("wrangle_shard_reuse_ratio"),
	}
	if _, err := w.Run(); err != nil {
		t.Fatal(err)
	}
	if c, k := gauges["components"].Value(), gauges["contested"].Value(); c != 1 || k != 1 {
		t.Fatalf("run: %v components, %v contested groups; want 1 and 1", c, k)
	}
	a.Raw = "sku,name,brand,price\nAX-1,palma lampal,acme,10\nAX-2,palma mallap,acme,21\n"
	stats, err := w.RefreshSourcesContext(context.Background(), []string{"srcA"})
	if err != nil {
		t.Fatal(err)
	}
	if r := gauges["shard reuse"].Value(); stats.ShardsReused == 0 || r != float64(stats.ShardsReused)/float64(stats.ShardsResolved+stats.ShardsReused) {
		t.Fatalf("refresh: reuse ratio gauge %v after %d resolved and %d reused shards", r, stats.ShardsResolved, stats.ShardsReused)
	}
	a.Raw, b.Raw = "sku,name,brand,price\n", "sku,name,brand,price\n"
	before := w.Serve.Latest().Seq()
	if _, err := w.RefreshSourcesContext(context.Background(), []string{"srcA", "srcB"}); err != nil {
		t.Fatal(err)
	}
	if w.Union().Len() != 0 || w.Serve.Latest().Seq() == before {
		t.Fatalf("refresh: union of %d rows, version %d after %d; want an empty union, published", w.Union().Len(), w.Serve.Latest().Seq(), before)
	}
	for name, g := range gauges {
		if v := g.Value(); v != 0 {
			t.Errorf("after the emptying refresh: %s gauge %v, want 0", name, v)
		}
	}
}
