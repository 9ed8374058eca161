package core

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	wctx "repro/internal/context"
	"repro/internal/feedback"
	"repro/internal/ontology"
	"repro/internal/sources"
)

// TestRestoreIsWarmSharded pins that a restore rebuilds the working state
// as warm as the session that wrote the log left it. At shards 0, 1 and 4
// a durable session runs and refreshes three sources while a twin with no
// log makes the same reactions; the session is then closed and reopened,
// and the reopened session and the never-closed twin make the same
// refresh after the same churn. That first reaction after the restore
// must report the rebuild as its "restore" stage, carry as many entity
// names over as the twin's (some), keep and prepare exactly the claim
// groups the twin's keeps and prepares (some of each), and leave the
// twin's working outputs and published version. A value-feedback
// reaction after it, fuse-only, must then match the twin's too.
func TestRestoreIsWarmSharded(t *testing.T) {
	ctx := context.Background()
	for _, shards := range []int{0, 1, 4} {
		t.Run(fmt.Sprintf("shards%d", shards), func(t *testing.T) {
			u := buildUniverse(13, 6, false)
			newWrangler := func() *Wrangler {
				w := New(u, ProductConfig(), nil, wctx.NewDataContext().WithTaxonomy(ontology.ProductTaxonomy()))
				w.IntegrationShards = shards
				return w
			}
			dir := t.TempDir()
			attach := func(w *Wrangler) *DurableLog {
				t.Helper()
				d, err := OpenDurableLog(dir, FsyncOnCheckpoint)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := w.AttachDurableLog(d); err != nil {
					t.Fatal(err)
				}
				return d
			}
			live, twin := newWrangler(), newWrangler()
			d := attach(live)
			for _, w := range []*Wrangler{live, twin} {
				if _, err := w.Run(); err != nil {
					t.Fatal(err)
				}
			}
			refresh := func(k int, sessions ...*Wrangler) []ReactStats {
				t.Helper()
				u.World.Evolve(0.2)
				ids := twin.SelectedSources()
				var stats []ReactStats
				for _, w := range sessions {
					st, err := w.RefreshSourcesContext(ctx, ids[k%len(ids):k%len(ids)+1])
					if err != nil {
						t.Fatal(err)
					}
					stats = append(stats, st)
				}
				return stats
			}
			for k := range 3 {
				refresh(k, live, twin)
			}
			if err := d.Close(); err != nil {
				t.Fatal(err)
			}

			w := newWrangler()
			d = attach(w)
			defer d.Close()
			stats := refresh(3, w, twin)
			got, want := stats[0], stats[1]
			if got.Stages["restore"] <= 0 {
				t.Fatalf("the first reaction after the restore reports no restore stage: %v", got.Stages)
			}
			if w.namesKept != twin.namesKept || w.namesKept == 0 {
				t.Fatalf("the first reaction after the restore carried %d names over, the twin's %d (want the same, and some)", w.namesKept, twin.namesKept)
			}
			if got.TrustGroupsKept != want.TrustGroupsKept || got.TrustGroupsPrepared != want.TrustGroupsPrepared ||
				want.TrustGroupsKept == 0 || want.TrustGroupsPrepared == 0 {
				t.Fatalf("the first reaction after the restore kept %d claim groups and prepared %d, the twin's %d and %d",
					got.TrustGroupsKept, got.TrustGroupsPrepared, want.TrustGroupsKept, want.TrustGroupsPrepared)
			}
			checkTwin := func(label string) {
				t.Helper()
				if g, w := workingOutputs(w), workingOutputs(twin); g != w {
					t.Fatalf("%s: working outputs differ from the twin's:\n%s", label, firstLineDiff(w, g))
				}
				gv, tv := w.Serve.Latest(), twin.Serve.Latest()
				if gv.Seq() != tv.Seq() || fmt.Sprintf("%+v", gv.Changes()) != fmt.Sprintf("%+v", tv.Changes()) {
					t.Fatalf("%s: published version %d with changes %+v, the twin's %d with %+v", label, gv.Seq(), gv.Changes(), tv.Seq(), tv.Changes())
				}
				if g, w := versionView(gv.Data()), versionView(tv.Data()); g != w {
					t.Fatalf("%s: published version differs from the twin's:\n%s", label, firstLineDiff(w, g))
				}
			}
			checkTwin("first refresh")

			l := twin.Serve.Latest().Data().Report.Lines[0]
			it := feedback.Item{Kind: feedback.ValueIncorrect, SourceID: l.Supporters[0], Entity: l.Entity, Attribute: l.Attribute,
				Worker: "expert", Cost: 1}
			var fed []ReactStats
			for _, s := range []*Wrangler{w, twin} {
				s.AddFeedback(it)
				st, err := s.ReactToFeedbackContext(ctx)
				if err != nil {
					t.Fatal(err)
				}
				fed = append(fed, st)
			}
			if fed[0].TrustGroupsKept != fed[1].TrustGroupsKept || fed[0].TrustGroupsPrepared != 0 || fed[1].TrustGroupsPrepared != 0 {
				t.Fatalf("value feedback kept %d claim groups and prepared %d, the twin %d and %d",
					fed[0].TrustGroupsKept, fed[0].TrustGroupsPrepared, fed[1].TrustGroupsKept, fed[1].TrustGroupsPrepared)
			}
			checkTwin("value feedback")
		})
	}
}

// TestRestoreRenamesLegacyNames pins the restore of the checked-in fixture
// logs (the fixture script of fixture_test.go) against naming: the older
// logs, written before keyless clusters were named by content, restore
// serving "entity-<cluster>" names, and their first refresh renames every
// keyless entity in its one delta, carrying no name over; base4.wal,
// written with content names, restores them and its first refresh carries
// names over.
func TestRestoreRenamesLegacyNames(t *testing.T) {
	for _, tc := range []struct {
		name   string
		shards int
		legacy bool
	}{{"shards0", 0, true}, {"shards4", 4, true}, {"patch4", 4, true}, {"base4", 4, false}} {
		t.Run(tc.name, func(t *testing.T) {
			buf, err := os.ReadFile(filepath.Join("testdata", tc.name+".wal"))
			if err != nil {
				t.Fatal(err)
			}
			dir := t.TempDir()
			if err := os.WriteFile(filepath.Join(dir, logFileName), buf, 0o644); err != nil {
				t.Fatal(err)
			}
			// The fixture script's wrangler: seed 11, three sources, and the
			// world churned twice.
			world := sources.NewWorld(11, 120, 0)
			u := sources.Generate(world, sources.DefaultConfig(11, 3))
			w := New(u, ProductConfig(), nil, wctx.NewDataContext().WithTaxonomy(ontology.ProductTaxonomy()))
			w.IntegrationShards = tc.shards
			for _, churn := range []float64{0.25, 0.2} {
				w.EvolveWorld(churn)
			}
			d, err := OpenDurableLog(dir, FsyncOnCheckpoint)
			if err != nil {
				t.Fatal(err)
			}
			defer d.Close()
			if restored, err := w.AttachDurableLog(d); err != nil || !restored {
				t.Fatalf("attach: restored=%v err=%v", restored, err)
			}
			legacy := func() int {
				n := 0
				for _, e := range w.Serve.Latest().Data().Entities {
					if strings.HasPrefix(e, "entity-") {
						n++
					}
				}
				return n
			}
			if n := legacy(); (n > 0) != tc.legacy {
				t.Fatalf("the restored version serves %d legacy names", n)
			}
			if _, err := w.RefreshSourcesContext(context.Background(), w.SelectedSources()[:1]); err != nil {
				t.Fatal(err)
			}
			if n := legacy(); n > 0 {
				t.Fatalf("the first refresh after the restore left %d legacy names", n)
			}
			if carried := w.namesKept > 0; carried == tc.legacy {
				t.Fatalf("the first refresh after the restore carried %d names over", w.namesKept)
			}
		})
	}
}
