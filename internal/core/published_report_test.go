package core

import (
	"context"
	"reflect"
	"testing"

	wctx "repro/internal/context"
	"repro/internal/feedback"
	"repro/internal/fusion"
	"repro/internal/ontology"
	"repro/internal/report"
	"repro/internal/sources"
)

// emptyingUniverse is the synthetic universe with a switch: while empty
// is set, a refreshed source comes back as a CSV with a header and no
// rows.
type emptyingUniverse struct {
	*sources.Universe
	empty bool
}

func (u *emptyingUniverse) Refresh(id string) *sources.Source {
	s := u.Universe.Refresh(id)
	if u.empty && s != nil {
		c := *s
		c.Kind, c.Records, c.Raw = sources.KindCSV, nil, "sku,name,brand,price\n"
		return &c
	}
	return s
}

// scannedResults is the report oracle's result source: the wrangler's
// results, with supporters from the union scan.
type scannedResults struct {
	results    []fusion.Result
	supporters [][]string
}

func (s scannedResults) Results() []fusion.Result  { return s.results }
func (s scannedResults) Supporters(i int) []string { return s.supporters[i] }

// TestPublishedReportMatchesBuild pins the published report — built from
// the supporter lists prepared with the claim groups, and read back from
// the log after a reopen — to report.Build over the union scan, at every
// version of a script that runs, takes value and pair feedback, refreshes,
// refreshes every source to empty and back, reopens from the log and
// takes value feedback again.
func TestPublishedReportMatchesBuild(t *testing.T) {
	ctx := context.Background()
	for _, shards := range []int{0, 1, 4} {
		dir := t.TempDir()
		u := &emptyingUniverse{Universe: buildUniverse(5, 6, false)}
		var d *DurableLog
		open := func() *Wrangler {
			t.Helper()
			w := New(u, ProductConfig(), nil, wctx.NewDataContext().WithTaxonomy(ontology.ProductTaxonomy()))
			w.IntegrationShards = shards
			var err error
			if d, err = OpenDurableLog(dir, FsyncOnCheckpoint); err != nil {
				t.Fatal(err)
			}
			if _, err := w.AttachDurableLog(d); err != nil {
				t.Fatal(err)
			}
			return w
		}
		w := open()
		check := func(label string) *report.Report {
			t.Helper()
			v := w.Serve.Latest()
			got := v.Data().Report
			w.resume()
			want := report.Build(scannedResults{w.tail.results, scanSupporters(w)}, publishTitle(v.Origin()), nil)
			if !reflect.DeepEqual(got, want) {
				for i := range min(len(got.Lines), len(want.Lines)) {
					if !reflect.DeepEqual(got.Lines[i], want.Lines[i]) {
						t.Fatalf("shards=%d %s (version %d): line %d %+v, the oracle %+v", shards, label, v.Seq(), i, got.Lines[i], want.Lines[i])
					}
				}
				t.Fatalf("shards=%d %s (version %d): %d lines, the oracle %d", shards, label, v.Seq(), len(got.Lines), len(want.Lines))
			}
			return got
		}
		react := func(label string, items []feedback.Item) {
			t.Helper()
			for _, it := range items {
				w.AddFeedback(it)
			}
			if _, err := w.ReactToFeedbackContext(ctx); err != nil {
				t.Fatalf("shards=%d %s: %v", shards, label, err)
			}
			check(label)
		}
		valueFeedback := func(rep *report.Report) []feedback.Item {
			var items []feedback.Item
			for _, l := range rep.Conflicted() {
				if len(l.Supporters) > 0 && len(items) < 3 {
					items = append(items, feedback.Item{Kind: feedback.ValueIncorrect, SourceID: l.Supporters[0],
						Entity: l.Entity, Attribute: l.Attribute, Worker: "expert", Cost: 1})
				}
			}
			if len(items) == 0 {
				t.Fatalf("shards=%d: no conflicted line to give value feedback on", shards)
			}
			return items
		}
		refresh := func(label string, ids []string) *report.Report {
			t.Helper()
			if _, err := w.RefreshSourcesContext(ctx, ids); err != nil {
				t.Fatalf("shards=%d %s: %v", shards, label, err)
			}
			return check(label)
		}

		if _, err := w.Run(); err != nil {
			t.Fatal(err)
		}
		react("value feedback", valueFeedback(check("run")))
		var pairs []feedback.Item
		for a := 0; a+7 < w.Union().Len() && len(pairs) < 4; a += 37 {
			pairs = append(pairs, feedback.Item{Kind: feedback.DuplicatePair,
				PairKey: feedback.PairKey(w.RowKey(a), w.RowKey(a+7)), Worker: "expert", Cost: 1})
		}
		react("pair feedback", pairs)
		ids := w.SelectedSources()
		u.World.Evolve(0.2)
		refresh("refresh", ids[:2])
		u.empty = true
		if rep := refresh("refresh to empty", ids); len(rep.Lines) != 0 {
			t.Fatalf("shards=%d: %d report lines after every source emptied", shards, len(rep.Lines))
		}
		u.empty = false
		refresh("refresh back", ids)
		if err := d.Close(); err != nil {
			t.Fatal(err)
		}
		w = open()
		react("value feedback after reopen", valueFeedback(check("reopen")))
		if err := d.Close(); err != nil {
			t.Fatal(err)
		}
	}
}
