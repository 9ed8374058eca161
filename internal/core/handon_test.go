package core

import (
	"context"
	"fmt"
	"math"
	"slices"
	"testing"

	wctx "repro/internal/context"
	"repro/internal/feedback"
	"repro/internal/fusion"
	"repro/internal/ontology"
	"repro/internal/report"
	"repro/internal/sources"
)

// TestFuseOnlyHandsOnResults pins the fuse-only hand-on to the full paths
// it replaces, at shards 0, 1 and 4, under TruthFinder, under
// FreshnessWeighted, and under TruthFinder with two sources' trust pinned
// at trust's edges: just over and just under MaxFloat64 / (2 · the
// largest group), where TrustFree flips, and at 0.75 · MaxFloat64, where a
// group's vote total overflows. The script takes value feedback, refreshes
// two sources, takes value feedback, closes and reopens the durable log and
// takes value feedback again. After every fuse-only reaction:
//
//   - the working results equal a full FuseInto of every group under the
//     tail's options, bit for bit;
//   - the rows equal materialize of those results, and a row is a fresh
//     record exactly for the entities one of whose values moved;
//   - the published report, and the delta's results and supporters
//     lists, equal the walk's over the same two publications;
//   - results were handed on exactly where the last tail fused
//     trust-free, and so does this one, but for the first reaction after
//     the reopen, and publish then patched the report.
func TestFuseOnlyHandsOnResults(t *testing.T) {
	ctx := context.Background()
	for _, variant := range []string{"truthfinder", "freshness", "pinned"} {
		for _, shards := range []int{0, 1, 4} {
			t.Run(fmt.Sprintf("%s/shards%d", variant, shards), func(t *testing.T) {
				dir := t.TempDir()
				u := buildUniverse(7, 6, false)
				var d *DurableLog
				open := func() *Wrangler {
					t.Helper()
					w := New(u, ProductConfig(), nil, wctx.NewDataContext().WithTaxonomy(ontology.ProductTaxonomy()))
					w.IntegrationShards = shards
					if variant == "freshness" {
						w.UserCtx.Weights[wctx.Timeliness] = 0.5
					}
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
				if _, err := w.Run(); err != nil {
					t.Fatal(err)
				}
				if want := fusion.FreshnessWeighted; (variant == "freshness") != (w.fusionOptions().Policy == want) {
					t.Fatalf("session fuses under %s", w.fusionOptions().Policy)
				}
				// Per value step of the pinned variant: the factor of the
				// bound the two pins take, none at 0, 0.75·MaxFloat64 below 0.
				edges := []float64{0, 1.001, 0.999, -1, 0.999, 0.999, 1.001, 0.999, 0.999}
				var tally handOnTally
				step := 0
				free := w.tail.groups.TrustFree(tailOptions(w)) // whether the last tail fused trust-free
				value := func() {
					t.Helper()
					label := fmt.Sprintf("value step %d", step)
					edge := 0.0
					if variant == "pinned" {
						edge = edges[step%len(edges)]
						pinEdge(w, edge)
					}
					step++
					lines := w.Serve.Latest().Data().Report.Conflicted()
					if len(lines) == 0 {
						t.Fatalf("%s: no conflicted line to give value feedback on", label)
					}
					l := lines[(37*step)%len(lines)]
					src := w.SelectedSources()[step%len(w.SelectedSources())]
					if len(l.Supporters) > 0 {
						src = l.Supporters[0]
					}
					if _, err := w.resume(); err != nil {
						t.Fatal(err)
					}
					prev := w.lastPub
					w.AddFeedback(feedback.Item{Kind: feedback.ValueIncorrect, SourceID: src,
						Entity: l.Entity, Attribute: l.Attribute, Worker: "expert", Cost: 1})
					stats, err := w.ReactToFeedbackContext(ctx)
					if err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					if stats.Reclustered {
						t.Fatalf("%s: value feedback reclustered", label)
					}
					// The last tail fused trust-free, and this one does too;
					// only then can results be handed on.
					wasFree := free
					free = w.tail.groups.TrustFree(tailOptions(w))
					if edge != 0 && free != (edge > 0 && edge < 1) {
						t.Fatalf("%s: trust-free = %v at %v of the bound", label, free, edge)
					}
					tally.check(t, label, w, prev, wasFree && free)
				}

				for range 3 {
					value()
				}
				u.World.Evolve(0.2)
				if _, err := w.RefreshSourcesContext(ctx, w.SelectedSources()[:2]); err != nil {
					t.Fatal(err)
				}
				free = w.tail.groups.TrustFree(tailOptions(w))
				for range 3 {
					value()
				}
				if err := d.Close(); err != nil {
					t.Fatal(err)
				}
				w = open()
				free = false // a restore adopts its results; it fuses nothing
				for range 3 {
					value()
				}
				if err := d.Close(); err != nil {
					t.Fatal(err)
				}
				if variant == "freshness" {
					if tally.handed != 0 {
						t.Fatalf("FreshnessWeighted handed results on in %d reactions", tally.handed)
					}
				} else if tally.handed == 0 || variant == "truthfinder" && (tally.rebuilt == 0 || tally.patched == 0) {
					t.Fatalf("the script does not reach the hand-on: %+v", tally)
				}
			})
		}
	}
}

// pinEdge pins the trust of the session's first two selected sources at
// factor times the bound TrustFree holds under, MaxFloat64 / (2 · the
// largest group's claim count) — an entity's rows, as every row claims
// every attribute — or, for a negative factor, at 0.75 · MaxFloat64; a
// zero factor pins nothing.
func pinEdge(w *Wrangler, factor float64) {
	w.pins = nil
	if factor == 0 {
		return
	}
	largest := 0
	for _, rows := range w.tail.entities.rows {
		largest = max(largest, len(rows))
	}
	t := factor * math.MaxFloat64 / float64(2*largest)
	if factor < 0 {
		t = 0.75 * math.MaxFloat64
	}
	w.pins = map[string]float64{}
	for _, src := range w.SelectedSources()[:2] {
		w.pins[src] = t
	}
}

// tailOptions are the options the last tail fused under: the session's,
// with the trust it estimated.
func tailOptions(w *Wrangler) fusion.Options {
	opts := w.fusionOptions()
	opts.Trust = w.tail.trust
	return opts
}

// handOnTally counts, over a script, the reactions that handed results
// on, and among them the records they rebuilt and the report lines whose
// supporters they patched, so a script that never reaches the hand-on's
// branches fails. Under the pinned sources' huge trust no value moves.
type handOnTally struct{ handed, rebuilt, patched int }

// check compares the reaction that followed prev, the publication before
// it, against the full paths, as TestFuseOnlyHandsOnResults states.
func (tally *handOnTally) check(t *testing.T, label string, w *Wrangler, prev *publication, wantHand bool) {
	t.Helper()
	cur := w.lastPub
	full := make([]fusion.Result, w.tail.groups.Len())
	w.tail.groups.FuseInto(full, nil, nil, tailOptions(w), 0, 1)
	if len(full) != len(w.tail.results) || len(prev.results) != len(w.tail.results) {
		t.Fatalf("%s: %d results, a full fuse %d, the last publication %d", label, len(w.tail.results), len(full), len(prev.results))
	}
	for i := range full {
		if a, b := &w.tail.results[i], &full[i]; a.Entity != b.Entity || a.Attribute != b.Attribute || !a.Same(b) {
			t.Fatalf("%s: result %d %+v, a full fuse %+v", label, i, *a, *b)
		}
	}

	entities, rows := materialize(w.tail.results, w.Config.Target)
	if !slices.Equal(entities, w.tail.rowEntities) || !slices.Equal(entities, prev.entities) {
		t.Fatalf("%s: entities moved on a fuse-only reaction", label)
	}
	moved := map[string]bool{}
	for i := range w.tail.results {
		if r, p := &w.tail.results[i], &prev.results[i]; r.Entity != p.Entity || r.Attribute != p.Attribute {
			t.Fatalf("%s: result %d is %s/%s, the last publication's %s/%s", label, i, r.Entity, r.Attribute, p.Entity, p.Attribute)
		} else if !r.Value.Same(p.Value) {
			moved[r.Entity] = true
		}
	}
	for e, row := range w.tail.wrangled.Rows() {
		if !row.Same(rows[e]) {
			t.Fatalf("%s: entity %s's row %v, materialize %v", label, entities[e], row, rows[e])
		}
		if fresh := &row[0] != &prev.rows[e][0]; fresh != moved[entities[e]] {
			t.Fatalf("%s: entity %s's record fresh = %v, a value moved = %v", label, entities[e], fresh, moved[entities[e]])
		}
	}

	var ran, walk delta
	got := diffReport(prev, cur, &ran, cur.report.Title, w.tail.handed, w.Supporters)
	want := diffReport(prev, cur, &walk, cur.report.Title, handOff{}, w.Supporters)
	for _, r := range []*report.Report{cur.report, got} {
		if r.Title != want.Title || len(r.Lines) != len(want.Lines) {
			t.Fatalf("%s: report %q of %d lines, the walk's %q of %d", label, r.Title, len(r.Lines), want.Title, len(want.Lines))
		}
		for i := range r.Lines {
			if a, b := &r.Lines[i], &want.Lines[i]; a.Entity != b.Entity || a.Attribute != b.Attribute || a.Value != b.Value ||
				math.Float64bits(a.Confidence) != math.Float64bits(b.Confidence) || a.Conflict != b.Conflict || !sameSlice(a.Supporters, b.Supporters) {
				t.Fatalf("%s: report line %d %+v, the walk's %+v", label, i, *a, *b)
			}
		}
	}
	if !slices.Equal(ran.results, walk.results) || !slices.Equal(ran.supporters, walk.supporters) ||
		!slices.Equal(ran.goneResults, walk.goneResults) || (ran.supporters == nil) != (walk.supporters == nil) ||
		(ran.results == nil) != (walk.results == nil) {
		t.Fatalf("%s: delta results %v, supporters %v, gone %v; the walk's %v, %v, %v", label,
			ran.results, ran.supporters, ran.goneResults, walk.results, walk.supporters, walk.goneResults)
	}
	handed := w.tail.handed.from != nil
	if handed != wantHand {
		t.Fatalf("%s: results handed on = %v, want %v", label, handed, wantHand)
	}
	var patched delta
	if handed && (&w.tail.handed.from[0] != &prev.results[0] ||
		patchReport(prev, cur.results, &patched, cur.report.Title, w.tail.handed, w.Supporters) == nil) {
		t.Fatalf("%s: results handed on, but publish did not patch the report", label)
	}
	if handed {
		tally.handed++
		tally.rebuilt += len(moved)
		tally.patched += len(ran.supporters)
	}
}

// TestRefreshFuseHandsOnResults pins the full-scope hand-on to the full
// paths it replaces, at shards 0, 1 and 4, under TruthFinder, under
// FreshnessWeighted, and under TruthFinder with two sources' trust pinned
// either side of the bound TrustFree flips at (pinEdge). The script
// refreshes; refreshes while one source drops records and another lists
// records it held back, so entities come and go; refreshes every source
// empty and back; takes value feedback; closes and reopens the durable log
// and refreshes. After every reaction (checkReaction):
//
//   - the working results equal a full FuseInto of every group under the
//     tail's options, bit for bit;
//   - the rows equal materialize of those results;
//   - the published report, and the delta's results, supporters and gone
//     results, equal the walk's (diffReport with no hand-on) over the same
//     two publications, supporter slices compared by identity;
//   - results were handed on exactly where the last tail fused trust-free
//     from the groups this one started from, and this one fused
//     trust-free too.
//
// At the script's end the installed tail state equals a FullRerun's
// (tailState.check).
func TestRefreshFuseHandsOnResults(t *testing.T) {
	ctx := context.Background()
	for _, variant := range []string{"truthfinder", "freshness", "pinned"} {
		for _, shards := range []int{0, 1, 4} {
			t.Run(fmt.Sprintf("%s/shards%d", variant, shards), func(t *testing.T) {
				dir := t.TempDir()
				// No JSON source: one with no record has no columns to match,
				// and a source that fails keeps its rows, so the union could
				// not go empty.
				world := sources.NewWorld(11, 200, 0)
				for range 30 {
					world.Evolve(0.15)
				}
				cfg := sources.DefaultConfig(11, 6)
				cfg.JSONShare = 0
				u := sources.Generate(world, cfg)
				// The second source holds its last ten records back until the
				// refresh that makes entities come and go.
				held := u.Sources[1].Records
				u.Sources[1].Records = held[:len(held)-10]
				var d *DurableLog
				open := func() *Wrangler {
					t.Helper()
					w := New(u, ProductConfig(), nil, wctx.NewDataContext().WithTaxonomy(ontology.ProductTaxonomy()))
					w.IntegrationShards = shards
					if variant == "freshness" {
						w.UserCtx.Weights[wctx.Timeliness] = 0.5
					}
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
				if _, err := w.Run(); err != nil {
					t.Fatal(err)
				}
				var tally refreshTally
				free := w.tail.groups.TrustFree(tailOptions(w)) // whether the last tail fused trust-free
				step := 0
				react := func(label string, reaction func() error) {
					t.Helper()
					label = fmt.Sprintf("step %d (%s)", step, label)
					if variant == "pinned" {
						pinEdge(w, []float64{1.001, 0.999, 0.999, 0.999, -1, 0.999}[step%6])
					}
					step++
					if _, err := w.resume(); err != nil {
						t.Fatal(err)
					}
					prev := w.lastPub
					if err := reaction(); err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					wasFree := free
					free = w.tail.groups != nil && w.tail.groups.TrustFree(tailOptions(w))
					tally.check(t, label, w, prev, wasFree && free)
				}
				refresh := func(label string, ids ...string) {
					t.Helper()
					react(label, func() error {
						if len(ids) == 0 {
							ids = w.SelectedSources()[:2]
						}
						u.World.Evolve(0.2)
						_, err := w.RefreshSourcesContext(ctx, ids)
						return err
					})
				}
				value := func() {
					t.Helper()
					react("value feedback", func() error {
						lines := w.Serve.Latest().Data().Report.Conflicted()
						if len(lines) == 0 {
							return fmt.Errorf("no conflicted line to give value feedback on")
						}
						l := lines[(37*step)%len(lines)]
						src := w.SelectedSources()[step%len(w.SelectedSources())]
						if len(l.Supporters) > 0 {
							src = l.Supporters[0]
						}
						w.AddFeedback(feedback.Item{Kind: feedback.ValueIncorrect, SourceID: src,
							Entity: l.Entity, Attribute: l.Attribute, Worker: "expert", Cost: 1})
						_, err := w.ReactToFeedbackContext(ctx)
						return err
					})
				}

				for range 3 {
					refresh("refresh")
				}
				// The world stands still: re-snapshotted at the clock of the
				// last refresh, a source re-emits the records it kept as they
				// were, so only the entities of the records it dropped or
				// listed again move, between entities kept whole.
				dropped := u.Sources[0].Records
				u.Sources[0].Records, u.Sources[1].Records = dropped[:len(dropped)-10], held
				react("entities come and go", func() error {
					_, err := w.RefreshSourcesContext(ctx, []string{u.Sources[0].ID, u.Sources[1].ID})
					return err
				})
				u.Sources[0].Records = dropped
				refresh("refresh", u.Sources[0].ID)

				all := w.SelectedSources()
				saved := make([][]sources.EmittedRecord, len(u.Sources))
				for i, s := range u.Sources {
					saved[i], s.Records = s.Records, []sources.EmittedRecord{}
				}
				refresh("to empty", all...)
				if n := w.Union().Len(); n != 0 {
					t.Fatalf("the union holds %d rows after every source emptied", n)
				}
				for i, s := range u.Sources {
					s.Records = saved[i]
				}
				refresh("and back", all...)
				refresh("refresh")
				for range 3 {
					value()
				}
				refresh("refresh")
				if err := d.Close(); err != nil {
					t.Fatal(err)
				}
				w = open()
				free = false // a restore adopts its results; it fuses nothing
				for range 3 {
					refresh("refresh after the reopen")
				}
				checkAgainstRerun(t, "the script's end", w)
				if err := d.Close(); err != nil {
					t.Fatal(err)
				}
				t.Logf("%+v", tally)
				if variant == "freshness" {
					if tally.handed != 0 {
						t.Fatalf("FreshnessWeighted handed results on in %d reactions", tally.handed)
					}
				} else if tally.fullHanded == 0 || tally.fresh == 0 || tally.gone == 0 || variant == "truthfinder" && tally.moved == 0 {
					t.Fatalf("the script does not reach the full-scope hand-on's branches: %+v", tally)
				}
			})
		}
	}
}

// refreshTally counts, over a script, the reactions that handed results
// on — full-scope ones apart — and among full-scope ones the results they
// fused for new entities, the previous results gone with dropped ones,
// and the handed-on results that moved, so a script that never reaches
// one of the hand-on's branches fails.
type refreshTally struct{ handed, fullHanded, fresh, gone, moved int }

// check compares the reaction that followed prev, the publication before
// it, against the full paths, as TestRefreshFuseHandsOnResults states.
func (tally *refreshTally) check(t *testing.T, label string, w *Wrangler, prev *publication, wantHand bool) {
	t.Helper()
	cur := w.lastPub
	if w.tail.groups != nil {
		full := make([]fusion.Result, w.tail.groups.Len())
		w.tail.groups.FuseInto(full, nil, nil, tailOptions(w), 0, 1)
		if len(full) != len(w.tail.results) {
			t.Fatalf("%s: %d results, a full fuse %d", label, len(w.tail.results), len(full))
		}
		for i := range full {
			if a, b := &w.tail.results[i], &full[i]; a.Entity != b.Entity || a.Attribute != b.Attribute || !a.Same(b) {
				t.Fatalf("%s: result %d %+v, a full fuse %+v", label, i, *a, *b)
			}
		}
	} else if len(w.tail.results) != 0 {
		t.Fatalf("%s: %d results without claim groups", label, len(w.tail.results))
	}
	entities, rows := materialize(w.tail.results, w.Config.Target)
	if !slices.Equal(entities, w.tail.rowEntities) || len(rows) != w.tail.wrangled.Len() {
		t.Fatalf("%s: %d entities, materialize %d", label, len(w.tail.rowEntities), len(entities))
	}
	for e, row := range w.tail.wrangled.Rows() {
		if !row.Same(rows[e]) {
			t.Fatalf("%s: entity %s's row %v, materialize %v", label, entities[e], row, rows[e])
		}
	}

	var ran, walk delta
	got := diffReport(prev, cur, &ran, cur.report.Title, w.tail.handed, w.Supporters)
	want := diffReport(prev, cur, &walk, cur.report.Title, handOff{}, w.Supporters)
	if want == nil {
		want = report.Build(w, cur.report.Title, nil)
	}
	for _, r := range []*report.Report{cur.report, got} {
		if r == nil || r.Title != want.Title || len(r.Lines) != len(want.Lines) {
			t.Fatalf("%s: report %+v, the walk's %q of %d lines", label, r, want.Title, len(want.Lines))
		}
		for i := range r.Lines {
			if a, b := &r.Lines[i], &want.Lines[i]; a.Entity != b.Entity || a.Attribute != b.Attribute || a.Value != b.Value ||
				math.Float64bits(a.Confidence) != math.Float64bits(b.Confidence) || a.Conflict != b.Conflict || !sameSlice(a.Supporters, b.Supporters) {
				t.Fatalf("%s: report line %d %+v, the walk's %+v", label, i, *a, *b)
			}
		}
	}
	if !slices.Equal(ran.results, walk.results) || !slices.Equal(ran.supporters, walk.supporters) ||
		!slices.Equal(ran.goneResults, walk.goneResults) || (ran.supporters == nil) != (walk.supporters == nil) ||
		(ran.results == nil) != (walk.results == nil) || (ran.goneResults == nil) != (walk.goneResults == nil) {
		t.Fatalf("%s: delta results %v, supporters %v, gone %v; the walk's %v, %v, %v", label,
			ran.results, ran.supporters, ran.goneResults, walk.results, walk.supporters, walk.goneResults)
	}
	handed := w.tail.handed.from != nil
	if handed != wantHand {
		t.Fatalf("%s: results handed on = %v, want %v", label, handed, wantHand)
	}
	if !handed {
		return
	}
	if &w.tail.handed.from[0] != &prev.results[0] {
		t.Fatalf("%s: results handed on from a slab the last publication does not hold", label)
	}
	tally.handed++
	if len(w.tail.handed.spans) == 1 && w.tail.handed.spans[0].n == len(w.tail.results) && len(prev.results) == len(w.tail.results) {
		return // every entity kept: the fuse-only shape
	}
	tally.fullHanded++
	kept := 0
	for _, s := range w.tail.handed.spans {
		kept += s.n
	}
	tally.fresh += len(w.tail.results) - kept
	tally.gone += len(walk.goneResults)
	tally.moved += len(w.tail.handed.moved)
}
