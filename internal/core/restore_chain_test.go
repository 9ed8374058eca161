package core

import (
	"context"
	"fmt"
	"math"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"

	wctx "repro/internal/context"
	"repro/internal/feedback"
	"repro/internal/fusion"
	"repro/internal/ontology"
	"repro/internal/report"
	"repro/internal/sources"
	"repro/internal/wal"
)

// hollowUniverse is the synthetic universe with a switch: a source
// refreshed while empty is set comes back as a CSV with a header and no
// rows, and keeps coming back so — from List and Lookup too, so a full
// rerun sees what the refreshes saw — until it is refreshed with empty
// unset. Reactions refresh sources on several goroutines.
type hollowUniverse struct {
	*sources.Universe
	empty  bool
	mu     sync.Mutex
	hollow map[string]bool
}

func (u *hollowUniverse) Refresh(id string) *sources.Source {
	s := u.Universe.Refresh(id)
	u.mu.Lock()
	u.hollow[id] = u.empty
	u.mu.Unlock()
	return u.view(s)
}

func (u *hollowUniverse) Lookup(id string) *sources.Source { return u.view(u.Universe.Lookup(id)) }

func (u *hollowUniverse) List() []*sources.Source {
	out := slices.Clone(u.Universe.List())
	for i, s := range out {
		out[i] = u.view(s)
	}
	return out
}

func (u *hollowUniverse) view(s *sources.Source) *sources.Source {
	if s == nil {
		return s
	}
	u.mu.Lock()
	hollow := u.hollow[s.ID]
	u.mu.Unlock()
	if !hollow {
		return s
	}
	c := *s
	c.Kind, c.Records, c.Raw = sources.KindCSV, nil, "sku,name,brand,price\n"
	return &c
}

// TestRestoreThroughPatchChains runs a script — run, value feedback, a
// pair label, five refreshes of every source, every source refreshed to
// empty and back, value feedback, a checkpoint — at shards 0, 1 and 4
// over a durable log that retains three versions, closing and reopening
// the session after every step. The script crosses a full version the
// size rule writes in place of a patch, and compactions. After each
// reopen every retained version, loaded through the store the way
// View.At loads it, must be what the session served as that version
// (table, entities, report lines with supporters), and the restored
// working results must be the closed session's. The log holds no page
// record and only patch versions, full ones patching the empty version,
// after every step. Each step after the
// first is the first reaction after a reopen, and must leave the outputs
// a full rerun computes. The script runs over clean sources and over
// dirty ones, whose reports move supporters under kept keys and whose
// HTML sources' wrappers are repaired rather than re-induced — by the
// session and by the full rerun, which keeps what the session learned.
func TestRestoreThroughPatchChains(t *testing.T) {
	ctx := context.Background()
	for _, clean := range []bool{true, false} {
		for _, shards := range []int{0, 1, 4} {
			t.Run(fmt.Sprintf("clean=%v/shards%d", clean, shards), func(t *testing.T) {
				restoreThroughPatchChains(t, ctx, clean, shards)
			})
		}
	}
}

func restoreThroughPatchChains(t *testing.T, ctx context.Context, clean bool, shards int) {
	dir := t.TempDir()
	u := &hollowUniverse{Universe: buildUniverse(5, 6, clean), hollow: map[string]bool{}}
	newWrangler := func() *Wrangler {
		w := New(u, ProductConfig(), nil, wctx.NewDataContext().WithTaxonomy(ontology.ProductTaxonomy()))
		w.IntegrationShards = shards
		return w
	}
	var d *DurableLog
	open := func() *Wrangler {
		t.Helper()
		w := newWrangler()
		w.Serve = NewVersionStore(3)
		var err error
		if d, err = OpenDurableLog(dir, FsyncOnCheckpoint); err != nil {
			t.Fatal(err)
		}
		if _, err := w.AttachDurableLog(d); err != nil {
			t.Fatal(err)
		}
		return w
	}
	rerun := newWrangler()        // answers every step with a full rerun
	served := map[uint64]string{} // what the session served, by version
	var liveResults string
	w := open()
	sizeRuleFull, compacted := false, false

	steps := []struct {
		name string
		do   func() error
	}{
		{"run", func() error {
			for _, s := range []*Wrangler{w, rerun} {
				if _, err := s.Run(); err != nil {
					return err
				}
			}
			return nil
		}},
		{"value feedback", func() error {
			var items []feedback.Item
			rep := w.Serve.Latest().Data().Report
			lines := rep.Conflicted()
			if len(lines) == 0 {
				lines = rep.Lines
			}
			for _, l := range lines {
				if len(l.Supporters) > 0 && len(items) < 3 {
					items = append(items, feedback.Item{Kind: feedback.ValueIncorrect, SourceID: l.Supporters[0],
						Entity: l.Entity, Attribute: l.Attribute, Worker: "expert", Cost: 1})
				}
			}
			if len(items) == 0 {
				return fmt.Errorf("no report line to give value feedback on")
			}
			return react(ctx, items, w, rerun)
		}},
		{"pair label", func() error {
			it := feedback.Item{Kind: feedback.DuplicatePair, PairKey: feedback.PairKey(w.RowKey(3), w.RowKey(40)),
				Worker: "expert", Cost: 1}
			return react(ctx, []feedback.Item{it}, w, rerun)
		}},
	}
	for k := 0; k < 5; k++ {
		steps = append(steps, struct {
			name string
			do   func() error
		}{fmt.Sprintf("refresh %d", k+1), func() error {
			u.World.Evolve(1)
			return refresh(ctx, w.SelectedSources(), w, rerun)
		}})
	}
	steps = append(steps, []struct {
		name string
		do   func() error
	}{
		{"refresh to empty", func() error {
			u.empty = true
			defer func() { u.empty = false }()
			return refresh(ctx, w.SelectedSources(), w, rerun)
		}},
		{"refresh back", func() error {
			var ids []string
			u.mu.Lock()
			for id, hollow := range u.hollow {
				if hollow {
					ids = append(ids, id)
				}
			}
			u.mu.Unlock()
			sort.Strings(ids)
			return refresh(ctx, ids, w, rerun)
		}},
		{"value feedback again", func() error {
			l := w.Serve.Latest().Data().Report.Lines[0]
			return react(ctx, []feedback.Item{{Kind: feedback.ValueIncorrect, SourceID: l.Supporters[0],
				Entity: l.Entity, Attribute: l.Attribute, Worker: "expert", Cost: 1}}, w, rerun)
		}},
		{"checkpoint", func() error { return w.Checkpoint() }},
	}...)

	for i, step := range steps {
		chainBefore, lastSeq := d.chain, uint64(0)
		if v := w.Serve.Latest(); v != nil {
			lastSeq = v.Seq()
		}
		if err := step.do(); err != nil {
			t.Fatalf("%s: %v", step.name, err)
		}
		if v := w.Serve.Latest(); v.Seq() > lastSeq && len(w.rowEntities) > 0 && chainBefore > 0 && !d.versions[len(d.versions)-1].patch {
			sizeRuleFull = true
		}
		compacted = compacted || d.lastCheckpoint > 0
		if i > 0 && step.name != "checkpoint" {
			if got, want := workingOutputs(w), workingOutputs(rerun); got != want {
				t.Fatalf("%s, the first reaction after a reopen, differs from the reference:\n%s", step.name, firstLineDiff(want, got))
			}
		}
		for _, seq := range w.Serve.Versions() {
			if _, ok := served[seq]; !ok {
				v, err := w.Serve.At(seq)
				if err != nil {
					t.Fatalf("%s: live At(%d): %v", step.name, seq, err)
				}
				served[seq] = versionView(v.Data())
			}
		}
		w.resume()
		liveResults = resultsView(w.results)
		if err := d.Close(); err != nil {
			t.Fatal(err)
		}
		checkPatchLayout(t, filepath.Join(dir, logFileName))

		w = open()
		for _, seq := range w.Serve.Versions() {
			v, err := w.Serve.At(seq)
			if err != nil {
				t.Fatalf("after %s: restored At(%d): %v", step.name, seq, err)
			}
			if got := versionView(v.Data()); got != served[seq] {
				t.Fatalf("after %s: restored version %d differs from the one served:\n%s", step.name, seq, firstLineDiff(served[seq], got))
			}
		}
		if _, err := w.resume(); err != nil {
			t.Fatalf("after %s: resume: %v", step.name, err)
		}
		if got := resultsView(w.results); got != liveResults {
			t.Fatalf("after %s: restored working results differ from the closed session's:\n%s", step.name, firstLineDiff(liveResults, got))
		}
	}
	if !sizeRuleFull {
		t.Error("the script never wrote a full version where a patch could have extended a chain")
	}
	if !compacted {
		t.Error("the script never compacted the log")
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
}

// checkPatchLayout fails unless the log at path holds no page record and
// only patch versions (mode 2): the one layout this package writes.
func checkPatchLayout(t *testing.T, path string) {
	t.Helper()
	for _, rec := range readRecords(t, path) {
		switch rec.Kind {
		case wal.KindPage:
			t.Fatalf("the log holds a page record at offset 0x%x", rec.Offset)
		case wal.KindVersion:
			var lv loggedVersion
			if err := wal.Decode(rec.Payload, &lv, codeVersion); err != nil || lv.patch == nil {
				t.Fatalf("the version record at offset 0x%x is no patch (decode error %v)", rec.Offset, err)
			}
		}
	}
}

// react adds items to every session and reacts on each — on the last by
// a full rerun.
func react(ctx context.Context, items []feedback.Item, sessions ...*Wrangler) error {
	for _, s := range sessions {
		for _, it := range items {
			s.AddFeedback(it)
		}
	}
	for i, s := range sessions {
		var err error
		if i == len(sessions)-1 {
			_, err = s.FullRerun()
		} else {
			_, err = s.ReactToFeedbackContext(ctx)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// refresh refreshes ids on every session — the last by a full rerun.
func refresh(ctx context.Context, ids []string, sessions ...*Wrangler) error {
	for i, s := range sessions {
		var err error
		if i == len(sessions)-1 {
			_, err = s.FullRerun()
		} else {
			_, err = s.RefreshSourcesContext(ctx, ids)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// versionView renders what a reader of one version sees: its table, the
// entity of each row, and its report lines with supporters.
func versionView(pub Published) string {
	var b strings.Builder
	if pub.Table != nil {
		for i, r := range pub.Table.Rows() {
			fmt.Fprintf(&b, "row %d:", i)
			for _, v := range r {
				fmt.Fprintf(&b, " %s", v.Key())
			}
			b.WriteByte('\n')
		}
	}
	fmt.Fprintf(&b, "entities %q\n", pub.Entities)
	if pub.Report != nil {
		fmt.Fprintf(&b, "report %q\n", pub.Report.Title)
		writeLines(&b, pub.Report.Lines)
	}
	return b.String()
}

func writeLines(b *strings.Builder, lines []report.Line) {
	for _, l := range lines {
		fmt.Fprintf(b, "%s/%s = %q conf=%x conflict=%v sup=%q\n",
			l.Entity, l.Attribute, l.Value, math.Float64bits(l.Confidence), l.Conflict, l.Supporters)
	}
}

// resultsView renders fused results, floats by bit pattern.
func resultsView(rs []fusion.Result) string {
	var b strings.Builder
	for _, r := range rs {
		fmt.Fprintf(&b, "%s/%s = %s conf=%x support=%d conflict=%v\n",
			r.Entity, r.Attribute, r.Value.Key(), math.Float64bits(r.Confidence), r.Support, r.Conflict)
	}
	return b.String()
}

// workingOutputs renders the working outputs a full rerun recomputes:
// table, results, report with supporters, trust and clustering.
func workingOutputs(w *Wrangler) string {
	var b strings.Builder
	b.WriteString(versionView(Published{Table: w.Wrangled()}))
	b.WriteString(resultsView(w.Results()))
	writeLines(&b, report.Build(w, "", nil).Lines)
	trust := w.Trust()
	for _, src := range slices.Sorted(func(yield func(string) bool) {
		for s := range trust {
			if !yield(s) {
				return
			}
		}
	}) {
		fmt.Fprintf(&b, "trust %s = %x\n", src, math.Float64bits(trust[src]))
	}
	if c := w.Clusters(); c != nil {
		fmt.Fprintf(&b, "clusters %d %v\n", c.Num, c.Assign)
	}
	return b.String()
}

// firstLineDiff shows the first line two renderings differ on.
func firstLineDiff(want, got string) string {
	w, g := strings.Split(want, "\n"), strings.Split(got, "\n")
	for i := 0; i < len(w) && i < len(g); i++ {
		if w[i] != g[i] {
			return fmt.Sprintf("line %d:\n want %s\n  got %s", i+1, w[i], g[i])
		}
	}
	return fmt.Sprintf("%d lines, want %d", len(g), len(w))
}
