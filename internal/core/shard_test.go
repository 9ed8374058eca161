package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"reflect"
	"slices"
	"testing"

	"repro/internal/dataset"
	"repro/internal/feedback"
	"repro/internal/sources"
)

// deltaProvider is a controllable backend: fixed CSV sources whose
// payloads the test mutates between refreshes, so it can dictate exactly
// which blocking shard a reaction touches.
type deltaProvider struct {
	order []string
	srcs  map[string]*sources.Source
}

func (p *deltaProvider) List() []*sources.Source {
	out := make([]*sources.Source, len(p.order))
	for i, id := range p.order {
		out[i] = p.srcs[id]
	}
	return out
}
func (p *deltaProvider) Lookup(id string) *sources.Source  { return p.srcs[id] }
func (p *deltaProvider) Refresh(id string) *sources.Source { return p.srcs[id] }
func (p *deltaProvider) Clock() int                        { return 0 }

func csvSource(id, payload string) *sources.Source {
	return &sources.Source{ID: id, Kind: sources.KindCSV, Raw: payload}
}

// newDeltaWrangler builds a sharded wrangler over two sources whose rows
// form disjoint blocking components: srcA's names use only the letters
// {p,a,l,m}, srcB's only {b,r,o,n,d,i}, so no q-gram — boundary grams
// included — is ever shared, and a change to one source can only dirty
// the shard its own component hashes to.
func newDeltaWrangler(shards int) (*Wrangler, *deltaProvider) {
	p := &deltaProvider{
		order: []string{"srcA", "srcB"},
		srcs: map[string]*sources.Source{
			"srcA": csvSource("srcA",
				"sku,name,brand,price\nAX-1,palma lampal,acme,10\nAX-2,palma mallap,acme,20\n"),
			"srcB": csvSource("srcB",
				"sku,name,brand,price\nBR-1,brond dronib,umbra,30\nBR-2,brond bindor,umbra,40\n"),
		},
	}
	w := New(p, ProductConfig(), nil, nil)
	w.IntegrationShards = shards
	return w, p
}

// TestDeltaPublishSharesUntouchedPages is the delta-publication
// acceptance test: a refresh that leaves every fused row unchanged
// publishes a version sharing ALL its table records with the predecessor
// (pointer identity) and every page, and a refresh that changes one
// component's values publishes fresh records for that entity — listing
// it, and its page alone, as changed — while still sharing the untouched
// records. Four entities over four fuse parts put one entity on each
// page, in entity order; then refreshes that drop entities pin which page
// a change counts against once some parts are empty.
func TestDeltaPublishSharesUntouchedPages(t *testing.T) {
	ctx := context.Background()
	w, p := newDeltaWrangler(4)
	if _, err := w.Run(); err != nil {
		t.Fatal(err)
	}
	v1 := w.Serve.Latest()
	if v1 == nil || v1.Data().Table.Len() != 4 {
		t.Fatalf("run published %v", v1)
	}

	// 1. No-op refresh: identical payload, identical fused rows — the new
	// version must share every record with its predecessor.
	if _, err := w.RefreshSourcesContext(ctx, []string{"srcB"}); err != nil {
		t.Fatal(err)
	}
	v2 := w.Serve.Latest()
	if v2.Seq() != 2 {
		t.Fatalf("refresh did not publish: seq=%d", v2.Seq())
	}
	if shared := SharedRecords(v1.Data().Table, v2.Data().Table); shared != v2.Data().Table.Len() {
		t.Fatalf("no-op refresh shared %d/%d records, want all", shared, v2.Data().Table.Len())
	}
	if cs := v2.Changes(); cs.Full || cs.ChangedPages != 0 || cs.SharedPages != 4 || len(cs.ChangedRecords)+len(cs.RemovedRecords) != 0 {
		t.Fatalf("no-op refresh published %+v, want all four pages shared", cs)
	}

	// 2. A refresh that changes srcB's values: srcB's shard republishes
	// fresh records, srcA's untouched shard keeps sharing.
	p.srcs["srcB"] = csvSource("srcB",
		"sku,name,brand,price\nBR-1,brond dronib,umbra,33\nBR-2,brond bindor,umbra,40\n")
	if _, err := w.RefreshSourcesContext(ctx, []string{"srcB"}); err != nil {
		t.Fatal(err)
	}
	v3 := w.Serve.Latest()
	if cs := v3.Changes(); !slices.Equal(cs.ChangedShards, []int{2}) || cs.SharedPages != 3 || !slices.Equal(cs.ChangedRecords, []string{"BR-1"}) {
		t.Fatalf("changed-source refresh published %+v, want BR-1 changed on page 2 alone", cs)
	}
	tab2, tab3 := v2.Data().Table, v3.Data().Table
	shared := SharedRecords(tab2, tab3)
	if shared == 0 {
		t.Fatal("changed-source refresh shared nothing; untouched shards should share")
	}
	if shared == tab3.Len() {
		t.Fatal("changed-source refresh shared everything; the changed entity must republish")
	}
	// Per-entity: srcA's component rows are pointer-shared, the changed
	// srcB row is not, and its new value is served.
	kc := tab3.Schema().Index("sku")
	prev := map[string]int{}
	for i := 0; i < tab2.Len(); i++ {
		prev[tab2.Row(i)[kc].String()] = i
	}
	for i := 0; i < tab3.Len(); i++ {
		sku := tab3.Row(i)[kc].String()
		j, ok := prev[sku]
		if !ok {
			t.Fatalf("entity %s missing from previous version", sku)
		}
		sharedRow := &tab3.Row(i)[0] == &tab2.Row(j)[0]
		switch sku {
		case "AX-1", "AX-2":
			if !sharedRow {
				t.Errorf("untouched entity %s was republished instead of shared", sku)
			}
		case "BR-1":
			if sharedRow {
				t.Errorf("changed entity %s still shares its old record", sku)
			}
			if got := tab3.Row(i)[tab3.Schema().Index("price")].FloatVal(); got != 33 {
				t.Errorf("changed entity %s price = %v, want 33", sku, got)
			}
		}
	}
	// The predecessor version is frozen: its copy still serves the old
	// price even though the live data moved on.
	j := prev["BR-1"]
	if got := tab2.Row(j)[tab2.Schema().Index("price")].FloatVal(); got != 30 {
		t.Errorf("previous version mutated: BR-1 price = %v, want 30", got)
	}

	// 3–5. As the table shrinks below one entity per page, parts go empty:
	// row i of E is on the page p with p·E/4 ≤ i < (p+1)·E/4, and a
	// dropped entity is on the page of the first entity above it, or on
	// the last page when none is.
	const head = "sku,name,brand,price\n"
	for _, step := range []struct {
		name, src, payload string
		pages              []int
		changed, removed   []string
	}{
		// AX-2 led page 1. AX-1, BR-1, BR-2 are left on pages 1–3, and
		// BR-1, the first entity above AX-2, is on page 2.
		{"a refresh that drops the first entity of a range", "srcA", head + "AX-1,palma lampal,acme,10\n",
			[]int{2}, nil, []string{"AX-2"}},
		// AX-1 and BR-1 are left on pages 1 and 3; no entity is above BR-2.
		{"a refresh that drops the table's last entity", "srcB", head + "BR-1,brond dronib,umbra,33\n",
			[]int{3}, nil, []string{"BR-2"}},
		// Two entities over four parts: pages 0 and 2 are empty.
		{"a refresh with fewer entities than parts", "srcA", head + "AX-1,palma lampal,acme,12\n",
			[]int{1}, []string{"AX-1"}, nil},
	} {
		p.srcs[step.src] = csvSource(step.src, step.payload)
		if _, err := w.RefreshSourcesContext(ctx, []string{step.src}); err != nil {
			t.Fatal(err)
		}
		cs := w.Serve.Latest().Changes()
		if cs.Full || !slices.Equal(cs.ChangedShards, step.pages) || cs.ChangedPages+cs.SharedPages != 4 ||
			!slices.Equal(cs.ChangedRecords, step.changed) || !slices.Equal(cs.RemovedRecords, step.removed) {
			t.Errorf("%s published %+v, want pages %v changed, records %v changed and %v removed",
				step.name, cs, step.pages, step.changed, step.removed)
		}
	}
}

// TestSignFlipRepublishes pins Same as the publication diff's rule for
// "unchanged": a fused value that flips between 0 and -0 is Equal to its
// predecessor but prints differently, so the reacted session must serve
// the new sign, as a fresh run over the new data does, and list the
// entity as changed.
func TestSignFlipRepublishes(t *testing.T) {
	payload := func(price string) string {
		return "sku,name,brand,price\nBR-1,brond dronib,umbra,30\nBR-2,brond bindor,umbra," + price + "\n"
	}
	cells := func(tab *dataset.Table) []string {
		var out []string
		for _, r := range tab.Rows() {
			for _, v := range r {
				out = append(out, v.Key())
			}
		}
		return out
	}
	for _, shards := range []int{0, 1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			w, p := newDeltaWrangler(shards)
			p.srcs["srcB"] = csvSource("srcB", payload("0.0"))
			if _, err := w.Run(); err != nil {
				t.Fatal(err)
			}
			p.srcs["srcB"] = csvSource("srcB", payload("-0.0"))
			if _, err := w.RefreshSourcesContext(context.Background(), []string{"srcB"}); err != nil {
				t.Fatal(err)
			}
			fresh, fp := newDeltaWrangler(shards)
			fp.srcs["srcB"] = csvSource("srcB", payload("-0.0"))
			if _, err := fresh.Run(); err != nil {
				t.Fatal(err)
			}
			got, want := cells(w.Serve.Latest().Data().Table), cells(fresh.Serve.Latest().Data().Table)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("reacted table %v, a fresh run %v", got, want)
			}
			if !slices.Contains(want, dataset.Float(math.Copysign(0, -1)).Key()) {
				t.Fatalf("a fresh run serves no -0 (%v): the test exercises nothing", want)
			}
			if cs := w.Serve.Latest().Changes(); shards >= 1 && !slices.Contains(cs.ChangedRecords, "BR-2") {
				t.Errorf("change set %+v does not list BR-2", cs)
			}
		})
	}
}

// TestFuseOnlyReactionKeepsDelta pins the fuse-tail reaction path: a
// value-feedback reaction (trust moved, union and clustering did not)
// re-fuses per shard instead of re-running the whole tail, so the
// published version still shares every unchanged record with its
// predecessor and the delta chain survives the most common reaction.
func TestFuseOnlyReactionKeepsDelta(t *testing.T) {
	ctx := context.Background()
	w, _ := newDeltaWrangler(4)
	if _, err := w.Run(); err != nil {
		t.Fatal(err)
	}
	v1 := w.Serve.Latest()
	for i := 0; i < 5; i++ {
		w.AddFeedback(feedback.Item{
			Kind: feedback.ValueIncorrect, SourceID: "srcB",
			Entity: "BR-1", Attribute: "price", Worker: "expert", Cost: 0.5,
		})
	}
	stats, err := w.ReactToFeedbackContext(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !stats.Refused || stats.Reclustered {
		t.Fatalf("expected a fuse-only reaction, got %+v", stats)
	}
	v2 := w.Serve.Latest()
	if v2.Seq() != v1.Seq()+1 {
		t.Fatalf("reaction did not publish: %d after %d", v2.Seq(), v1.Seq())
	}
	// srcB's trust dropped in the new version…
	if tr := v2.Data().Trust["srcB"]; tr >= v1.Data().Trust["srcB"] {
		t.Errorf("feedback did not lower srcB trust: %v -> %v", v1.Data().Trust["srcB"], tr)
	}
	// …but no fused value changed (no conflicting claims here), so every
	// record is still shared with the predecessor.
	if shared := SharedRecords(v1.Data().Table, v2.Data().Table); shared != v2.Data().Table.Len() {
		t.Errorf("fuse-only reaction shared %d/%d records, want all", shared, v2.Data().Table.Len())
	}
	// A follow-up refresh still publishes a delta — the chain was not
	// broken by the fuse-only reaction.
	if _, err := w.RefreshSourcesContext(ctx, []string{"srcB"}); err != nil {
		t.Fatal(err)
	}
	v3 := w.Serve.Latest()
	if shared := SharedRecords(v2.Data().Table, v3.Data().Table); shared != v3.Data().Table.Len() {
		t.Errorf("post-reaction refresh shared %d/%d records, want all", shared, v3.Data().Table.Len())
	}
}

// TestFuseOnlyAfterTailLostAfterPlan: a sharded full tail cancelled right
// after integrate:plan has built the next union but not its clustering,
// entity ids or entity→shard routing. It installs nothing: the installed
// tail state is the very one from before it. A value-feedback reaction
// that follows must not re-fuse the installed union, which lacks the
// refreshed source: it runs the full tail, partial against the installed
// state (it reuses shards), and lands where an uncancelled default
// session does, and where a FullRerun does, whether the refreshed source
// shrank or grew.
func TestFuseOnlyAfterTailLostAfterPlan(t *testing.T) {
	payloads := map[string]string{
		"shrinks": "sku,name,brand,price\nAX-2,palma mallap,acme,20\n",
		"grows":   "sku,name,brand,price\nAX-1,palma lampal,acme,10\nAX-2,palma mallap,acme,20\nAX-3,palma plampa,acme,25\n",
	}
	for name, payload := range payloads {
		t.Run(name, func(t *testing.T) {
			drive := func(shards int) *Wrangler {
				t.Helper()
				w, p := newDeltaWrangler(shards)
				if _, err := w.Run(); err != nil {
					t.Fatal(err)
				}
				p.srcs["srcA"] = csvSource("srcA", payload)
				ctx, before := context.Background(), w.tail
				if shards > 0 {
					ctx = w.CancelAfterInstall(ctx, 3) // the dispatch after integrate:plan
				}
				_, err := w.RefreshSourcesContext(ctx, []string{"srcA"})
				if shards == 0 {
					if err != nil {
						t.Fatal(err)
					}
				} else if !errors.Is(err, context.Canceled) || w.tail != before || w.Serve.Latest().Seq() != 1 {
					t.Fatalf("the tail was meant to be lost after its plan stage, installing nothing: err=%v installed=%v seq=%d",
						err, w.tail != before, w.Serve.Latest().Seq())
				}
				w.AddFeedback(feedback.Item{
					Kind: feedback.ValueIncorrect, SourceID: "srcB",
					Entity: "BR-1", Attribute: "price", Worker: "expert", Cost: 0.5,
				})
				stats, err := w.ReactToFeedback()
				if err != nil {
					t.Fatalf("shards=%d: value feedback after the lost tail: %v", shards, err)
				}
				if shards > 0 && (stats.ShardsResolved == 0 || stats.ShardsReused == 0 || w.tail.plan == nil) {
					t.Fatalf("the reaction did not run the full tail, partial against the installed state: %+v", stats)
				}
				if w.FeedbackSeq() == 0 {
					t.Fatal("the feedback item is still pending")
				}
				return w
			}
			base, sharded := drive(0), drive(4)
			if want, got := base.Wrangled().String(), sharded.Wrangled().String(); want != got {
				t.Errorf("sharded session diverged from the default one:\n%s\nwant:\n%s", got, want)
			}
			for i := 0; i < base.Union().Len(); i++ {
				if want, got := base.EntityOf(i), sharded.EntityOf(i); want != got {
					t.Errorf("union row %d is entity %q, the default session says %q", i, got, want)
				}
			}
			for src, want := range base.Trust() {
				if got := sharded.Trust()[src]; got != want {
					t.Errorf("trust[%s] = %v, the default session says %v", src, got, want)
				}
			}
			checkAgainstRerun(t, "after the lost tail", sharded)
		})
	}
}

// TestShardedRunMatchesSequentialAcrossReactions is the core-level twin
// of the facade identity tests: the same controlled source mutations
// produce byte-identical fingerprints (runFingerprint from the parallel
// tests) on a default session (one shard) and a three-shard one.
func TestShardedRunMatchesSequentialAcrossReactions(t *testing.T) {
	ctx := context.Background()
	seqW, seqP := newDeltaWrangler(0)
	shW, shP := newDeltaWrangler(3)
	if _, err := seqW.Run(); err != nil {
		t.Fatal(err)
	}
	if _, err := shW.Run(); err != nil {
		t.Fatal(err)
	}
	if a, b := runFingerprint(t, seqW), runFingerprint(t, shW); a != b {
		t.Fatalf("initial run diverged:\nsequential:\n%s\nsharded:\n%s", a, b)
	}
	mutate := func(p *deltaProvider) {
		p.srcs["srcA"] = csvSource("srcA",
			"sku,name,brand,price\nAX-1,palma lampal,acme,11\nAX-2,palma mallap,acme,20\nAX-3,palma palm,acme,25\n")
	}
	mutate(seqP)
	mutate(shP)
	if _, err := seqW.RefreshSourcesContext(ctx, []string{"srcA"}); err != nil {
		t.Fatal(err)
	}
	if _, err := shW.RefreshSourcesContext(ctx, []string{"srcA"}); err != nil {
		t.Fatal(err)
	}
	if a, b := runFingerprint(t, seqW), runFingerprint(t, shW); a != b {
		t.Fatalf("post-refresh diverged:\nsequential:\n%s\nsharded:\n%s", a, b)
	}
}

// TestRowKeysMatchRowKeyFormat pins the agreement rowKey's doc promises:
// the interned per-row keys shard routing and feedback addressing use are
// exactly rowKey's "source#idxInSource".
func TestRowKeysMatchRowKeyFormat(t *testing.T) {
	w, _ := newDeltaWrangler(2)
	if _, err := w.Run(); err != nil {
		t.Fatal(err)
	}
	if w.Union().Len() == 0 {
		t.Fatal("empty union")
	}
	for i := 0; i < w.Union().Len(); i++ {
		if got, want := w.RowKey(i), rowKey(w.UnionSourceOf(i), w.UnionRowInSource(i)); got != want {
			t.Errorf("row %d: interned key %q, rowKey says %q", i, got, want)
		}
	}
}
