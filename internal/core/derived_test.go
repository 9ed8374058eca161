package core

import (
	"runtime"
	"testing"
	"time"

	"repro/internal/feedback"
)

var (
	replanSteps = []string{"replan.union", "replan.fd_repair", "replan.prepare", "replan.plan"}
	trustSteps  = []string{"trust.name", "trust.claims", "trust.prepare", "trust.layout", "trust.fixpoint"}
)

// TestReplanSplitSumsToReplan pins the named costs inside the tail's
// stages. A sharded run and a sharded refresh report the four replan
// steps, which add up to the replan stage (its task also pays only the
// engine's bookkeeping); they are not accrued into "integrate" a second
// time; a default (one-shard) session names the same steps; and a
// fuse-only reaction — which never builds a union — names none. Every
// tail names the five trust steps, which sum to at most the trust stage
// (its task also pays the engine's bookkeeping), and a fuse-only
// reaction's name, claim and layout steps are zero: it renames, regroups
// and lays out nothing.
func TestReplanSplitSumsToReplan(t *testing.T) {
	checkTrust := func(label string, stages map[string]time.Duration) {
		t.Helper()
		var sum time.Duration
		for _, k := range trustSteps {
			d, ok := stages[k]
			if !ok {
				t.Fatalf("%s: step %q missing from %v", label, k, stages)
			}
			sum += d
		}
		if trust := stages["trust"]; sum > trust {
			t.Errorf("%s: trust steps sum to %v, more than the trust stage %v", label, sum, trust)
		}
	}
	check := func(label string, stages map[string]time.Duration) {
		t.Helper()
		checkTrust(label, stages)
		var sum time.Duration
		for _, k := range replanSteps {
			d, ok := stages[k]
			if !ok {
				t.Fatalf("%s: step %q missing from %v", label, k, stages)
			}
			sum += d
		}
		replan := stages["replan"]
		if diff := (replan - sum).Abs(); diff > replan/20+100*time.Microsecond {
			t.Errorf("%s: steps sum to %v, replan is %v", label, sum, replan)
		}
	}
	w := newShardedWrangler(7, 12, 4)
	if _, err := w.Run(); err != nil {
		t.Fatal(err)
	}
	run := w.LastStats.Stages
	check("run", run)
	if tail := run["replan"] + run["resolve"] + run["trust"] + run["fuse"] + run["merge"]; run["integrate"] != tail {
		t.Errorf("run: integrate %v != sum of the tail's DAG stages %v: the steps were accrued twice", run["integrate"], tail)
	}
	w.EvolveWorld(0.1)
	stats, err := w.RefreshSource(w.SelectedSources()[0])
	if err != nil {
		t.Fatal(err)
	}
	check("refresh", stats.Stages)

	res := w.Results()
	w.AddFeedback(feedback.Item{Kind: feedback.ValueIncorrect, SourceID: w.SelectedSources()[0],
		Entity: res[0].Entity, Attribute: res[0].Attribute, Worker: "expert", Cost: 0.5})
	stats, err = w.ReactToFeedback()
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range replanSteps {
		if _, ok := stats.Stages[k]; ok {
			t.Errorf("fuse-only reaction reports %q: %v", k, stats.Stages)
		}
	}
	checkTrust("fuse-only", stats.Stages)
	if d := stats.Stages["trust.claims"]; d != 0 {
		t.Errorf("fuse-only reaction built claims for %v", d)
	}
	if d := stats.Stages["trust.name"]; d != 0 {
		t.Errorf("fuse-only reaction named entities for %v", d)
	}
	if d := stats.Stages["trust.layout"]; d != 0 {
		t.Errorf("fuse-only reaction laid the fixpoint out for %v", d)
	}

	one := newShardedWrangler(7, 12, 0)
	if _, err := one.Run(); err != nil {
		t.Fatal(err)
	}
	check("default run", one.LastStats.Stages)
}

// TestUnionSharesUnrepairedRecords pins the copy-on-write union: a union
// row is its source's mapped record itself unless FD repair rewrote it,
// a rewritten row is a clone (the mapped record keeps its value), and a
// refresh of one source leaves every other source's unrepaired rows the
// very records they were — which is what lets record identity stand for
// "content unchanged".
func TestUnionSharesUnrepairedRecords(t *testing.T) {
	for _, shards := range []int{0, 4} {
		w := newShardedWrangler(7, 12, shards)
		if _, err := w.Run(); err != nil {
			t.Fatal(err)
		}
		shared := func() (same, cloned int) {
			for i := 0; i < w.Union().Len(); i++ {
				mapped := w.states[w.UnionSourceOf(i)].mapped.Row(w.UnionRowInSource(i))
				row := w.Union().Row(i)
				if &row[0] == &mapped[0] {
					same++
				} else if cloned++; row.Equal(mapped) {
					t.Errorf("shards=%d: union row %d is a clone that repairs nothing", shards, i)
				}
			}
			return same, cloned
		}
		same, cloned := shared()
		if same == 0 || cloned == 0 {
			t.Fatalf("shards=%d: %d shared and %d repaired rows; the universe should have both", shards, same, cloned)
		}
		prev := w.Union()
		prevSources := append([]string(nil), w.unionSources...)
		id := w.SelectedSources()[0]
		w.EvolveWorld(0.1)
		if _, err := w.RefreshSource(id); err != nil {
			t.Fatal(err)
		}
		shared()
		kept := 0
		for i, j := 0, 0; i < w.Union().Len() && j < prev.Len(); i, j = i+1, j+1 {
			if w.UnionSourceOf(i) != prevSources[j] {
				t.Fatalf("shards=%d: the refresh changed a row count; pick another seed", shards)
			}
			if w.UnionSourceOf(i) != id && &w.Union().Row(i)[0] == &prev.Row(j)[0] {
				kept++
			}
		}
		if kept == 0 {
			t.Errorf("shards=%d: no record of an unrefreshed source survived the refresh by identity", shards)
		}
	}
}

// TestDerivedStateBoundedUnderChurn is the bounded-memory check: 300
// round-robin refreshes on a seed-scale universe. Derived rows are held
// per source generation, so their count never exceeds the universe; the
// FD dictionary, the resolver's registries and the interner's entity
// names are rebuilt once churn has left more than half their entries
// unreferenced — the interner, whose keyless names are content that churn
// retires, never holds more than twice the names in use; the trust
// layout carried from refresh to refresh lays out only the live claims,
// over a source dictionary of at most twice the sources present; and the
// live heap
// after a forced GC stays flat from refresh 100 to refresh 300 — up to the
// few kB per refresh the provenance log still adds (ROADMAP item 6). One
// leaked generation per refresh (its cell strings and row features) would
// be ten times that.
func TestDerivedStateBoundedUnderChurn(t *testing.T) {
	if testing.Short() {
		t.Skip("300 refreshes")
	}
	w := newShardedWrangler(7, 6, 2)
	if _, err := w.Run(); err != nil {
		t.Fatal(err)
	}
	rows := func() int {
		n := 0
		for _, st := range w.states {
			n += st.mapped.Len()
		}
		return n
	}
	heap := func() uint64 {
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}
	ids := w.SelectedSources()
	var at100 uint64
	named, interned, swept := map[string]bool{}, 0, 0
	slabs, relaid := 0, 0
	for i := 0; i < 300; i++ {
		w.EvolveWorld(0.05)
		if _, err := w.RefreshSource(ids[i%len(ids)]); err != nil {
			t.Fatal(err)
		}
		if got, want := w.derivedRows(), rows(); got != want {
			t.Fatalf("refresh %d: derivations held for %d rows, the sources have %d", i, got, want)
		}
		// Keyless names are content: churn retires some every so often.
		// The interner holds at most twice the names in use.
		for _, id := range w.entities.ids {
			named[id] = true
		}
		if n := w.interner.Len(); n > 2*len(w.entities.ids) {
			t.Fatalf("refresh %d: the interner holds %d names for %d entities", i, n, len(w.entities.ids))
		} else if n < interned {
			swept++
		}
		interned = w.interner.Len()
		// Claim groups handed on whole keep earlier slabs alive; those hold
		// at most twice the claims in use (every row claims every column
		// but the freshness one).
		claims := w.union.Len() * (len(w.union.Schema()) - 1)
		if w.laidFrom.slabs > 2*claims {
			t.Fatalf("refresh %d: claim slabs hold %d claims for %d in use", i, w.laidFrom.slabs, claims)
		} else if w.laidFrom.slabs < slabs {
			relaid++
		}
		slabs = w.laidFrom.slabs
		// The trust layout, patched from the last one on most refreshes,
		// lays out only live claims, and its source dictionary, which keeps
		// the numbers of sources gone, holds at most twice the sources
		// present.
		if laid, numbers, present := w.groups.LayoutSize(); laid > claims || numbers > 2*present || present == 0 {
			t.Fatalf("refresh %d: the trust layout holds %d claims for %d in use, %d source numbers for %d sources",
				i, laid, claims, numbers, present)
		}
		if i == 99 {
			at100 = heap()
		}
	}
	end := heap()
	runtime.KeepAlive(w)
	t.Logf("live heap %d kB after 100 refreshes, %d kB after 300; %d entity names used, %d held, %d sweeps; %d fresh claim layouts",
		at100>>10, end>>10, len(named), interned, swept, relaid)
	if relaid == 0 {
		t.Errorf("300 refreshes never laid the claims out afresh")
	}
	if swept == 0 {
		t.Errorf("%d entity names used, %d held at the end, and the interner never dropped one", len(named), interned)
	}
	if end > at100+200*10<<10 {
		t.Errorf("live heap grew from %d kB after 100 refreshes to %d kB after 300", at100>>10, end>>10)
	}
}
