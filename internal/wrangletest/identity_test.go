package wrangletest

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/feedback"
	"repro/internal/sources"

	wctx "repro/internal/context"
)

// These scenarios pin the identities the seeded-random scripts rarely
// hit, all of them about state the front half of the tail carries from
// one reaction to the next — per-source derivations, the copy-on-write
// union, the FD dictionary, the resolver's registries and the memoized
// plan: a refresh that changes a source's row count (every later source's
// union index shifts), a refresh that moves a dependency across the 0.9
// confidence line (rows of unchanged sources gain or lose a repair), a
// source deselected and reselected, a failed tail followed by a clean
// one or by a fuse-only reaction, and a restore from a durable log
// followed by a refresh. Every
// scenario runs on a one-shard, one-worker baseline and on workers × shards
// variants, fingerprinted after every step, and beside a session that
// answers every step with a FullRerun, whose outputs must agree too.

// catalogue is the fixture's eight products; every source lists all of
// them, so each sku group has three rows and a lone dissenter is outvoted.
var catalogue = []struct{ sku, name, brand string }{
	{"AX-1", "palma lampal lamp", "acme"},
	{"AX-2", "palma mallap kettle", "acme"},
	{"BR-1", "brond bindor router", "umbra"},
	{"BR-2", "brond dobnir speaker", "umbra"},
	{"CX-1", "corva cassel blender", "globex"},
	{"CX-2", "corva lessac drill", "globex"},
	{"DX-1", "dunmor dapple toaster", "initech"},
	{"DX-2", "dunmor elppad mixer", "initech"},
}

// csvRows renders catalogue rows for one source: price varies by source
// so fusion has conflicts to settle; brandTypo misspells the brand of the
// listed row indices.
func csvRows(bump int, rows []int, brandTypo ...int) string {
	var b strings.Builder
	b.WriteString("sku,name,brand,price\n")
	for _, i := range rows {
		p := catalogue[i]
		brand := p.brand
		for _, t := range brandTypo {
			if t == i {
				brand += "e"
			}
		}
		fmt.Fprintf(&b, "%s,%s,%s,%d\n", p.sku, p.name, brand, 10+5*i+bump)
	}
	return b.String()
}

var allRows = []int{0, 1, 2, 3, 4, 5, 6, 7}

// fixture is three CSV sources behind one Static provider. srcA misspells
// one brand, which its sku group outvotes: FD repair rewrites that row.
type fixture struct {
	a, b, c *sources.Source
	static  *sources.Static
}

func newFixture() *fixture {
	f := &fixture{
		a: &sources.Source{ID: "srcA", Kind: sources.KindCSV, Raw: csvRows(0, allRows, 0)},
		b: &sources.Source{ID: "srcB", Kind: sources.KindCSV, Raw: csvRows(1, allRows)},
		c: &sources.Source{ID: "srcC", Kind: sources.KindCSV, Raw: csvRows(2, allRows)},
	}
	f.static = sources.NewStatic(f.a, f.b, f.c)
	return f
}

// clockHook wraps a provider and cancels a context on the n-th Clock call
// after arm — core reads the clock once per refreshed source and once
// more in the trust barrier, so n = refreshed sources + 1 fails a sharded
// tail between its cluster stage and its fuse fan-out.
type clockHook struct {
	sources.Provider
	left   atomic.Int64
	cancel context.CancelFunc
}

func (h *clockHook) arm(n int, cancel context.CancelFunc) {
	h.cancel = cancel
	h.left.Store(int64(n))
}

func (h *clockHook) Clock() int {
	if h.left.Add(-1) == 0 {
		h.cancel()
	}
	return h.Provider.Clock()
}

// planCancel is a context that reports cancellation once the wrangler's
// union has been replaced: the engine asks Err() on its scheduler
// goroutine before it dispatches each task, and integrate:plan runs alone
// when it replaces the union, so the first ask after the plan stage — for
// the resolve fan-out — fails a sharded tail exactly there.
type planCancel struct {
	context.Context
	w      *core.Wrangler
	before *dataset.Table
}

func (c planCancel) Err() error {
	if c.w.Union() != c.before {
		return context.Canceled
	}
	return c.Context.Err()
}

// tailLoss is where a step cancels the sharded variants' tail.
type tailLoss int

const (
	noLoss           tailLoss = iota
	lostAfterPlan             // union replaced; clusters, entity ids and routing not
	lostAfterCluster          // clusters and claims rebuilt; nothing fused or merged
)

type scenarioVariant struct {
	name string
	w    *core.Wrangler
	hook *clockHook
}

// scenarioStep mutates the shared sources, then reacts on every session:
// a refresh of the named sources, or a feedback reaction.
type scenarioStep struct {
	name     string
	mutate   func()
	refresh  []string
	feedback []feedback.Item
	// lose cancels the sharded variants' tail mid-flight: the step's
	// sources are installed, nothing is published and the memo is dropped.
	// The sessions are compared again after the next step, on outputs only
	// — their provenance logs have legitimately parted.
	lose tailLoss
	// check inspects the baseline after the step, so a scenario
	// that stopped doing what its name says fails instead of passing idly.
	check func(t *testing.T, w *core.Wrangler)
}

func (step scenarioStep) apply(v *scenarioVariant) error {
	ctx := context.Background()
	fail := step.lose != noLoss && v.w.IntegrationShards > 0
	switch {
	case fail && step.lose == lostAfterPlan:
		ctx = planCancel{Context: ctx, w: v.w, before: v.w.Union()}
	case fail:
		var cancel context.CancelFunc
		ctx, cancel = context.WithCancel(ctx)
		defer cancel()
		v.hook.arm(len(step.refresh)+1, cancel)
	}
	var err error
	if len(step.feedback) > 0 {
		for _, it := range step.feedback {
			v.w.AddFeedback(it)
		}
		_, err = v.w.ReactToFeedbackContext(ctx)
	} else {
		_, err = v.w.RefreshSourcesContext(ctx, step.refresh)
	}
	if fail {
		if !errors.Is(err, context.Canceled) {
			return fmt.Errorf("the tail was meant to be cancelled mid-flight, got %v", err)
		}
		return nil
	}
	return err
}

// outputs is the part of a fingerprint a FullRerun, or a session that lost
// a tail, shares with the baseline: everything but the provenance log.
func outputs(w *core.Wrangler) string {
	fp := Fingerprint(w)
	return fp[:strings.Index(fp, "== provenance")]
}

// runScenario drives steps over the fixture on the baseline,
// on every workers × shards variant and on a session that answers every
// step with a FullRerun. configure customises each session before its
// run.
func runScenario(t *testing.T, f *fixture, configure func(*core.Wrangler), steps []scenarioStep) {
	t.Helper()
	build := func(name string, workers, shards int) *scenarioVariant {
		v := &scenarioVariant{name: name, hook: &clockHook{Provider: f.static}}
		v.w = core.New(v.hook, core.ProductConfig(), nil, nil)
		v.w.Parallelism, v.w.IntegrationShards = workers, shards
		if configure != nil {
			configure(v.w)
		}
		if _, err := v.w.Run(); err != nil {
			t.Fatalf("%s: run: %v", name, err)
		}
		return v
	}
	base := build("baseline", 1, 0)
	rerun := build("full rerun", 1, 0)
	var variants []*scenarioVariant
	for _, workers := range []int{1, 4} {
		for _, shards := range []int{1, 4} {
			variants = append(variants, build(fmt.Sprintf("workers=%d shards=%d", workers, shards), workers, shards))
		}
	}
	view := Fingerprint // what the variants are compared on
	compare := func(stage string) {
		t.Helper()
		want := view(base.w)
		for _, v := range variants {
			if got := view(v.w); got != want {
				t.Fatalf("%s diverged from the baseline at %s:\n%s", v.name, stage, firstDiff(want, got))
			}
		}
		if want, got := outputs(base.w), outputs(rerun.w); got != want {
			t.Fatalf("full rerun diverged from the incremental session at %s:\n%s", stage, firstDiff(want, got))
		}
	}
	compare("initial run")
	for _, step := range steps {
		if step.mutate != nil {
			step.mutate()
		}
		for _, v := range append([]*scenarioVariant{base}, variants...) {
			if err := step.apply(v); err != nil {
				t.Fatalf("%s: %s: %v", step.name, v.name, err)
			}
		}
		for _, it := range step.feedback {
			rerun.w.AddFeedback(it)
		}
		if _, err := rerun.w.FullRerun(); err != nil {
			t.Fatalf("%s: full rerun: %v", step.name, err)
		}
		if step.check != nil {
			step.check(t, base.w)
		}
		if step.lose != noLoss {
			view = outputs
			continue // the sharded variants are a tail behind until the next step
		}
		compare(step.name)
	}
}

// unionCell returns the named column of the union row with the given
// feedback key.
func unionCell(t *testing.T, w *core.Wrangler, rowKey, column string) string {
	t.Helper()
	for i := 0; i < w.Union().Len(); i++ {
		if w.RowKey(i) == rowKey {
			return w.Union().Get(i, column).String()
		}
	}
	t.Fatalf("no union row %s", rowKey)
	return ""
}

// TestRefreshChangingRowCounts: srcA sorts first, so every change of its
// row count shifts the union index of every srcB and srcC row; srcB going
// empty and coming back does the same to srcC.
func TestRefreshChangingRowCounts(t *testing.T) {
	f := newFixture()
	rows := func(n int) func(*testing.T, *core.Wrangler) {
		return func(t *testing.T, w *core.Wrangler) {
			if got := w.Union().Len(); got != n {
				t.Fatalf("union has %d rows, want %d", got, n)
			}
		}
	}
	runScenario(t, f, nil, []scenarioStep{
		{name: "srcA drops its first two rows", refresh: []string{"srcA"}, check: rows(22),
			mutate: func() { f.a.Raw = csvRows(0, allRows[2:]) }},
		{name: "srcA lists them again, last", refresh: []string{"srcA"}, check: rows(24),
			mutate: func() { f.a.Raw = csvRows(0, []int{2, 3, 4, 5, 6, 7, 0, 1}, 0) }},
		{name: "srcB goes empty", refresh: []string{"srcB"}, check: rows(16),
			mutate: func() { f.b.Raw = "sku,name,brand,price\n" }},
		{name: "srcB comes back while srcA shrinks", refresh: []string{"srcA", "srcB"}, check: rows(19),
			mutate: func() { f.a.Raw, f.b.Raw = csvRows(3, allRows[5:]), csvRows(1, allRows) }},
	})
}

// TestRefreshMovingDependencyAcrossConfidenceLine: sku -> brand holds for
// 23 of 24 rows, so srcA's misspelt brand is repaired; when srcC misspells
// two more the dependency drops to 21/24 < 0.9 and is no longer acted on —
// srcA's row, whose source did not change, loses its repair — and gains it
// back when srcC recovers.
func TestRefreshMovingDependencyAcrossConfidenceLine(t *testing.T) {
	f := newFixture()
	brand := func(want string) func(*testing.T, *core.Wrangler) {
		return func(t *testing.T, w *core.Wrangler) {
			if got := unionCell(t, w, "srcA#0", "brand"); got != want {
				t.Fatalf("srcA#0 brand = %q, want %q", got, want)
			}
		}
	}
	w := core.New(f.static, core.ProductConfig(), nil, nil)
	if _, err := w.Run(); err != nil {
		t.Fatal(err)
	}
	brand("acme")(t, w) // repaired to begin with
	runScenario(t, f, nil, []scenarioStep{
		{name: "srcC drags sku -> brand below 0.9", refresh: []string{"srcC"}, check: brand("acmee"),
			mutate: func() { f.c.Raw = csvRows(2, allRows, 2, 4) }},
		{name: "srcC recovers", refresh: []string{"srcC"}, check: brand("acme"),
			mutate: func() { f.c.Raw = csvRows(2, allRows) }},
		{name: "srcB takes its turn", refresh: []string{"srcB"}, check: brand("acmee"),
			mutate: func() { f.b.Raw = csvRows(1, allRows, 3, 5) }},
	})
}

// TestSourceDeselectedThenReselected: with room for two of three sources,
// relevance votes push srcC in at srcB's expense and then bring srcB back.
// Its source generation sat unselected in between; its derivations and the
// registries its rows were interned in must still serve it.
func TestSourceDeselectedThenReselected(t *testing.T) {
	f := newFixture()
	votes := func(id string, n int) []feedback.Item {
		var items []feedback.Item
		for i := 0; i < n; i++ {
			items = append(items, feedback.Item{Kind: feedback.SourceRelevant, SourceID: id, Worker: "expert", Cost: 0.1})
		}
		return items
	}
	selected := func(want string) func(*testing.T, *core.Wrangler) {
		return func(t *testing.T, w *core.Wrangler) {
			if got := strings.Join(w.SelectedSources(), ","); got != want {
				t.Fatalf("selected %s, want %s", got, want)
			}
		}
	}
	two := func(w *core.Wrangler) {
		w.UserCtx = wctx.DefaultUserContext()
		w.UserCtx.MaxSources = 2
	}
	w := core.New(f.static, core.ProductConfig(), nil, nil)
	two(w)
	if _, err := w.Run(); err != nil {
		t.Fatal(err)
	}
	selected("srcA,srcB")(t, w)
	runScenario(t, f, two, []scenarioStep{
		{name: "srcC voted in", feedback: votes("srcC", 4), check: selected("srcA,srcC")},
		{name: "srcB voted back", feedback: votes("srcB", 8), check: selected("srcB,srcC")},
		{name: "srcA voted back", feedback: votes("srcA", 12), check: selected("srcA,srcB")},
	})
}

// TestFailedTailThenCleanOne: a sharded tail cancelled between its
// cluster stage and its fuse fan-out has already replaced the union, the
// resolver and the FD dictionary's view of the refreshed source, and
// drops the memo. The next reaction plans from scratch over that
// half-advanced state and must land where the baseline session did.
func TestFailedTailThenCleanOne(t *testing.T) {
	f := newFixture()
	runScenario(t, f, nil, []scenarioStep{
		{name: "srcA shrinks, tail lost", refresh: []string{"srcA"}, lose: lostAfterCluster,
			mutate: func() { f.a.Raw = csvRows(0, allRows[1:]) }},
		{name: "srcC refreshes cleanly", refresh: []string{"srcC"},
			mutate: func() { f.c.Raw = csvRows(4, allRows, 6) }},
		{name: "srcA grows back", refresh: []string{"srcA"},
			mutate: func() { f.a.Raw = csvRows(0, allRows, 0) }},
	})
}

// TestTailLostAfterPlanThenValueFeedback: a sharded tail cancelled right
// after its plan stage has replaced the union but not the clustering, the
// entity ids or the entity→shard routing. Value feedback — the fuse-only
// reaction — comes next and must not re-fuse the new union through the
// old clustering, whether the union shrank or grew in between: with the
// memo gone it runs the full tail and lands where the baseline session
// did.
func TestTailLostAfterPlanThenValueFeedback(t *testing.T) {
	f := newFixture()
	distrust := func(src, sku string) []feedback.Item {
		return []feedback.Item{{Kind: feedback.ValueIncorrect, SourceID: src, Entity: sku,
			Attribute: "price", Worker: "expert", Cost: 0.5}}
	}
	after := func(rows int, distrusted string) func(*testing.T, *core.Wrangler) {
		return func(t *testing.T, w *core.Wrangler) {
			if got := w.Union().Len(); got != rows {
				t.Fatalf("union has %d rows, want %d", got, rows)
			}
			if distrusted != "" && w.Trust()[distrusted] >= w.Trust()["srcC"] {
				t.Fatalf("trust %v: the feedback did not lower %s", w.Trust(), distrusted)
			}
		}
	}
	runScenario(t, f, nil, []scenarioStep{
		{name: "srcA shrinks, tail lost after plan", refresh: []string{"srcA"}, lose: lostAfterPlan, check: after(22, ""),
			mutate: func() { f.a.Raw = csvRows(0, allRows[2:]) }},
		{name: "a srcB price is wrong", feedback: distrust("srcB", "BR-1"), check: after(22, "srcB")},
		{name: "srcA grows, tail lost after plan", refresh: []string{"srcA"}, lose: lostAfterPlan, check: after(24, "srcB"),
			mutate: func() { f.a.Raw = csvRows(0, allRows, 0) }},
		{name: "a srcA price is wrong", feedback: distrust("srcA", "CX-2"), check: after(24, "srcA")},
		{name: "srcC refreshes cleanly", refresh: []string{"srcC"}, check: after(24, "srcA"),
			mutate: func() { f.c.Raw = csvRows(4, allRows, 6) }},
	})
}

// TestRestoreFromLogThenRefresh: a session restored from its durable log
// has source states without derivations, no FD dictionary and a resolver
// nothing was carried into; its first refresh — one that shifts every
// later source's rows — must match the session that never restarted.
func TestRestoreFromLogThenRefresh(t *testing.T) {
	ctx := context.Background()
	for _, shards := range []int{0, 4} {
		f := newFixture()
		dir := t.TempDir()
		live := core.New(f.static, core.ProductConfig(), nil, nil)
		live.IntegrationShards = shards
		openDurable(t, live, dir)
		if _, err := live.Run(); err != nil {
			t.Fatal(err)
		}
		f.c.Raw = csvRows(2, allRows, 2, 4)
		if _, err := live.RefreshSourcesContext(ctx, []string{"srcC"}); err != nil {
			t.Fatal(err)
		}
		if err := live.Durable().Close(); err != nil {
			t.Fatal(err)
		}
		restored := core.New(f.static, core.ProductConfig(), nil, nil)
		restored.IntegrationShards = shards
		if !openDurable(t, restored, dir) {
			t.Fatalf("shards=%d: nothing restored", shards)
		}
		if want, got := Fingerprint(live), Fingerprint(restored); want != got {
			t.Fatalf("shards=%d: restored session diverged:\n%s", shards, firstDiff(want, got))
		}
		f.a.Raw = csvRows(0, allRows[3:])
		for _, w := range []*core.Wrangler{live, restored} {
			if _, err := w.RefreshSourcesContext(ctx, []string{"srcA"}); err != nil {
				t.Fatal(err)
			}
		}
		if want, got := Fingerprint(live), Fingerprint(restored); want != got {
			t.Fatalf("shards=%d: first refresh after restore diverged:\n%s", shards, firstDiff(want, got))
		}
	}
}
