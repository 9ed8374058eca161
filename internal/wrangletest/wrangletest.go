// Package wrangletest is the determinism and property-test harness for
// the wrangling pipeline. The sharded integration tail's whole contract
// is "byte-identical results, faster" — example tests cannot pin that,
// so this package provides what can: a seeded-random universe and table
// generator, a randomized feedback/refresh script driver, and an
// invariant checker that fingerprints every read-side artefact (table,
// report, fused results, trust, clustering, provenance) and asserts the
// tail reproduces its one-shard, one-worker run bit for bit at every
// worker and shard count, after every reaction. The experience with
// coverage-guided DBMS fuzzing (Wang et al.) applies directly:
// randomized, invariant-checked workloads, not examples, are what keep a
// concurrent data system honest — the same generators back the
// package's fuzz target.
package wrangletest

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/er"
	"repro/internal/feedback"
	"repro/internal/ontology"
	"repro/internal/report"
	"repro/internal/sources"

	wctx "repro/internal/context"
)

// NewWrangler builds a product-domain wrangler over a fresh synthetic
// universe derived from seed, with the given integration shard count
// (0 = one shard, full change sets). Two calls with equal arguments
// build wranglers over byte-identical worlds — the baseline/variant
// pairs the determinism checks compare.
func NewWrangler(seed int64, nSources, shards int) *core.Wrangler {
	world := sources.NewWorld(seed, 120, 0)
	u := sources.Generate(world, sources.DefaultConfig(seed, nSources))
	dataCtx := wctx.NewDataContext().WithTaxonomy(ontology.ProductTaxonomy())
	w := core.New(u, core.ProductConfig(), nil, dataCtx)
	w.IntegrationShards = shards
	return w
}

// Fingerprint renders every read-side artefact of the wrangler's current
// working data into one stable string: the full wrangled table, the
// fused results (value, confidence, support, conflict), the report with
// supporters, the trust map, the clustering, the selected sources and
// the provenance dump. Two wranglers in byte-identical states fingerprint
// identically; any divergence — a float a different summation order
// produced, a cluster numbered differently, a provenance step taken
// twice — shows up as a diff.
func Fingerprint(w *core.Wrangler) string {
	var b strings.Builder

	b.WriteString("== table ==\n")
	if t := w.Wrangled(); t != nil {
		fmt.Fprintf(&b, "schema: %s\n", t.Schema().String())
		for i := 0; i < t.Len(); i++ {
			parts := make([]string, len(t.Row(i)))
			for j, v := range t.Row(i) {
				parts[j] = v.Key()
			}
			fmt.Fprintf(&b, "%d: %s\n", i, strings.Join(parts, "|"))
		}
	}

	b.WriteString("== results ==\n")
	for _, r := range w.Results() {
		fmt.Fprintf(&b, "%s/%s = %s conf=%g support=%d conflict=%v\n",
			r.Entity, r.Attribute, r.Value.Key(), r.Confidence, r.Support, r.Conflict)
	}

	b.WriteString("== report ==\n")
	for _, l := range report.Build(w, "fingerprint", nil).Lines {
		fmt.Fprintf(&b, "%s/%s = %s conf=%g conflict=%v sup=%s\n",
			l.Entity, l.Attribute, l.Value, l.Confidence, l.Conflict, strings.Join(l.Supporters, ","))
	}

	b.WriteString("== trust ==\n")
	trust := w.Trust()
	srcs := make([]string, 0, len(trust))
	for s := range trust {
		srcs = append(srcs, s)
	}
	sort.Strings(srcs)
	for _, s := range srcs {
		fmt.Fprintf(&b, "%s = %g\n", s, trust[s])
	}

	b.WriteString("== clusters ==\n")
	if c := w.Clusters(); c != nil {
		fmt.Fprintf(&b, "num=%d assign=%v\n", c.Num, c.Assign)
	}

	fmt.Fprintf(&b, "== selected ==\n%s\n", strings.Join(w.SelectedSources(), ","))
	fmt.Fprintf(&b, "== stats ==\nrows=%d selected=%d\n", w.LastStats.RowsWrangled, w.LastStats.SourcesSelected)
	fmt.Fprintf(&b, "== provenance @%d ==\n%s", w.Prov.Step(), w.Prov.Dump())
	return b.String()
}

// Step is one randomized reaction of a determinism script: either a
// batch of feedback items followed by an incremental reaction, or a
// world-churn + source-refresh batch.
type Step struct {
	Name     string
	Feedback []feedback.Item
	Churn    float64
	Refresh  []string
}

// Apply drives the step against one wrangler, returning the reaction
// stats (for dirty-shard accounting). Feedback reactions and refreshes
// are exactly the session reaction paths; refresh errors are returned as
// text so the caller can assert the variants failed identically too
// (best-effort refreshes report per-source errors without aborting the
// tail).
func (s Step) Apply(ctx context.Context, w *core.Wrangler) (core.ReactStats, string, error) {
	if len(s.Feedback) > 0 {
		for _, it := range s.Feedback {
			w.AddFeedback(it)
		}
		stats, err := w.ReactToFeedbackContext(ctx)
		return stats, "", err
	}
	if s.Churn > 0 {
		w.EvolveWorld(s.Churn)
	}
	stats, err := w.RefreshSourcesContext(ctx, s.Refresh)
	if err != nil {
		// Per-source refresh failures are part of the behaviour under
		// test (every variant must fail the same way), not harness
		// errors.
		return stats, err.Error(), nil
	}
	return stats, "", nil
}

// Script derives steps reproducible reactions from rng, inspecting ref
// (the already-run baseline wrangler) for real entities, sources, report
// lines and union rows to target. The same script is applied to every
// variant; because the variants are byte-identical to the baseline at
// every step, an address valid for the baseline is valid for all.
func Script(rng *rand.Rand, ref *core.Wrangler, steps int) []Step {
	var out []Step
	ids := ref.SelectedSources()
	for i := 0; i < steps; i++ {
		switch rng.Intn(5) {
		case 0: // value verdicts against current report lines
			rep := report.Build(ref, "script", nil)
			var items []feedback.Item
			for n := 1 + rng.Intn(4); n > 0 && len(rep.Lines) > 0; n-- {
				l := rep.Lines[rng.Intn(len(rep.Lines))]
				kind := feedback.ValueIncorrect
				if rng.Intn(2) == 0 {
					kind = feedback.ValueCorrect
				}
				src := ids[rng.Intn(len(ids))]
				if len(l.Supporters) > 0 {
					src = l.Supporters[rng.Intn(len(l.Supporters))]
				}
				items = append(items, feedback.Item{
					Kind: kind, SourceID: src, Entity: l.Entity, Attribute: l.Attribute,
					Worker: "expert", Cost: 0.5,
				})
			}
			out = append(out, Step{Name: fmt.Sprintf("step%d:value", i), Feedback: items})
		case 1: // pair labels over random union rows
			n := ref.Union().Len()
			if n < 2 {
				continue
			}
			var items []feedback.Item
			for k := 0; k < 6; k++ {
				a, b := rng.Intn(n), rng.Intn(n)
				if a == b {
					continue
				}
				kind := feedback.NotDuplicatePair
				// Label along the current clustering half the time so the
				// learner sees both classes.
				if ref.EntityOf(a) == ref.EntityOf(b) || rng.Intn(2) == 0 {
					kind = feedback.DuplicatePair
				}
				items = append(items, feedback.Item{
					Kind: kind, PairKey: feedback.PairKey(ref.RowKey(a), ref.RowKey(b)),
					Worker: "expert", Cost: 1,
				})
			}
			out = append(out, Step{Name: fmt.Sprintf("step%d:pairs", i), Feedback: items})
		case 2: // relevance votes
			kind := feedback.SourceRelevant
			if rng.Intn(2) == 0 {
				kind = feedback.SourceIrrelevant
			}
			out = append(out, Step{Name: fmt.Sprintf("step%d:relevance", i), Feedback: []feedback.Item{
				{Kind: kind, SourceID: ids[rng.Intn(len(ids))], Worker: "expert", Cost: 0.2},
			}})
		case 3: // wrapper repair reaction
			out = append(out, Step{Name: fmt.Sprintf("step%d:wrapper", i), Feedback: []feedback.Item{
				{Kind: feedback.WrapperBroken, SourceID: ids[rng.Intn(len(ids))], Worker: "expert", Cost: 1},
			}})
		default: // churn + refresh batch
			var refresh []string
			for n := 1 + rng.Intn(3); n > 0; n-- {
				refresh = append(refresh, ids[rng.Intn(len(ids))])
			}
			out = append(out, Step{
				Name:    fmt.Sprintf("step%d:refresh", i),
				Churn:   0.1 + 0.2*rng.Float64(),
				Refresh: refresh,
			})
		}
	}
	return out
}

// CheckDeterminism is the invariant checker: a baseline at one shard and
// one worker (the default shard count, and trust groups prepared
// without a fan-out) and one variant per (workers × shards) pair run
// byte-identical universes through the same seeded-random
// feedback/refresh script, and every variant must fingerprint
// identically to the baseline after the initial run and after every
// step — while re-resolving only its dirty shards. It returns
// the shards reused, summed over all variants and steps, so callers can
// additionally assert the partial tail actually engaged (a sharded path
// that silently fell back to full recompute would pass the identity check
// vacuously).
func CheckDeterminism(t testing.TB, seed int64, nSources, steps int, workerCounts, shardCounts []int) (reused int) {
	t.Helper()
	ctx := context.Background()
	base := NewWrangler(seed, nSources, 0)
	base.Parallelism = 1
	if _, err := base.Run(); err != nil {
		t.Fatalf("baseline run: %v", err)
	}
	type variant struct {
		name string
		w    *core.Wrangler
	}
	var variants []variant
	for _, wk := range workerCounts {
		for _, n := range shardCounts {
			v := variant{name: fmt.Sprintf("workers=%d shards=%d", wk, n), w: NewWrangler(seed, nSources, n)}
			v.w.Parallelism = wk
			if _, err := v.w.Run(); err != nil {
				t.Fatalf("%s run: %v", v.name, err)
			}
			variants = append(variants, v)
		}
	}
	compare := func(stage string) {
		t.Helper()
		want := Fingerprint(base)
		for _, v := range variants {
			if got := Fingerprint(v.w); got != want {
				t.Fatalf("%s diverged from the baseline at %s:\n%s", v.name, stage, firstDiff(want, got))
			}
		}
	}
	compare("initial run")

	rng := rand.New(rand.NewSource(seed*7919 + 13))
	for _, step := range Script(rng, base, steps) {
		_, refErr, err := step.Apply(ctx, base)
		if err != nil {
			t.Fatalf("%s: baseline: %v", step.Name, err)
		}
		for _, v := range variants {
			stats, vErr, err := step.Apply(ctx, v.w)
			if err != nil {
				t.Fatalf("%s: %s: %v", step.Name, v.name, err)
			}
			if vErr != refErr {
				t.Fatalf("%s: %s error diverged:\nbaseline: %q\nvariant:  %q", step.Name, v.name, refErr, vErr)
			}
			reused += stats.ShardsReused
		}
		compare(step.Name)
	}
	return reused
}

// firstDiff renders the first differing line of two fingerprints with a
// little context — a full dump of two multi-hundred-line fingerprints
// helps nobody.
func firstDiff(want, got string) string {
	w := strings.Split(want, "\n")
	g := strings.Split(got, "\n")
	n := len(w)
	if len(g) < n {
		n = len(g)
	}
	for i := 0; i < n; i++ {
		if w[i] != g[i] {
			lo := i - 2
			if lo < 0 {
				lo = 0
			}
			return fmt.Sprintf("line %d:\n  context:  %s\n  baseline: %s\n  variant:  %s",
				i, strings.Join(w[lo:i], " / "), w[i], g[i])
		}
	}
	return fmt.Sprintf("lengths differ: baseline %d lines, variant %d lines", len(w), len(g))
}

// RandomTable generates a product-shaped table directly from rng: ~nRows
// rows over (sku, name, brand, price) drawn from a small pool of true
// entities with typos, missing keys, shared tokens and price jitter —
// the shapes q-gram blocking and shard routing have to survive. Used by
// the resolve-level property test and the fuzz target, where generating
// a whole universe per input would drown the fuzzer.
func RandomTable(rng *rand.Rand, nRows int) *dataset.Table {
	schema := dataset.MustSchema(
		dataset.Field{Name: "sku", Kind: dataset.KindString},
		dataset.Field{Name: "name", Kind: dataset.KindString},
		dataset.Field{Name: "brand", Kind: dataset.KindString},
		dataset.Field{Name: "price", Kind: dataset.KindFloat},
	)
	t := dataset.NewTable(schema)
	adjectives := []string{"Turbo", "Ultra", "Compact", "Classic", "Pro"}
	nouns := []string{"Blender", "Kettle", "Lamp", "Router", "Speaker", "Drill"}
	brands := []string{"Acme", "Globex", "Initech", "Umbra"}
	nEntities := 1 + nRows/3
	for i := 0; i < nRows; i++ {
		e := rng.Intn(nEntities)
		adj := adjectives[e%len(adjectives)]
		noun := nouns[(e/len(adjectives))%len(nouns)]
		name := fmt.Sprintf("%s %s %d", adj, noun, e)
		if rng.Intn(4) == 0 && len(name) > 3 {
			// Typo: drop a character.
			p := 1 + rng.Intn(len(name)-2)
			name = name[:p] + name[p+1:]
		}
		sku := dataset.String(fmt.Sprintf("SKU-%04d", e))
		if rng.Intn(5) == 0 {
			sku = dataset.Null()
		}
		price := 10 + float64(e)*3.5
		if rng.Intn(3) == 0 {
			price *= 1 + (rng.Float64()-0.5)*0.02
		}
		t.AppendValues(sku, dataset.String(name), dataset.String(brands[e%len(brands)]), dataset.Float(price))
	}
	return t
}

// RandomConstraints draws random must/cannot pairs over a table of n
// rows — the feedback-derived hard constraints the sharded resolve must
// honour identically to the sequential one.
func RandomConstraints(rng *rand.Rand, n int) (must, cannot []er.Pair) {
	if n < 2 {
		return nil, nil
	}
	for k := rng.Intn(4); k > 0; k-- {
		a, b := rng.Intn(n), rng.Intn(n)
		if a != b {
			must = append(must, orderedPair(a, b))
		}
	}
	for k := rng.Intn(4); k > 0; k-- {
		a, b := rng.Intn(n), rng.Intn(n)
		if a != b {
			cannot = append(cannot, orderedPair(a, b))
		}
	}
	return must, cannot
}

func orderedPair(a, b int) er.Pair {
	if a > b {
		a, b = b, a
	}
	return er.Pair{I: a, J: b}
}

// CheckStreamingRePlan asserts the er-layer streaming equivalence:
// memoize a resolved plan over one table, mutate the table (value edits,
// deletions, insertions — the shapes a refresh or reselection produces),
// and the incremental RePlan plus resolving only the dirty shards must
// reproduce exactly what a fresh PlanShards plus full resolve produces —
// routing, reused clusters and all — which in turn equals the sequential
// constrained resolve. Returns an error instead of failing so the fuzz
// targets can reuse it.
func CheckStreamingRePlan(rng *rand.Rand, nRows, shards int) error {
	r := er.NewResolver("sku", "name", "brand", "price")
	tabA := RandomTable(rng, nRows)
	keysA := make([]string, tabA.Len())
	for i := range keysA {
		keysA[i] = fmt.Sprintf("row-%04d", i)
	}
	mustA, cannotA := RandomConstraints(rng, tabA.Len())
	planA, err := r.PlanShards(tabA, shards, mustA, keysA)
	if err != nil {
		return fmt.Errorf("plan A: %w", err)
	}
	rootsA := make([]map[int]int, shards)
	for i := 0; i < shards; i++ {
		if rootsA[i], _, err = r.ResolveShard(tabA, planA, i, mustA, cannotA); err != nil {
			return fmt.Errorf("resolve A shard %d: %w", i, err)
		}
	}
	memo, err := er.BuildPlanState(r, planA, keysA, rootsA, mustA, cannotA)
	if err != nil {
		return fmt.Errorf("memoize A: %w", err)
	}

	// Mutate: edit a few rows in place, drop a few, append a few new ones.
	// Untouched rows keep their record (the pipeline's union shares the
	// records of unchanged sources), edited ones get a fresh one.
	tabB := dataset.NewTable(tabA.Schema().Clone())
	var keysB []string
	var dirty []int
	for i := 0; i < tabA.Len(); i++ {
		if rng.Intn(10) == 0 {
			continue // dropped
		}
		row := tabA.Row(i)
		if rng.Intn(6) == 0 {
			row = row.Clone()
			row[1] = dataset.String(fmt.Sprintf("Edited Widget %d", rng.Intn(50)))
			dirty = append(dirty, tabB.Len())
		} else if rng.Intn(8) == 0 {
			row = row.Clone()
			row[3] = dataset.Float(200 + float64(rng.Intn(40)))
			dirty = append(dirty, tabB.Len())
		}
		tabB.Append(row)
		keysB = append(keysB, keysA[i])
	}
	extra := RandomTable(rng, rng.Intn(6))
	for i := 0; i < extra.Len(); i++ {
		tabB.Append(extra.Row(i).Clone())
		keysB = append(keysB, fmt.Sprintf("new-%04d", i))
	}
	if tabB.Len() == 0 {
		return nil
	}
	mustB, cannotB := RandomConstraints(rng, tabB.Len())

	// The next round's resolver takes over the registries the memo's block
	// ids belong to, as the pipeline's does.
	prevR := r
	r = er.NewResolver("sku", "name", "brand", "price")
	r.Carry(prevR)
	rp, err := r.RePlan(tabB, shards, mustB, cannotB, keysB, dirty, memo)
	if err != nil {
		return fmt.Errorf("replan: %w", err)
	}
	fresh, err := er.NewResolver("sku", "name", "brand", "price").PlanShards(tabB, shards, mustB, keysB)
	if err != nil {
		return fmt.Errorf("plan B: %w", err)
	}
	for i, s := range fresh.RowShard {
		if rp.Plan.RowShard[i] != s {
			return fmt.Errorf("row %d routed to shard %d, fresh plan says %d", i, rp.Plan.RowShard[i], s)
		}
	}
	for s := range fresh.Pairs {
		if !slices.Equal(rp.Plan.Pairs[s], fresh.Pairs[s]) {
			return fmt.Errorf("shard %d: re-planned pairs %v, fresh plan says %v", s, rp.Plan.Pairs[s], fresh.Pairs[s])
		}
	}
	rootsB := rp.Roots
	for i := 0; i < shards; i++ {
		if !rp.Reused[i] {
			// Mixed shard: score only the dirty components' rows and merge
			// with the translated clean clusters — the streaming resolve.
			fresh, _, err := rp.ResolveDirty(r, tabB, i, mustB, cannotB)
			if err != nil {
				return fmt.Errorf("resolve B shard %d: %w", i, err)
			}
			for row, root := range fresh {
				rootsB[i][row] = root
			}
		}
		// Reused or merged, the shard's roots must equal a full scoring run.
		want, _, err := r.ResolveShard(tabB, rp.Plan, i, mustB, cannotB)
		if err != nil {
			return fmt.Errorf("verify shard %d: %w", i, err)
		}
		if len(want) != len(rootsB[i]) {
			return fmt.Errorf("shard %d (reused=%v): %d roots, fresh resolve has %d", i, rp.Reused[i], len(rootsB[i]), len(want))
		}
		for row, root := range want {
			if rootsB[i][row] != root {
				return fmt.Errorf("shard %d (reused=%v): row %d root %d, fresh resolve says %d", i, rp.Reused[i], row, rootsB[i][row], root)
			}
		}
	}
	merged, err := rp.Plan.MergeRoots(rootsB)
	if err != nil {
		return fmt.Errorf("merge B: %w", err)
	}
	seq, _, err := r.ResolveConstrained(tabB, mustB, cannotB)
	if err != nil {
		return fmt.Errorf("sequential B: %w", err)
	}
	if merged.Num != seq.Num {
		return fmt.Errorf("replan: %d clusters, sequential has %d", merged.Num, seq.Num)
	}
	for i, id := range merged.Assign {
		if id != seq.Assign[i] {
			return fmt.Errorf("replan: row %d in cluster %d, sequential says %d", i, id, seq.Assign[i])
		}
	}
	return nil
}

// CheckShardedResolve asserts the core equivalence at the er layer:
// planning the table into shards, resolving every shard independently
// and merging roots yields exactly the clustering one sequential
// ResolveConstrained produces. Returns an error instead of failing so
// the fuzz target can report through t.Fatal with its own input context.
func CheckShardedResolve(tab *dataset.Table, shards int, must, cannot []er.Pair) error {
	r := er.NewResolver("sku", "name", "brand", "price")
	seq, _, err := r.ResolveConstrained(tab, must, cannot)
	if err != nil {
		return fmt.Errorf("sequential resolve: %w", err)
	}
	plan, err := r.PlanShards(tab, shards, must, nil)
	if err != nil {
		return fmt.Errorf("plan shards: %w", err)
	}
	roots := make([]map[int]int, shards)
	for i := 0; i < shards; i++ {
		roots[i], _, err = r.ResolveShard(tab, plan, i, must, cannot)
		if err != nil {
			return fmt.Errorf("resolve shard %d: %w", i, err)
		}
	}
	merged, err := plan.MergeRoots(roots)
	if err != nil {
		return fmt.Errorf("merge roots: %w", err)
	}
	if merged.Num != seq.Num {
		return fmt.Errorf("shards=%d: %d clusters, sequential has %d", shards, merged.Num, seq.Num)
	}
	for i, id := range merged.Assign {
		if id != seq.Assign[i] {
			return fmt.Errorf("shards=%d: row %d in cluster %d, sequential says %d", shards, i, id, seq.Assign[i])
		}
	}
	return nil
}
