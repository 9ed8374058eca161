package core

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/context"
	"repro/internal/feedback"
	"repro/internal/sources"
)

// Failure injection: the pipeline is best-effort (§2.1) — individual bad
// sources, absurd contexts and malformed feedback must never take down
// the run.

func TestRunEmptyUniverse(t *testing.T) {
	w := sources.NewWorld(71, 50, 0)
	u := sources.Generate(w, sources.DefaultConfig(71, 0))
	wr := New(u, ProductConfig(), nil, nil)
	out, err := wr.Run()
	if err != nil {
		t.Fatalf("empty universe should not fail: %v", err)
	}
	if out.Len() != 0 {
		t.Errorf("rows = %d, want 0", out.Len())
	}
}

func TestRunSkipsUnparseableSource(t *testing.T) {
	u := buildUniverse(72, 5, true)
	// Inject a source of an unknown kind: extraction must fail for it and
	// the pipeline continue with the rest.
	u.Sources = append(u.Sources, &sources.Source{
		ID:   "src-bogus",
		Kind: sources.Kind("parquet"),
	})
	wr := New(u, ProductConfig(), nil, fullDataCtx(u))
	out, err := wr.Run()
	if err != nil {
		t.Fatalf("pipeline should survive a bad source: %v", err)
	}
	if out.Len() == 0 {
		t.Error("good sources should still be wrangled")
	}
	for _, id := range wr.SelectedSources() {
		if id == "src-bogus" {
			t.Error("unparseable source must not be selected")
		}
	}
}

func TestRunSkipsStructurelessHTML(t *testing.T) {
	u := buildUniverse(73, 4, true)
	// An HTML source whose page has no repeated record structure.
	bad := &sources.Source{
		ID:   "src-blog",
		Kind: sources.KindHTML,
		// No Template: Payload would panic, so give it one record and a
		// template, then empty the records to break induction.
	}
	bad.Template = u.Sources[0].Template
	bad.Props = []string{"sku", "name", "price"}
	bad.Headers = map[string]string{}
	u.Sources = append(u.Sources, bad)
	wr := New(u, ProductConfig(), nil, fullDataCtx(u))
	if _, err := wr.Run(); err != nil {
		t.Fatalf("structureless page should be skipped: %v", err)
	}
}

func TestMaxSourcesBeyondAvailable(t *testing.T) {
	u := buildUniverse(74, 3, true)
	uc := &context.UserContext{Name: "greedy",
		Weights:    map[context.Criterion]float64{context.Accuracy: 1},
		MaxSources: 99}
	wr := New(u, ProductConfig(), uc, fullDataCtx(u))
	if _, err := wr.Run(); err != nil {
		t.Fatal(err)
	}
	if got := len(wr.SelectedSources()); got != 3 {
		t.Errorf("selected %d, want all 3", got)
	}
}

func TestFeedbackForUnknownSource(t *testing.T) {
	u := buildUniverse(75, 4, true)
	wr := New(u, ProductConfig(), nil, fullDataCtx(u))
	if _, err := wr.Run(); err != nil {
		t.Fatal(err)
	}
	wr.Feedback.Add(feedback.Item{Kind: feedback.WrapperBroken, SourceID: "ghost"})
	wr.Feedback.Add(feedback.Item{Kind: feedback.ValueIncorrect, SourceID: "ghost", Entity: "x", Attribute: "price"})
	if _, err := wr.ReactToFeedback(); err != nil {
		t.Fatalf("unknown-source feedback should be tolerated: %v", err)
	}
}

func TestPairFeedbackWithDanglingKeys(t *testing.T) {
	u := buildUniverse(76, 4, true)
	wr := New(u, ProductConfig(), nil, fullDataCtx(u))
	if _, err := wr.Run(); err != nil {
		t.Fatal(err)
	}
	wr.Feedback.Add(feedback.Item{Kind: feedback.DuplicatePair, PairKey: feedback.PairKey("ghost#0", "ghost#1")})
	wr.Feedback.Add(feedback.Item{Kind: feedback.DuplicatePair, PairKey: "malformed-key-without-separator"})
	wr.Feedback.Add(feedback.Item{Kind: feedback.NotDuplicatePair, PairKey: feedback.PairKey(wr.RowKey(0), "ghost#9")})
	if _, err := wr.ReactToFeedback(); err != nil {
		t.Fatalf("dangling pair keys should be tolerated: %v", err)
	}
}

func TestSelfConflictingPairFeedback(t *testing.T) {
	u := buildUniverse(77, 5, true)
	wr := New(u, ProductConfig(), nil, fullDataCtx(u))
	if _, err := wr.Run(); err != nil {
		t.Fatal(err)
	}
	k := feedback.PairKey(wr.RowKey(0), wr.RowKey(1))
	// An expert says duplicate AND not-duplicate (e.g. two teammates).
	wr.Feedback.Add(feedback.Item{Kind: feedback.DuplicatePair, PairKey: k})
	wr.Feedback.Add(feedback.Item{Kind: feedback.NotDuplicatePair, PairKey: k})
	if _, err := wr.ReactToFeedback(); err != nil {
		t.Fatalf("contradictory feedback should be tolerated: %v", err)
	}
	// The tie is undecided; neither constraint should apply.
	must, cannot := wr.PairConstraints()
	for _, p := range append(must, cannot...) {
		if wr.RowKey(p.I) == wr.RowKey(0) && wr.RowKey(p.J) == wr.RowKey(1) {
			t.Error("tied pair must not become a constraint")
		}
	}
}

// TestLabeledPairsInKeyOrder: labels added in any order reach Learn and
// the constraints in pair-key order, each resolved to its union rows with
// the smaller row first, and only decided labels over two rows the union
// holds survive.
func TestLabeledPairsInKeyOrder(t *testing.T) {
	u := buildUniverse(79, 5, true)
	wr := New(u, ProductConfig(), nil, fullDataCtx(u))
	if _, err := wr.Run(); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(79))
	n := wr.Union().Len()
	for k := 0; k < 40; k++ {
		a, b := rng.Intn(n), rng.Intn(n)
		kind := feedback.DuplicatePair
		if rng.Intn(2) == 0 {
			kind = feedback.NotDuplicatePair
		}
		wr.Feedback.Add(feedback.Item{Kind: kind, PairKey: feedback.PairKey(wr.RowKey(a), wr.RowKey(b)), Weight: rng.Float64()})
	}
	wr.Feedback.Add(feedback.Item{Kind: feedback.DuplicatePair, PairKey: feedback.PairKey("ghost#0", wr.RowKey(0))})
	labels := wr.labeledPairs(wr.tail)
	if len(labels) < 20 {
		t.Fatalf("only %d labels resolved", len(labels))
	}
	var keys []string
	for _, l := range labels {
		if l.Pair.I >= l.Pair.J {
			t.Fatalf("pair %v is not ordered I < J", l.Pair)
		}
		keys = append(keys, feedback.PairKey(wr.RowKey(l.Pair.I), wr.RowKey(l.Pair.J)))
	}
	if !slices.IsSorted(keys) {
		t.Errorf("labels out of key order: %v", keys)
	}
	if len(slices.Compact(slices.Clone(keys))) != len(keys) {
		t.Errorf("a pair key resolved twice: %v", keys)
	}
}

func TestRefreshCSVSource(t *testing.T) {
	u := buildUniverse(78, 6, true)
	var csvID string
	for _, s := range u.Sources {
		if s.Kind == sources.KindCSV {
			csvID = s.ID
			break
		}
	}
	if csvID == "" {
		t.Skip("no csv source")
	}
	wr := New(u, ProductConfig(), nil, fullDataCtx(u))
	if _, err := wr.Run(); err != nil {
		t.Fatal(err)
	}
	wr.EvolveWorld(0.5)
	if _, err := wr.RefreshSource(csvID); err != nil {
		t.Fatalf("csv refresh failed: %v", err)
	}
}

func TestZeroWeightContext(t *testing.T) {
	u := buildUniverse(79, 4, true)
	uc := &context.UserContext{Name: "apathy", Weights: map[context.Criterion]float64{}}
	wr := New(u, ProductConfig(), uc, fullDataCtx(u))
	out, err := wr.Run()
	if err != nil {
		t.Fatalf("zero-weight context should still run: %v", err)
	}
	if out.Len() == 0 {
		t.Error("no output under zero-weight context")
	}
}

func TestFeedbackBudgetEnforced(t *testing.T) {
	u := buildUniverse(83, 3, true)
	uc := &context.UserContext{Name: "thrifty",
		Weights:        map[context.Criterion]float64{context.Accuracy: 1},
		FeedbackBudget: 1.0}
	wr := New(u, ProductConfig(), uc, fullDataCtx(u))
	if _, err := wr.Run(); err != nil {
		t.Fatal(err)
	}
	added := 0
	for i := 0; i < 10; i++ {
		if wr.AddFeedback(feedback.Item{Kind: feedback.ValueCorrect, SourceID: "src-000", Cost: 0.4}) {
			added++
		}
	}
	if added != 2 {
		t.Errorf("budget 1.0 at 0.4/item should admit 2, admitted %d", added)
	}
	if rem := wr.BudgetRemaining(); rem < 0.19 || rem > 0.21 {
		t.Errorf("remaining = %f, want 0.2", rem)
	}
	// Unbounded context.
	wr2 := New(u, ProductConfig(), nil, nil)
	if wr2.BudgetRemaining() != -1 {
		t.Error("unbounded budget should report -1")
	}
	if !wr2.AddFeedback(feedback.Item{Kind: feedback.ValueCorrect, SourceID: "x", Cost: 999}) {
		t.Error("unbounded context should accept any cost")
	}
}
