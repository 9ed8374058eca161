package experiments

import (
	"repro/internal/context"
	"repro/internal/core"
	"repro/internal/er"
	"repro/internal/feedback"
	"repro/internal/ontology"
	"repro/internal/sources"
	"sort"
)

// E5Row is one feedback batch's outcome.
type E5Row struct {
	Batch          int
	CumulativeFB   int
	CumulativeCost float64
	ERF1           float64
	PriceAccuracy  float64
	TouchedSources int // sources re-extracted by the reaction (should be 0)
}

// E5PayAsYouGo reproduces Example 5 / §2.4: crowd-labelled duplicate pairs
// and expert value annotations arrive in batches; each batch improves
// entity resolution and fusion, the reaction never re-extracts untouched
// sources, and every unit of payment is accounted. Ground truth for the
// crowd comes from the generator's record annotations.
func E5PayAsYouGo(seed int64, nSources, batches, pairsPerBatch int) (Table, []E5Row) {
	w := sources.NewWorld(seed, 200, 0)
	for i := 0; i < 20; i++ {
		w.Evolve(0.15)
	}
	cfg := sources.DefaultConfig(seed, nSources)
	cfg.DirtyFactor = 2.5
	cfg.CleanShare = 0
	// Harder veracity than default: many null keys and typos leave the
	// cold-start entity resolver imperfect, so feedback has headroom.
	cfg.Errors.Null = 0.12
	cfg.Errors.Typo = 0.12
	cfg.Errors.Wrong = 0.08
	cfg.Errors.Stale = 0.20
	u := sources.Generate(w, cfg)
	dc := context.NewDataContext().
		WithMaster(masterFromWorld(u, 80), "sku").
		WithTaxonomy(ontology.ProductTaxonomy())
	// Timeliness-weighted context: prices are transient, so the
	// orchestrator self-configures freshness-aware fusion.
	uc := &context.UserContext{Name: "pricewatch", Weights: map[context.Criterion]float64{
		context.Accuracy: 0.35, context.Timeliness: 0.35,
		context.Completeness: 0.15, context.Relevance: 0.15,
	}}
	wr := core.New(u, core.ProductConfig(), uc, dc)
	if _, err := wr.Run(); err != nil {
		panic("experiments: E5 run: " + err.Error())
	}
	crowd := feedback.NewCrowd(seed, 12, 0.8, 0.95, 0.05)

	truthOf := func(i int) string {
		src := u.Source(wr.UnionSourceOf(i))
		idx := wr.UnionRowInSource(i)
		if src == nil || idx >= len(src.Records) {
			return ""
		}
		return src.Records[idx].TrueID
	}
	erF1 := func() float64 {
		union := wr.Union()
		truth := make([]string, union.Len())
		for i := range truth {
			truth[i] = truthOf(i)
		}
		_, _, f1 := er.PairwiseMetrics(wr.Clusters(), truth)
		return f1
	}

	var rows []E5Row
	record := func(batch, touched int) {
		ev := wr.EvaluateProducts()
		rows = append(rows, E5Row{
			Batch:          batch,
			CumulativeFB:   wr.Feedback.Len(),
			CumulativeCost: wr.Feedback.Spent(),
			ERF1:           erF1(),
			PriceAccuracy:  ev.PriceAccuracy,
			TouchedSources: touched,
		})
	}
	record(0, 0)

	labelled := map[string]bool{}
	for b := 1; b <= batches; b++ {
		// Crowd batch: uncertainty sampling — label the candidate pairs
		// whose match score sits closest to the decision boundary (the
		// informative pairs, as in Corleone's active learning), plus the
		// highest-scoring pairs so both classes appear.
		resolver := wr.Resolver()
		union := wr.Union()
		pairs := resolver.CandidatePairs(union)
		var cands []boundaryPair
		for _, p := range pairs {
			s := resolver.Score(resolver.Features(union, p.I, p.J))
			d := s - resolver.Threshold
			if d < 0 {
				d = -d
			}
			cands = append(cands, boundaryPair{p: p, dist: d})
		}
		sort.Slice(cands, func(i, j int) bool {
			if cands[i].dist != cands[j].dist {
				return cands[i].dist < cands[j].dist
			}
			if cands[i].p.I != cands[j].p.I {
				return cands[i].p.I < cands[j].p.I
			}
			return cands[i].p.J < cands[j].p.J
		})
		truths := map[string]bool{}
		for _, c := range cands {
			if len(truths) >= pairsPerBatch {
				break
			}
			ti, tj := truthOf(c.p.I), truthOf(c.p.J)
			if ti == "" && tj == "" {
				continue
			}
			key := feedback.PairKey(wr.RowKey(c.p.I), wr.RowKey(c.p.J))
			if labelled[key] {
				continue
			}
			labelled[key] = true
			truths[key] = ti == tj && ti != ""
		}
		crowd.LabelPairs(wr.Feedback, truths, 5)

		// Expert batch: annotate a few fused prices against the company's
		// own checks (value feedback shared into source trust).
		added := 0
		for _, res := range wr.Results() {
			if added >= 5 || res.Attribute != "price" {
				continue
			}
			p := u.World.Product(res.Entity)
			if p == nil {
				continue
			}
			truePrice, _ := u.World.PriceAt(p.SKU, u.World.Clock)
			if !res.Value.IsNumeric() || truePrice <= 0 {
				continue
			}
			rel := res.Value.FloatVal()/truePrice - 1
			if rel < 0 {
				rel = -rel
			}
			// Experts only annotate unambiguous values: clearly right
			// (<=1% off) or clearly wrong (>10% off, i.e. unit drift or
			// fabrication, not mere staleness).
			var kind feedback.Kind
			switch {
			case rel <= 0.01:
				kind = feedback.ValueCorrect
			case rel > 0.10:
				kind = feedback.ValueIncorrect
			default:
				continue
			}
			// One annotation blames/credits every source that supported
			// the fused value (shared assimilation: the working data knows
			// who asserted it). The cost is charged once.
			cost := 0.5
			for _, src := range wr.ClaimSupporters(res.Entity, "price") {
				wr.Feedback.Add(feedback.Item{Kind: kind, SourceID: src, Entity: res.Entity, Attribute: "price", Cost: cost})
				cost = 0
			}
			added++
		}
		stats, err := wr.ReactToFeedback()
		if err != nil {
			panic("experiments: E5 react: " + err.Error())
		}
		record(b, stats.SourcesReextracted)
	}
	t := Table{
		ID:      "E5",
		Title:   "Pay-as-you-go feedback batches (Example 5)",
		Claim:   `"feedback can trigger the system to revise ... limiting the processing to the strictly necessary data" (§2.4)`,
		Columns: []string{"batch", "feedback", "cost", "ER F1", "price acc", "re-extracted"},
	}
	for _, r := range rows {
		t.AddRow(d(r.Batch), d(r.CumulativeFB), f2(r.CumulativeCost), f3(r.ERF1), pct(r.PriceAccuracy), d(r.TouchedSources))
	}
	t.Notes = "ER F1 rises as labels arrive (constraints + rule refinement); price accuracy holds at the staleness ceiling; re-extracted stays 0 — reactions never reprocess untouched sources"
	return t, rows
}

// boundaryPair is an uncertainty-sampling candidate: a pair and its
// distance from the resolver's decision boundary.
type boundaryPair struct {
	p    er.Pair
	dist float64
}
