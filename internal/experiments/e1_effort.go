package experiments

import (
	"fmt"
	"math/rand"

	"repro/internal/context"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/etl"
	"repro/internal/feedback"
	"repro/internal/ontology"
	"repro/internal/sources"
)

// E1 cost model: minutes a data scientist spends per action. ETL-side
// constants live in the etl package; the wrangler charges only feedback.
const (
	e1FeedbackMinutes = 0.5   // one annotation: glance + click
	e1AnalysisMinutes = 960.0 // the value-added analysis both teams do
)

// E1Result carries the effort comparison for one pipeline.
type E1Result struct {
	Label          string
	WranglingMin   float64
	AnalysisMin    float64
	WranglingShare float64
}

// E1ManualVsAutomated reproduces the §1 claim that manual wrangling eats
// 50-80% of a data scientist's time, and measures what the automated,
// pay-as-you-go architecture leaves. Workload: nSources product sources,
// 4 churn rounds in which a fraction of HTML templates drift and schemas
// rename (each drift costs the ETL analyst a manual repair; the wrangler
// reacts autonomously), plus a fixed feedback budget on the wrangler side.
func E1ManualVsAutomated(seed int64, nSources int) (Table, []E1Result) {
	w := sources.NewWorld(seed, 250, 0)
	for i := 0; i < 20; i++ {
		w.Evolve(0.1)
	}
	cfg := sources.DefaultConfig(seed, nSources)
	u := sources.Generate(w, cfg)

	target := core.ProductConfig().Target

	// --- Classical ETL: specify everything by hand. ---
	wf := etl.NewWorkflow(dataset.MustSchema(target...))
	for _, s := range u.Sources {
		wf.SpecifySource(s.ID, etl.AutoSpec(s, target))
	}
	wf.Run(u)
	// Churn rounds: drift breaks manual wrappers; analyst repairs each.
	rng := rand.New(rand.NewSource(seed * 7))
	for round := 0; round < 4; round++ {
		w.Evolve(0.2)
		for _, s := range u.Sources {
			if s.Kind == sources.KindHTML && rng.Float64() < 0.3 {
				s.Template.Drift(rng)
				wf.RepairSource(s.ID, etl.AutoSpec(s, target))
			}
		}
		wf.Run(u)
	}

	// --- Automated wrangler: same universe, feedback-only payment. ---
	master := masterFromWorld(u, 100)
	dc := context.NewDataContext().WithMaster(master, "sku").WithTaxonomy(ontology.ProductTaxonomy())
	wr := core.New(u, core.ProductConfig(), nil, dc)
	wr.Run()
	// The user pays a modest feedback budget: 40 annotations.
	fb := 0
	for i, s := range u.Sources {
		if fb >= 40 {
			break
		}
		kind := feedback.ValueCorrect
		if i%5 == 0 {
			kind = feedback.ValueIncorrect
		}
		wr.Feedback.Add(feedback.Item{Kind: kind, SourceID: s.ID, Entity: "SKU-00001", Attribute: "price", Cost: e1FeedbackMinutes})
		fb++
	}
	wr.ReactToFeedback()

	etlMin := wf.Effort.AnalystMinutes
	autoMin := wr.Feedback.Spent()
	results := []E1Result{
		{Label: "manual ETL", WranglingMin: etlMin, AnalysisMin: e1AnalysisMinutes,
			WranglingShare: etlMin / (etlMin + e1AnalysisMinutes)},
		{Label: "automated wrangler", WranglingMin: autoMin, AnalysisMin: e1AnalysisMinutes,
			WranglingShare: autoMin / (autoMin + e1AnalysisMinutes)},
	}

	t := Table{
		ID:      "E1",
		Title:   fmt.Sprintf("Wrangling effort share, %d sources, 4 churn rounds", nSources),
		Claim:   `"data scientists spend from 50 percent to 80 percent of their time collecting and preparing unruly digital data" (§1)`,
		Columns: []string{"pipeline", "wrangling (min)", "analysis (min)", "wrangling share"},
		Notes: fmt.Sprintf("ETL charged %d wrapper specs, %d repairs, %d runs; wrangler charged %d feedback items only",
			wf.Effort.WrapperSpecs, wf.Effort.RepairActions, wf.Effort.FullRuns, fb),
	}
	for _, r := range results {
		t.AddRow(r.Label, f2(r.WranglingMin), f2(r.AnalysisMin), pct(r.WranglingShare))
	}
	return t, results
}

// masterFromWorld builds master data from the first n world products.
func masterFromWorld(u *sources.Universe, n int) *dataset.Table {
	t := dataset.NewTable(dataset.MustSchema(
		dataset.Field{Name: "sku", Kind: dataset.KindString},
		dataset.Field{Name: "name", Kind: dataset.KindString},
		dataset.Field{Name: "brand", Kind: dataset.KindString},
		dataset.Field{Name: "price", Kind: dataset.KindFloat},
	))
	for i, p := range u.World.Products {
		if i >= n {
			break
		}
		price, _ := u.World.PriceAt(p.SKU, u.World.Clock)
		t.AppendValues(dataset.String(p.SKU), dataset.String(p.Name), dataset.String(p.Brand), dataset.Float(price))
	}
	return t
}
