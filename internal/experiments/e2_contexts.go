package experiments

import (
	"repro/internal/context"
	"repro/internal/core"
	"repro/internal/ontology"
	"repro/internal/sources"
)

// E2Row is one user context's outcome.
type E2Row struct {
	Context       string
	Sources       int
	Entities      int
	Recall        float64 // completeness axis
	PriceAccuracy float64 // accuracy/timeliness axis
	NameAccuracy  float64
}

// E2UserContexts reproduces Example 2: the same universe wrangled under a
// routine price-comparison context (accuracy & timeliness first, few
// sources) and an issue-investigation context (completeness first, many
// sources) must yield different source selections and different quality
// profiles — compromise is context-relative. A single-criterion ablation
// ("accuracy-only") shows why multi-criteria weighting matters.
func E2UserContexts(seed int64, nSources int) (Table, []E2Row) {
	w := sources.NewWorld(seed, 250, 0)
	for i := 0; i < 30; i++ {
		w.Evolve(0.15)
	}
	cfg := sources.DefaultConfig(seed, nSources)
	cfg.StaleMax = 48 // make timeliness a live axis
	u := sources.Generate(w, cfg)
	dc := context.NewDataContext().
		WithMaster(masterFromWorld(u, 120), "sku").
		WithTaxonomy(ontology.ProductTaxonomy())

	// Routine price comparison: AHP elicitation — accuracy and timeliness
	// dominate, small source budget (§2.1, Example 2).
	ahpRoutine, _ := context.NewAHP(context.Accuracy, context.Timeliness, context.Completeness, context.Relevance)
	ahpRoutine.Set(context.Accuracy, context.Completeness, 5)
	ahpRoutine.Set(context.Accuracy, context.Relevance, 3)
	ahpRoutine.Set(context.Accuracy, context.Timeliness, 1)
	ahpRoutine.Set(context.Timeliness, context.Completeness, 5)
	ahpRoutine.Set(context.Timeliness, context.Relevance, 3)
	ahpRoutine.Set(context.Relevance, context.Completeness, 2)
	routine, err := context.BuildUserContext("routine", ahpRoutine, nSources/3, 0)
	if err != nil {
		panic("experiments: routine AHP inconsistent: " + err.Error())
	}

	// Issue investigation: completeness dominates, take everything.
	ahpInv, _ := context.NewAHP(context.Accuracy, context.Timeliness, context.Completeness, context.Relevance)
	ahpInv.Set(context.Completeness, context.Accuracy, 5)
	ahpInv.Set(context.Completeness, context.Timeliness, 5)
	ahpInv.Set(context.Completeness, context.Relevance, 3)
	ahpInv.Set(context.Relevance, context.Accuracy, 2)
	ahpInv.Set(context.Relevance, context.Timeliness, 2)
	investigation, err := context.BuildUserContext("investigation", ahpInv, 0, 0)
	if err != nil {
		panic("experiments: investigation AHP inconsistent: " + err.Error())
	}

	// Ablation: accuracy-only hard-wired selection.
	accuracyOnly := &context.UserContext{Name: "accuracy-only (ablation)",
		Weights:    map[context.Criterion]float64{context.Accuracy: 1},
		MaxSources: nSources / 3}

	var rows []E2Row
	for _, uc := range []*context.UserContext{routine, investigation, accuracyOnly} {
		wr := core.New(u, core.ProductConfig(), uc, dc)
		if _, err := wr.Run(); err != nil {
			panic("experiments: E2 run: " + err.Error())
		}
		ev := wr.EvaluateProducts()
		rows = append(rows, E2Row{
			Context:       uc.Name,
			Sources:       len(wr.SelectedSources()),
			Entities:      ev.Entities,
			Recall:        ev.EntityRecall,
			PriceAccuracy: ev.PriceAccuracy,
			NameAccuracy:  ev.NameAccuracy,
		})
	}
	t := Table{
		ID:      "E2",
		Title:   "User contexts drive different compromises (Example 2)",
		Claim:   `"routine price comparison may ... prefer accuracy and timeliness to completeness ... issue investigation may require a more complete picture" (§2.1)`,
		Columns: []string{"context", "sources", "entities", "recall", "price acc", "name acc"},
	}
	for _, r := range rows {
		t.AddRow(r.Context, d(r.Sources), d(r.Entities), pct(r.Recall), pct(r.PriceAccuracy), pct(r.NameAccuracy))
	}
	t.Notes = "routine should win price accuracy; investigation should win recall"
	return t, rows
}
