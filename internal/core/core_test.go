package core

import (
	"strings"
	"testing"

	"repro/internal/context"
	"repro/internal/dataset"
	"repro/internal/feedback"
	"repro/internal/ontology"
	"repro/internal/sources"
)

// buildUniverse creates a moderate product universe with price history.
func buildUniverse(seed int64, nSources int, clean bool) *sources.Universe {
	w := sources.NewWorld(seed, 200, 0)
	for i := 0; i < 30; i++ {
		w.Evolve(0.15)
	}
	cfg := sources.DefaultConfig(seed, nSources)
	if clean {
		cfg.CleanShare = 1
		cfg.StaleMax = 0
	}
	return sources.Generate(w, cfg)
}

// masterData builds the data context's master catalogue from a sample of
// the world (the e-commerce company knows its own products, Example 4).
func masterData(u *sources.Universe, n int) *dataset.Table {
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

func fullDataCtx(u *sources.Universe) *context.DataContext {
	return context.NewDataContext().
		WithMaster(masterData(u, 100), "sku").
		WithTaxonomy(ontology.ProductTaxonomy())
}

func TestRunEndToEndClean(t *testing.T) {
	u := buildUniverse(41, 10, true)
	w := New(u, ProductConfig(), nil, fullDataCtx(u))
	out, err := w.Run()
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() == 0 {
		t.Fatal("no wrangled rows")
	}
	ev := w.EvaluateProducts()
	if ev.EntityPrecision < 0.95 {
		t.Errorf("entity precision = %f on clean universe", ev.EntityPrecision)
	}
	if ev.EntityRecall < 0.3 {
		t.Errorf("entity recall = %f — selection should cover a good slice", ev.EntityRecall)
	}
	if ev.NameAccuracy < 0.9 {
		t.Errorf("name accuracy = %f on clean universe", ev.NameAccuracy)
	}
	if ev.PriceAccuracy < 0.9 {
		t.Errorf("price accuracy = %f on clean universe", ev.PriceAccuracy)
	}
}

func TestRunEndToEndDirty(t *testing.T) {
	u := buildUniverse(42, 12, false)
	w := New(u, ProductConfig(), nil, fullDataCtx(u))
	out, err := w.Run()
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() == 0 {
		t.Fatal("no wrangled rows")
	}
	ev := w.EvaluateProducts()
	// Dirty universes still wrangle usefully: most entities real, names
	// mostly right (fusion outvotes typos).
	if ev.EntityPrecision < 0.8 {
		t.Errorf("entity precision = %f", ev.EntityPrecision)
	}
	if ev.NameAccuracy < 0.7 {
		t.Errorf("name accuracy = %f", ev.NameAccuracy)
	}
	if w.LastStats.RowsExtracted == 0 || w.LastStats.SourcesProcessed == 0 {
		t.Errorf("stats not recorded: %+v", w.LastStats)
	}
}

func TestMaxSourcesRespected(t *testing.T) {
	u := buildUniverse(43, 12, true)
	uc := &context.UserContext{
		Name:       "bounded",
		Weights:    map[context.Criterion]float64{context.Accuracy: 1},
		MaxSources: 3,
	}
	w := New(u, ProductConfig(), uc, fullDataCtx(u))
	if _, err := w.Run(); err != nil {
		t.Fatal(err)
	}
	if got := len(w.SelectedSources()); got != 3 {
		t.Errorf("selected %d sources, want 3", got)
	}
}

func TestUserContextChangesSelection(t *testing.T) {
	u := buildUniverse(44, 14, false)
	dc := fullDataCtx(u)

	accCtx := &context.UserContext{Name: "routine",
		Weights:    map[context.Criterion]float64{context.Accuracy: 0.7, context.Timeliness: 0.3},
		MaxSources: 5}
	covCtx := &context.UserContext{Name: "investigation",
		Weights:    map[context.Criterion]float64{context.Completeness: 0.5, context.Relevance: 0.5},
		MaxSources: 5}

	wa := New(u, ProductConfig(), accCtx, dc)
	if _, err := wa.Run(); err != nil {
		t.Fatal(err)
	}
	wc := New(u, ProductConfig(), covCtx, dc)
	if _, err := wc.Run(); err != nil {
		t.Fatal(err)
	}
	a := wa.SelectedSources()
	c := wc.SelectedSources()
	same := len(a) == len(c)
	if same {
		for i := range a {
			if a[i] != c[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Errorf("different contexts selected identical sources: %v", a)
	}
}

func TestProvenanceRecorded(t *testing.T) {
	u := buildUniverse(45, 6, true)
	w := New(u, ProductConfig(), nil, fullDataCtx(u))
	if _, err := w.Run(); err != nil {
		t.Fatal(err)
	}
	if w.Prov.Len() < 6*3 {
		t.Errorf("provenance too sparse: %d records", w.Prov.Len())
	}
	if src := "(source:" + u.Sources[0].ID; !strings.Contains(w.Prov.Dump(), src) {
		t.Errorf("no artefact is derived from %s", src[1:])
	}
}

func TestReactToValueFeedbackRefusesOnly(t *testing.T) {
	u := buildUniverse(46, 8, false)
	w := New(u, ProductConfig(), nil, fullDataCtx(u))
	if _, err := w.Run(); err != nil {
		t.Fatal(err)
	}
	// Tell the wrangler a source is unreliable.
	bad := w.SelectedSources()[0]
	for i := 0; i < 6; i++ {
		w.Feedback.Add(feedback.Item{Kind: feedback.ValueIncorrect, SourceID: bad, Entity: "SKU-00001", Attribute: "price"})
	}
	stats, err := w.ReactToFeedback()
	if err != nil {
		t.Fatal(err)
	}
	if stats.FeedbackItems != 6 {
		t.Errorf("items = %d", stats.FeedbackItems)
	}
	if stats.SourcesReextracted != 0 {
		t.Error("value feedback must not re-extract")
	}
	if stats.Reclustered {
		t.Error("value feedback must not recluster")
	}
	if !stats.Refused {
		t.Error("value feedback must refuse")
	}
	if trust := w.Trust()[bad]; trust > 0.5 {
		t.Errorf("trust of criticised source = %f, want < 0.5", trust)
	}
}

func TestReactToFeedbackNoItemsNoop(t *testing.T) {
	u := buildUniverse(47, 5, true)
	w := New(u, ProductConfig(), nil, fullDataCtx(u))
	if _, err := w.Run(); err != nil {
		t.Fatal(err)
	}
	stats, err := w.ReactToFeedback()
	if err != nil {
		t.Fatal(err)
	}
	if stats.FeedbackItems != 0 || stats.Refused || stats.Reclustered {
		t.Errorf("noop expected: %+v", stats)
	}
}

func TestReactToWrapperFeedbackReextracts(t *testing.T) {
	u := buildUniverse(48, 8, true)
	w := New(u, ProductConfig(), nil, fullDataCtx(u))
	if _, err := w.Run(); err != nil {
		t.Fatal(err)
	}
	var htmlID string
	for _, s := range u.Sources {
		if s.Kind == sources.KindHTML {
			htmlID = s.ID
			break
		}
	}
	if htmlID == "" {
		t.Skip("no html source")
	}
	w.Feedback.Add(feedback.Item{Kind: feedback.WrapperBroken, SourceID: htmlID})
	stats, err := w.ReactToFeedback()
	if err != nil {
		t.Fatal(err)
	}
	if stats.SourcesReextracted != 1 {
		t.Errorf("re-extracted %d sources, want 1", stats.SourcesReextracted)
	}
	if !stats.Reclustered || !stats.Refused {
		t.Error("wrapper repair must flow downstream")
	}
}

func TestRefreshSourceScopedRecompute(t *testing.T) {
	u := buildUniverse(49, 10, true)
	w := New(u, ProductConfig(), nil, fullDataCtx(u))
	if _, err := w.Run(); err != nil {
		t.Fatal(err)
	}
	w.EvolveWorld(0.4)
	stats, err := w.RefreshSource(u.Sources[0].ID)
	if err != nil {
		t.Fatal(err)
	}
	if stats.SourcesReextracted != 1 || stats.Remapped != 1 {
		t.Errorf("refresh should touch exactly one source: %+v", stats)
	}
	if _, err := w.RefreshSource("ghost"); err == nil {
		t.Error("unknown source should fail")
	}
}

func TestIncrementalCheaperThanFull(t *testing.T) {
	u := buildUniverse(50, 14, true)
	w := New(u, ProductConfig(), nil, fullDataCtx(u))
	if _, err := w.Run(); err != nil {
		t.Fatal(err)
	}
	w.EvolveWorld(0.3)
	inc, err := w.RefreshSource(u.Sources[0].ID)
	if err != nil {
		t.Fatal(err)
	}
	full, err := w.FullRerun()
	if err != nil {
		t.Fatal(err)
	}
	if inc.SourcesReextracted >= full.SourcesReextracted {
		t.Errorf("incremental touched %d sources, full %d", inc.SourcesReextracted, full.SourcesReextracted)
	}
}

func TestPairFeedbackReclusters(t *testing.T) {
	u := buildUniverse(51, 8, false)
	w := New(u, ProductConfig(), nil, fullDataCtx(u))
	if _, err := w.Run(); err != nil {
		t.Fatal(err)
	}
	// Label a handful of pairs using row keys (expert feedback).
	n := 0
	for i := 0; i < 8 && n < 6; i += 2 {
		w.Feedback.Add(feedback.Item{
			Kind:    feedback.DuplicatePair,
			PairKey: feedback.PairKey(w.RowKey(i), w.RowKey(i+1)),
		})
		n++
	}
	stats, err := w.ReactToFeedback()
	if err != nil {
		t.Fatal(err)
	}
	if !stats.Reclustered {
		t.Error("pair feedback should recluster")
	}
}

func TestLocationDomain(t *testing.T) {
	world := sources.NewWorld(52, 0, 150)
	cfg := sources.DefaultConfig(52, 8)
	cfg.Domain = sources.DomainLocations
	cfg.CleanShare = 1
	u := sources.Generate(world, cfg)
	dc := context.NewDataContext().WithTaxonomy(ontology.LocationTaxonomy())
	w := New(u, LocationConfig(), nil, dc)
	out, err := w.Run()
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() == 0 {
		t.Fatal("no wrangled locations")
	}
	ev := w.EvaluateLocations()
	if ev.EntityRecall < 0.3 {
		t.Errorf("location recall = %f", ev.EntityRecall)
	}
	if ev.EntityPrecision < 0.8 {
		t.Errorf("location precision = %f", ev.EntityPrecision)
	}
}

func TestSnapshotReport(t *testing.T) {
	u := buildUniverse(53, 6, true)
	w := New(u, ProductConfig(), nil, fullDataCtx(u))
	if _, err := w.Run(); err != nil {
		t.Fatal(err)
	}
	snap := w.Snapshot()
	if len(snap) == 0 {
		t.Fatal("empty snapshot")
	}
	selected := 0
	for _, rep := range snap {
		if rep.Selected {
			selected++
			if rep.Rows == 0 {
				t.Error("selected source with no rows")
			}
		}
	}
	if selected == 0 {
		t.Error("nothing selected")
	}
}

func TestDefaultContexts(t *testing.T) {
	u := buildUniverse(55, 4, true)
	w := New(u, ProductConfig(), nil, nil)
	if w.UserCtx == nil || w.DataCtx == nil || w.Feedback == nil {
		t.Fatal("defaults not filled")
	}
	if _, err := w.Run(); err != nil {
		t.Fatal(err)
	}
	if w.Wrangled() == nil {
		t.Error("wrangled table missing")
	}
	if len(w.Results()) == 0 {
		t.Error("fusion results missing")
	}
}

func TestKVSourcesWrangled(t *testing.T) {
	w := sources.NewWorld(82, 150, 0)
	cfg := sources.DefaultConfig(82, 6)
	cfg.CSVShare, cfg.JSONShare, cfg.HTMLShare, cfg.KVShare = 0, 0, 0, 1
	cfg.CleanShare = 1
	cfg.StaleMax = 0
	u := sources.Generate(w, cfg)
	for _, s := range u.Sources {
		if s.Kind != sources.KindKV {
			t.Fatalf("source %s kind = %s", s.ID, s.Kind)
		}
	}
	wr := New(u, ProductConfig(), nil, fullDataCtx(u))
	out, err := wr.Run()
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() == 0 {
		t.Fatal("kv sources produced no wrangled rows")
	}
	ev := wr.EvaluateProducts()
	if ev.EntityPrecision < 0.9 || ev.NameAccuracy < 0.9 {
		t.Errorf("kv wrangling quality: precision=%f name=%f", ev.EntityPrecision, ev.NameAccuracy)
	}
}
