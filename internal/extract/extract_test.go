package extract

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/dataset"
	"repro/internal/html"
	"repro/internal/ontology"
	"repro/internal/sources"
)

// universe builds a small HTML-only product universe for extraction tests.
func universe(t *testing.T, seed int64, n int) *sources.Universe {
	t.Helper()
	w := sources.NewWorld(seed, 150, 0)
	cfg := sources.DefaultConfig(seed, n)
	cfg.CSVShare, cfg.JSONShare, cfg.HTMLShare = 0, 0, 1
	cfg.CleanShare = 1 // keep veracity out of structural tests
	cfg.StaleMax = 0
	return sources.Generate(w, cfg)
}

func TestInduceFindsAllRecords(t *testing.T) {
	u := universe(t, 11, 6)
	tax := ontology.ProductTaxonomy()
	for _, s := range u.Sources {
		page := html.Parse(s.Payload())
		w, err := Induce(s.ID, page, tax)
		if err != nil {
			t.Fatalf("induce %s (%s): %v", s.ID, s.Template.Family, err)
		}
		table, err := w.Run(page)
		if err != nil {
			t.Fatalf("run %s: %v", s.ID, err)
		}
		if table.Len() != len(s.Records) {
			t.Errorf("%s (%s family): extracted %d rows, want %d",
				s.ID, s.Template.Family, table.Len(), len(s.Records))
		}
		if w.Confidence < 0.5 {
			t.Errorf("%s: confidence %f too low for uniform template", s.ID, w.Confidence)
		}
	}
}

func TestInduceLabelsCanonicalProperties(t *testing.T) {
	u := universe(t, 12, 8)
	tax := ontology.ProductTaxonomy()
	labelled, total := 0, 0
	for _, s := range u.Sources {
		page := html.Parse(s.Payload())
		w, err := Induce(s.ID, page, tax)
		if err != nil {
			t.Fatalf("induce: %v", err)
		}
		table, err := w.Run(page)
		if err != nil {
			t.Fatal(err)
		}
		for _, want := range []string{"sku", "name", "price"} {
			total++
			if table.Schema().Index(want) >= 0 {
				labelled++
			}
		}
	}
	// Card/list families expose headers; table family relies on shape
	// heuristics. Expect the majority labelled.
	if float64(labelled) < 0.6*float64(total) {
		t.Errorf("only %d/%d mandatory fields labelled", labelled, total)
	}
}

func TestInduceExtractsCorrectValues(t *testing.T) {
	u := universe(t, 13, 4)
	tax := ontology.ProductTaxonomy()
	s := u.Sources[0]
	page := html.Parse(s.Payload())
	w, err := Induce(s.ID, page, tax)
	if err != nil {
		t.Fatal(err)
	}
	table, err := w.Run(page)
	if err != nil {
		t.Fatal(err)
	}
	nameCol := table.Schema().Index("name")
	if nameCol < 0 {
		t.Skip("name column not labelled on this template")
	}
	got := map[string]bool{}
	for _, r := range table.Rows() {
		got[r[nameCol].String()] = true
	}
	misses := 0
	for _, rec := range s.Records {
		if !got[rec.Values["name"]] {
			misses++
		}
	}
	if misses > 0 {
		t.Errorf("%d/%d names not extracted verbatim", misses, len(s.Records))
	}
}

func TestInduceNoRecords(t *testing.T) {
	page := html.Parse("<html><body><p>just an article, no listings</p></body></html>")
	if _, err := Induce("s", page, nil); err == nil {
		t.Error("pages without repeated structure should fail induction")
	}
}

func TestInduceWithoutTaxonomyStillWorks(t *testing.T) {
	u := universe(t, 14, 3)
	s := u.Sources[0]
	page := html.Parse(s.Payload())
	w, err := Induce(s.ID, page, nil)
	if err != nil {
		t.Fatal(err)
	}
	table, err := w.Run(page)
	if err != nil || table.Len() != len(s.Records) {
		t.Fatalf("no-context induction should still extract rows: %v", err)
	}
}

func TestValidate(t *testing.T) {
	u := universe(t, 15, 3)
	s := u.Sources[0]
	page := html.Parse(s.Payload())
	w, err := Induce(s.ID, page, nil)
	if err != nil {
		t.Fatal(err)
	}
	if v := Validate(w, page); v < 0.8 {
		t.Errorf("validate on clean source = %f, want >=0.8", v)
	}
	if v := Validate(w, html.Parse("<html><body></body></html>")); v != 0 {
		t.Errorf("validate on empty page = %f, want 0", v)
	}
}

func TestRepairAfterTemplateDrift(t *testing.T) {
	u := universe(t, 16, 4)
	tax := ontology.ProductTaxonomy()
	s := u.Sources[0]
	page := html.Parse(s.Payload())
	w, err := Induce(s.ID, page, tax)
	if err != nil {
		t.Fatal(err)
	}
	// Site redesign.
	rng := rand.New(rand.NewSource(99))
	s.Template.Drift(rng)
	newPage := html.Parse(s.Payload())
	if v := Validate(w, newPage); v > 0.5 {
		t.Skipf("drift did not break this wrapper (validate=%f)", v)
	}
	w2, table, rep, err := Repair(w, newPage, nil, tax)
	if err != nil {
		t.Fatalf("repair failed: %v", err)
	}
	if !rep.Reinduced {
		t.Error("repair should have re-induced")
	}
	if table.Len() != len(s.Records) {
		t.Errorf("repaired extraction has %d rows, want %d", table.Len(), len(s.Records))
	}
	if w2.RecordSelector == w.RecordSelector && w2.Confidence == w.Confidence {
		t.Error("repair should produce a new wrapper")
	}
}

func TestRepairRelabelsWithMasterData(t *testing.T) {
	u := universe(t, 17, 6)
	// Build master data from the world.
	world := u.World
	var skus, names []string
	var prices []float64
	for _, p := range world.Products {
		skus = append(skus, p.SKU)
		names = append(names, p.Name)
		prices = append(prices, p.Price)
	}
	master := masterTable(skus, names, prices)

	// Induce WITHOUT taxonomy: the table-family sources lack inline
	// headers, so several fields stay unlabelled or shape-guessed.
	var s *sources.Source
	for _, cand := range u.Sources {
		if cand.Template.Family == "table" {
			s = cand
			break
		}
	}
	if s == nil {
		t.Skip("no table-family source in this universe")
	}
	page := html.Parse(s.Payload())
	w, err := Induce(s.ID, page, nil)
	if err != nil {
		t.Fatal(err)
	}
	_, table, rep, err := Repair(w, page, master, nil)
	if err != nil {
		t.Fatal(err)
	}
	// After corroboration the canonical columns must exist.
	for _, want := range []string{"sku", "name", "price"} {
		if table.Schema().Index(want) < 0 {
			t.Errorf("column %s not recovered via master data (relabelled=%d, schema=%v)",
				want, rep.Relabelled, table.Schema().Names())
		}
	}
}

func TestRepairFixesUnitDrift(t *testing.T) {
	// Build a master and a table whose price column is in cents.
	master := masterTable(
		[]string{"A", "B", "C", "D"},
		[]string{"a", "b", "c", "d"},
		[]float64{4.99, 7.50, 12.00, 3.25},
	)
	table := dataset.NewTable(dataset.MustSchema(
		dataset.Field{Name: "sku", Kind: dataset.KindString},
		dataset.Field{Name: "price", Kind: dataset.KindFloat},
	))
	for i, sku := range []string{"A", "B", "C", "D"} {
		table.AppendValues(dataset.String(sku), dataset.Float([]float64{499, 750, 1200, 325}[i]))
	}
	fixes, checked := RepairUnits(table, master)
	if fixes != 4 {
		t.Fatalf("fixes = %d, want 4 (checked %d)", fixes, checked)
	}
	if got := table.Get(0, "price").FloatVal(); got != 4.99 {
		t.Errorf("price after repair = %f, want 4.99", got)
	}
}

func TestRepairLeavesCorrectUnitsAlone(t *testing.T) {
	master := masterTable([]string{"A", "B", "C"}, nil, []float64{4.99, 7.50, 12.00})
	table := dataset.NewTable(dataset.MustSchema(
		dataset.Field{Name: "sku", Kind: dataset.KindString},
		dataset.Field{Name: "price", Kind: dataset.KindFloat},
	))
	for i, sku := range []string{"A", "B", "C"} {
		table.AppendValues(dataset.String(sku), dataset.Float([]float64{4.99, 7.50, 12.00}[i]))
	}
	fixes, _ := RepairUnits(table, master)
	if fixes != 0 {
		t.Errorf("correct units should not be fixed, got %d", fixes)
	}
}

func TestShapeLabel(t *testing.T) {
	cases := []struct {
		vals []string
		want string
	}{
		{[]string{"SKU-00001", "SKU-00392", "SKU-11111"}, "sku"},
		{[]string{"4.99", "120.00", "7.35"}, "price"},
		{[]string{"4.5", "2.1", "3.9"}, "rating"},
		{[]string{"https://a.example/x", "https://b.example/y"}, "url"},
		{[]string{"2016-03-15T00:00:00Z", "2016-03-14T10:00:00Z"}, "updated"},
		{[]string{"Anker Premium USB Cable", "Belkin Slim Mouse"}, "name"},
		{nil, ""},
	}
	for _, c := range cases {
		if got := shapeLabel(c.vals); got != c.want {
			t.Errorf("shapeLabel(%v) = %q, want %q", c.vals, got, c.want)
		}
	}
}

func TestUnlabelledFields(t *testing.T) {
	w := &Wrapper{Fields: []FieldRule{{Property: "sku"}, {Property: ""}, {Property: "price"}, {Property: ""}}}
	ul := w.UnlabelledFields()
	if len(ul) != 2 || ul[0] != 1 || ul[1] != 3 {
		t.Errorf("UnlabelledFields = %v", ul)
	}
}

// masterTable builds the master table used for corroboration out of
// canonical (sku, name, price) triples.
func masterTable(skus, names []string, prices []float64) *dataset.Table {
	t := dataset.NewTable(dataset.MustSchema(
		dataset.Field{Name: "sku", Kind: dataset.KindString},
		dataset.Field{Name: "name", Kind: dataset.KindString},
		dataset.Field{Name: "price", Kind: dataset.KindFloat},
	))
	for i := range skus {
		name, price := "", 0.0
		if i < len(names) {
			name = names[i]
		}
		if i < len(prices) {
			price = prices[i]
		}
		t.AppendValues(dataset.String(skus[i]), dataset.String(name), dataset.Float(price))
	}
	return t
}

func TestColumnAgreement(t *testing.T) {
	columnAgreement := func(col, master []dataset.Value) float64 {
		return newMasterColumn(master).agreement(col)
	}
	a := []dataset.Value{dataset.String("USB Cable"), dataset.String("HDMI Cable")}
	m := []dataset.Value{dataset.String("usb cable"), dataset.String("hdmi cable"), dataset.String("mouse")}
	if s := columnAgreement(a, m); s != 1 {
		t.Errorf("normalised text agreement = %f, want 1", s)
	}
	nums := []dataset.Value{dataset.Float(499), dataset.Float(750)}
	mnums := []dataset.Value{dataset.Float(4.99), dataset.Float(7.50)}
	if s := columnAgreement(nums, mnums); s != 1 {
		t.Errorf("unit-drift numeric agreement = %f, want 1", s)
	}
	if s := columnAgreement(nil, mnums); s != 0 {
		t.Error("empty column should score 0")
	}
}

func TestRepairIdempotentOnHealthyWrapper(t *testing.T) {
	u := universe(t, 18, 3)
	tax := ontology.ProductTaxonomy()
	s := u.Sources[0]
	page := html.Parse(s.Payload())
	w, err := Induce(s.ID, page, tax)
	if err != nil {
		t.Fatal(err)
	}
	_, _, rep, err := Repair(w, page, nil, tax)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Reinduced {
		t.Error("healthy wrapper should not be re-induced")
	}
}

func TestExtractionHandlesDirtyValues(t *testing.T) {
	// Dirty universe: nulls and typos must not break structure.
	w := sources.NewWorld(19, 150, 0)
	cfg := sources.DefaultConfig(19, 4)
	cfg.CSVShare, cfg.JSONShare, cfg.HTMLShare = 0, 0, 1
	cfg.CleanShare = 0
	cfg.DirtyFactor = 3
	u := sources.Generate(w, cfg)
	tax := ontology.ProductTaxonomy()
	for _, s := range u.Sources {
		page := html.Parse(s.Payload())
		wr, err := Induce(s.ID, page, tax)
		if err != nil {
			t.Fatalf("induce dirty %s: %v", s.ID, err)
		}
		table, err := wr.Run(page)
		if err != nil {
			t.Fatal(err)
		}
		if table.Len() < len(s.Records)*9/10 {
			t.Errorf("%s: extracted %d rows of %d", s.ID, table.Len(), len(s.Records))
		}
	}
}

func TestWrapperRunOnWrongPage(t *testing.T) {
	u := universe(t, 20, 2)
	s := u.Sources[0]
	page := html.Parse(s.Payload())
	w, err := Induce(s.ID, page, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Run(html.Parse("<html><body><p>x</p></body></html>")); err == nil {
		t.Error("running on a page without records should error")
	}
	w.RecordSelector = "!!!"
	if _, err := w.Run(page); err == nil {
		t.Error("bad selector should error")
	}
}

func TestLooksLikeHelpers(t *testing.T) {
	if !looksLikeCode("SKU-00001") || looksLikeCode("usb cable") {
		t.Error("looksLikeCode wrong")
	}
	if !looksLikeMoney("$4.99") || !looksLikeMoney("1,299.00") || looksLikeMoney("4.9.9") || looksLikeMoney("abc") {
		t.Error("looksLikeMoney wrong")
	}
	if !looksLikeDate("2016-03-15") || looksLikeDate("15/03/2016") {
		t.Error("looksLikeDate wrong")
	}
	if !strings.HasPrefix("https://x", "http") {
		t.Error("sanity")
	}
}
