package match

import (
	"strings"
	"testing"

	"repro/internal/dataset"
	"repro/internal/ontology"
	"repro/internal/sources"
)

func targetSchema() dataset.Schema {
	return dataset.MustSchema(
		dataset.Field{Name: "sku", Kind: dataset.KindString},
		dataset.Field{Name: "name", Kind: dataset.KindString},
		dataset.Field{Name: "price", Kind: dataset.KindFloat},
		dataset.Field{Name: "brand", Kind: dataset.KindString},
		dataset.Field{Name: "rating", Kind: dataset.KindFloat},
	)
}

func sourceTable() *dataset.Table {
	t := dataset.NewTable(dataset.MustSchema(
		dataset.Field{Name: "item_no", Kind: dataset.KindString},
		dataset.Field{Name: "title", Kind: dataset.KindString},
		dataset.Field{Name: "cost", Kind: dataset.KindFloat},
		dataset.Field{Name: "maker", Kind: dataset.KindString},
	))
	t.AppendValues(dataset.String("SKU-00001"), dataset.String("Anker USB Cable 2m"), dataset.Float(4.99), dataset.String("Anker"))
	t.AppendValues(dataset.String("SKU-00002"), dataset.String("Belkin HDMI Cable"), dataset.Float(7.50), dataset.String("Belkin"))
	t.AppendValues(dataset.String("SKU-00003"), dataset.String("Logi Wireless Mouse"), dataset.Float(12.00), dataset.String("Logi"))
	return t
}

func samples() map[string][]dataset.Value {
	return map[string][]dataset.Value{
		"sku":    {dataset.String("SKU-00001"), dataset.String("SKU-00009")},
		"name":   {dataset.String("Anker USB Cable 2m"), dataset.String("Voltix Kettle")},
		"price":  {dataset.Float(4.99), dataset.Float(89.00), dataset.Float(12.50)},
		"brand":  {dataset.String("Anker"), dataset.String("Voltix")},
		"rating": {dataset.Float(4.5), dataset.Float(2.1), dataset.Float(3.3)},
	}
}

func TestMatchWithAllEvidence(t *testing.T) {
	m := NewMatcher(targetSchema(),
		WithTaxonomy(ontology.ProductTaxonomy()),
		WithSamples(samples()))
	corrs, err := m.Match(sourceTable())
	if err != nil {
		t.Fatal(err)
	}
	gold := map[string]string{"item_no": "sku", "title": "name", "cost": "price", "maker": "brand"}
	p, r, f := F1(corrs, gold)
	if f < 0.99 {
		t.Errorf("all-evidence F1 = %f (p=%f r=%f), want 1.0; corrs=%v", f, p, r, corrs)
	}
}

func TestMatchNameOnlyWeaker(t *testing.T) {
	gold := map[string]string{"item_no": "sku", "title": "name", "cost": "price", "maker": "brand"}
	nameOnly := NewMatcher(targetSchema(), WithEvidence(Evidence{Name: true}))
	all := NewMatcher(targetSchema(),
		WithTaxonomy(ontology.ProductTaxonomy()), WithSamples(samples()))
	cn, err := nameOnly.Match(sourceTable())
	if err != nil {
		t.Fatal(err)
	}
	ca, err := all.Match(sourceTable())
	if err != nil {
		t.Fatal(err)
	}
	_, _, fn := F1(cn, gold)
	_, _, fa := F1(ca, gold)
	if fn > fa {
		t.Errorf("name-only F1 %f should not beat all-evidence %f", fn, fa)
	}
	// These column names share almost no surface text with the targets,
	// so name-only must miss some of them.
	if fn >= 0.99 {
		t.Errorf("name-only unexpectedly perfect (%f) — adversarial headers too easy", fn)
	}
}

func TestMatchOneToOne(t *testing.T) {
	m := NewMatcher(targetSchema(),
		WithTaxonomy(ontology.ProductTaxonomy()), WithSamples(samples()))
	corrs, err := m.Match(sourceTable())
	if err != nil {
		t.Fatal(err)
	}
	seenSrc, seenTgt := map[string]bool{}, map[string]bool{}
	for _, c := range corrs {
		if seenSrc[c.SourceColumn] || seenTgt[c.TargetColumn] {
			t.Fatalf("correspondences not 1:1: %v", corrs)
		}
		seenSrc[c.SourceColumn] = true
		seenTgt[c.TargetColumn] = true
	}
}

func TestMatchEmptySource(t *testing.T) {
	m := NewMatcher(targetSchema())
	empty := dataset.NewTable(dataset.Schema{})
	if _, err := m.Match(empty); err == nil {
		t.Error("empty source should error")
	}
}

func TestThreshold(t *testing.T) {
	m := NewMatcher(targetSchema(), WithEvidence(Evidence{Name: true}))
	corrs, err := m.Match(sourceTable())
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range corrs {
		if c.Confidence < minConfidence {
			t.Errorf("correspondence below threshold: %+v", c)
		}
	}
}

func TestInstanceSimilarityNumericVsText(t *testing.T) {
	prices := []dataset.Value{dataset.Float(4.99), dataset.Float(120), dataset.Float(8)}
	ratings := []dataset.Value{dataset.Float(4.5), dataset.Float(2.0), dataset.Float(3.1)}
	names := []dataset.Value{dataset.String("usb cable"), dataset.String("mouse")}
	if s := instanceSimilarity(prices, prices); s < 0.99 {
		t.Errorf("identical numeric distributions = %f", s)
	}
	pr := instanceSimilarity(prices, ratings)
	pp := instanceSimilarity(prices, prices)
	if pr >= pp {
		t.Errorf("price-vs-rating (%f) should score below price-vs-price (%f)", pr, pp)
	}
	if s := instanceSimilarity(prices, names); s != 0 {
		t.Errorf("numeric vs text = %f, want 0", s)
	}
}

func TestInstanceSimilarityTextOverlap(t *testing.T) {
	a := []dataset.Value{dataset.String("Anker USB Cable"), dataset.String("Belkin HDMI Cable")}
	b := []dataset.Value{dataset.String("anker usb cable"), dataset.String("logi mouse")}
	if s := instanceSimilarity(a, b); s <= 0 {
		t.Errorf("overlapping entity sets should score > 0, got %f", s)
	}
}

func TestOntologyDisagreementPenalty(t *testing.T) {
	m := NewMatcher(targetSchema(), WithTaxonomy(ontology.ProductTaxonomy()),
		WithEvidence(Evidence{Name: true, Ontology: true}))
	// "cost" maps to canonical price; target "brand" maps to brand: a
	// confident disagreement should suppress the pair even if names were
	// somehow similar.
	srcVals := []dataset.Value{dataset.Float(4.99)}
	c := m.score("cost", srcVals, "brand")
	if c.Confidence > 0.4 {
		t.Errorf("disagreeing pair confidence = %f, want low", c.Confidence)
	}
	agree := m.score("cost", srcVals, "price")
	if agree.Confidence < 0.7 {
		t.Errorf("agreeing pair confidence = %f, want high", agree.Confidence)
	}
}

func TestF1(t *testing.T) {
	gold := map[string]string{"a": "x", "b": "y"}
	got := []Correspondence{{SourceColumn: "a", TargetColumn: "x"}, {SourceColumn: "b", TargetColumn: "z"}}
	p, r, f := F1(got, gold)
	if p != 0.5 || r != 0.5 || f != 0.5 {
		t.Errorf("F1 = (%f,%f,%f)", p, r, f)
	}
	p, r, f = F1(nil, gold)
	if p != 0 || r != 0 || f != 0 {
		t.Error("empty predictions should score 0")
	}
}

// Integration: matching real generated sources against the canonical
// schema recovers the generator's header assignments.
func TestMatchGeneratedSources(t *testing.T) {
	w := sources.NewWorld(21, 200, 0)
	cfg := sources.DefaultConfig(21, 8)
	cfg.CSVShare, cfg.JSONShare, cfg.HTMLShare = 1, 0, 0
	cfg.CleanShare = 1
	u := sources.Generate(w, cfg)

	target := targetSchema()
	// Build target samples from the world itself (master data).
	s := map[string][]dataset.Value{}
	for _, p := range u.World.Products[:50] {
		s["sku"] = append(s["sku"], dataset.String(p.SKU))
		s["name"] = append(s["name"], dataset.String(p.Name))
		s["price"] = append(s["price"], dataset.Float(p.Price))
		s["brand"] = append(s["brand"], dataset.String(p.Brand))
		s["rating"] = append(s["rating"], dataset.Float(p.Rating))
	}
	m := NewMatcher(target, WithTaxonomy(ontology.ProductTaxonomy()), WithSamples(s))

	totalGold, correct := 0, 0
	for _, src := range u.Sources {
		tab, err := dataset.ReadCSV(strings.NewReader(src.Payload()))
		if err != nil {
			t.Fatal(err)
		}
		corrs, err := m.Match(tab)
		if err != nil {
			t.Fatal(err)
		}
		// Gold: the generator's canonical->header map inverted, restricted
		// to target columns.
		gold := map[string]string{}
		for _, prop := range src.Props {
			if target.Index(prop) >= 0 {
				gold[src.Header(prop)] = prop
			}
		}
		totalGold += len(gold)
		for _, c := range corrs {
			if gold[c.SourceColumn] == c.TargetColumn {
				correct++
			}
		}
	}
	recall := float64(correct) / float64(totalGold)
	if recall < 0.85 {
		t.Errorf("generated-source matching recall = %f, want >= 0.85", recall)
	}
}
