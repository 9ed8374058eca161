package experiments

import (
	"strings"

	"repro/internal/dataset"
	"repro/internal/match"
	"repro/internal/ontology"
	"repro/internal/sources"
)

// E4Row is one evidence configuration's matching quality.
type E4Row struct {
	Evidence  string
	Precision float64
	Recall    float64
	F1        float64
}

// E4EvidenceTypes reproduces §2.3/Example 4: schema matching improves as
// evidence types are added — name similarity alone, plus instance samples
// from master data, plus the product ontology, plus all three. The
// generator's header table provides gold correspondences.
func E4EvidenceTypes(seed int64, nSources int) (Table, []E4Row) {
	w := sources.NewWorld(seed, 250, 0)
	cfg := sources.DefaultConfig(seed, nSources)
	cfg.CSVShare, cfg.JSONShare, cfg.HTMLShare = 1, 0, 0
	cfg.CleanShare = 1
	u := sources.Generate(w, cfg)

	target := dataset.MustSchema(
		dataset.Field{Name: "sku", Kind: dataset.KindString},
		dataset.Field{Name: "name", Kind: dataset.KindString},
		dataset.Field{Name: "brand", Kind: dataset.KindString},
		dataset.Field{Name: "price", Kind: dataset.KindFloat},
		dataset.Field{Name: "rating", Kind: dataset.KindFloat},
		dataset.Field{Name: "updated", Kind: dataset.KindTime},
	)
	samples := map[string][]dataset.Value{}
	for i, p := range u.World.Products {
		if i >= 80 {
			break
		}
		samples["sku"] = append(samples["sku"], dataset.String(p.SKU))
		samples["name"] = append(samples["name"], dataset.String(p.Name))
		samples["brand"] = append(samples["brand"], dataset.String(p.Brand))
		samples["price"] = append(samples["price"], dataset.Float(p.Price))
		samples["rating"] = append(samples["rating"], dataset.Float(p.Rating))
	}
	tax := ontology.ProductTaxonomy()

	configs := []struct {
		name string
		opts []match.Option
	}{
		{"name only", []match.Option{match.WithEvidence(match.Evidence{Name: true})}},
		{"name + instance", []match.Option{
			match.WithEvidence(match.Evidence{Name: true, Instance: true}),
			match.WithSamples(samples)}},
		{"name + ontology", []match.Option{
			match.WithEvidence(match.Evidence{Name: true, Ontology: true}),
			match.WithTaxonomy(tax)}},
		{"all evidence", []match.Option{
			match.WithEvidence(match.AllEvidence()),
			match.WithSamples(samples), match.WithTaxonomy(tax)}},
	}
	var rows []E4Row
	for _, c := range configs {
		m := match.NewMatcher(target, c.opts...)
		var sumP, sumR, sumF float64
		n := 0
		for _, s := range u.Sources {
			tab, err := dataset.ReadCSV(strings.NewReader(s.Payload()))
			if err != nil {
				continue
			}
			corrs, err := m.Match(tab)
			if err != nil {
				continue
			}
			gold := map[string]string{}
			for _, prop := range s.Props {
				if target.Index(prop) >= 0 {
					gold[s.Header(prop)] = prop
				}
			}
			p, r, f := match.F1(corrs, gold)
			sumP += p
			sumR += r
			sumF += f
			n++
		}
		if n > 0 {
			rows = append(rows, E4Row{Evidence: c.name, Precision: sumP / float64(n), Recall: sumR / float64(n), F1: sumF / float64(n)})
		}
	}
	t := Table{
		ID:      "E4",
		Title:   "Evidence types in schema matching (Example 4)",
		Claim:   `"automated techniques must be able to bring together all the available information" (§2.3)`,
		Columns: []string{"evidence", "precision", "recall", "F1"},
	}
	for _, r := range rows {
		t.AddRow(r.Evidence, f3(r.Precision), f3(r.Recall), f3(r.F1))
	}
	t.Notes = "F1 should rise monotonically toward the all-evidence row"
	return t, rows
}
