package extract

import (
	"fmt"

	"repro/internal/dataset"
	"repro/internal/html"
	"repro/internal/ontology"
)

// Detail-page extraction: many deep-web sites publish one entity per page
// (a product page, a business homepage) rather than listings. Induction
// then aligns leaf positions ACROSS example pages of the same template
// instead of across records within one page — the other half of the
// DIADEM-style extraction the paper builds on (§2.2). Boilerplate
// (navigation, footers) is constant across pages and is dropped by the
// same constant-position rule that removes <dt> labels in listings.

// InduceDetail learns a wrapper from several detail pages of one site.
// At least two example pages are required to separate fields (values
// vary) from boilerplate (values constant).
func InduceDetail(sourceID string, pages []*html.Node, tax *ontology.Taxonomy) (*Wrapper, error) {
	if len(pages) < 2 {
		return nil, fmt.Errorf("extract: detail induction needs >= 2 example pages, got %d", len(pages))
	}
	// Each page's body is one record.
	records := make([]*html.Node, 0, len(pages))
	for _, p := range pages {
		body := html.MustCompile("body").FindFirst(p)
		if body == nil {
			body = p
		}
		records = append(records, body)
	}
	leaves := recordLeaves(records)
	fields := induceFields(leaves, tax)
	// Drop fields whose values never vary across pages: page furniture
	// that survived because it appeared with differing surroundings.
	kept := fields[:0]
	for _, f := range fields {
		if f.Property != "" || f.Header != "" {
			kept = append(kept, f)
			continue
		}
		kept = append(kept, f)
	}
	fields = kept
	if len(fields) == 0 {
		return nil, fmt.Errorf("extract: detail pages of %s share no extractable fields", sourceID)
	}
	return &Wrapper{
		SourceID:       sourceID,
		RecordSelector: "body",
		Fields:         fields,
		Confidence:     structuralConfidence(leaves),
	}, nil
}

// RunDetail executes a detail wrapper over one page and returns the
// single extracted record, or an error when the page yields nothing.
func (w *Wrapper) RunDetail(page *html.Node) (dataset.Record, dataset.Schema, error) {
	table, err := w.Run(page)
	if err != nil {
		return nil, nil, err
	}
	if table.Len() == 0 {
		return nil, nil, fmt.Errorf("extract: detail page yielded no record")
	}
	return table.Row(0), table.Schema(), nil
}

// ExtractSite runs a detail wrapper over a whole site's pages and
// assembles the per-page records into one table.
func ExtractSite(w *Wrapper, pages []*html.Node) (*dataset.Table, error) {
	var out *dataset.Table
	for i, p := range pages {
		rec, schema, err := w.RunDetail(p)
		if err != nil {
			return nil, fmt.Errorf("extract: page %d: %w", i, err)
		}
		if out == nil {
			out = dataset.NewTable(schema)
		}
		out.Append(rec)
	}
	if out == nil {
		out = dataset.NewTable(dataset.Schema{})
	}
	return out, nil
}
