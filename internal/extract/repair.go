package extract

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/dataset"
	"repro/internal/html"
	"repro/internal/ontology"
	"repro/internal/text"
)

// RepairReport summarises what a joint wrapper+data repair did.
type RepairReport struct {
	Reinduced   bool // wrapper no longer matched and was re-learned
	Relabelled  int  // fields whose property label was corrected
	UnitFixes   int  // cells divided by 100 after unit-drift detection
	RowsChecked int  // rows corroborated against master data
}

// Repair performs WADaR-style joint wrapper and data repair [29]: it
// (1) re-induces the wrapper if template drift broke the record selector,
// (2) re-labels extracted columns by corroborating their values against
// master data from the data context, and (3) repairs systematic value
// errors (unit drift) it can attribute to the extraction rather than the
// source. It returns the repaired wrapper, the repaired extraction, and a
// report. master may be nil, in which case only structural repair happens
// (the no-data-context ablation of experiment E3).
func Repair(w *Wrapper, page *html.Node, master *dataset.Table, tax *ontology.Taxonomy) (*Wrapper, *dataset.Table, RepairReport, error) {
	var rep RepairReport
	table, err := w.Run(page)
	if err != nil || table.Len() == 0 {
		// Structural breakage: re-induce from the current page.
		nw, ierr := Induce(w.SourceID, page, tax)
		if ierr != nil {
			return w, nil, rep, fmt.Errorf("extract: repair of %s failed: %w", w.SourceID, ierr)
		}
		rep.Reinduced = true
		w = nw
		table, err = w.Run(page)
		if err != nil {
			return w, nil, rep, fmt.Errorf("extract: re-induced wrapper still fails: %w", err)
		}
	}
	if master == nil || master.Len() == 0 {
		return w, table, rep, nil
	}
	// Corroborate column labels against master data.
	relabelled := relabelColumns(w, table, master)
	rep.Relabelled = relabelled
	if relabelled > 0 {
		// Re-run not needed: relabelColumns renames the table in place.
	}
	// Unit-drift repair on numeric columns shared with master.
	fixes, checked := RepairUnits(table, master)
	rep.UnitFixes = fixes
	rep.RowsChecked = checked
	return w, table, rep, nil
}

// relabelColumns aligns extracted columns to master columns by value
// agreement and renames both the table schema and the wrapper field
// properties when the evidence disagrees with the current label. Returns
// the number of corrected fields.
func relabelColumns(w *Wrapper, table *dataset.Table, master *dataset.Table) int {
	// Each master column's numbers and text set are built once, not once
	// per extracted column.
	masters := make([]masterColumn, len(master.Schema()))
	for mc, f := range master.Schema() {
		mVals, _ := master.Column(f.Name)
		masters[mc] = newMasterColumn(mVals)
	}
	var cands []assign
	for c := range table.Schema() {
		colVals, _ := table.Column(table.Schema()[c].Name)
		for mc := range masters {
			s := masters[mc].agreement(colVals)
			if s > 0.3 {
				cands = append(cands, assign{col: c, masterCol: mc, score: s})
			}
		}
	}
	// Greedy best-first assignment.
	sortAssigns(cands)
	usedCol := map[int]bool{}
	usedMaster := map[int]bool{}
	renames := 0
	for _, a := range cands {
		if usedCol[a.col] || usedMaster[a.masterCol] {
			continue
		}
		usedCol[a.col] = true
		usedMaster[a.masterCol] = true
		want := master.Schema()[a.masterCol].Name
		have := table.Schema()[a.col].Name
		if have == want {
			continue
		}
		// Rename in the table schema (in place) and wrapper field.
		if table.Schema().Index(want) >= 0 {
			continue // avoid collision
		}
		table.Schema()[a.col].Name = want
		for i := range w.Fields {
			name := w.Fields[i].Property
			if name == "" {
				name = strings.ToLower(strings.TrimSpace(w.Fields[i].Header))
			}
			if name == have {
				w.Fields[i].Property = want
				break
			}
		}
		renames++
	}
	return renames
}

// assign is a candidate (extracted column, master column) alignment.
type assign struct {
	col, masterCol int
	score          float64
}

func sortAssigns(cands []assign) {
	for i := 1; i < len(cands); i++ {
		for j := i; j > 0 && cands[j].score > cands[j-1].score; j-- {
			cands[j], cands[j-1] = cands[j-1], cands[j]
		}
	}
}

// columnAgreement estimates how well two value lists describe the same
// attribute: the fraction of sampled extracted values with a close match in
// the master column (exact normalised equality for text, 2% relative
// tolerance or exact ×100 unit drift for numbers).
func columnAgreement(col, master []dataset.Value) float64 {
	return newMasterColumn(master).agreement(col)
}

// masterColumn is what columnAgreement reads of a master column: its
// length, its numbers in row order and its normalised text set.
type masterColumn struct {
	n    int
	nums []float64
	text map[string]bool
}

func newMasterColumn(master []dataset.Value) masterColumn {
	m := masterColumn{n: len(master), text: map[string]bool{}}
	for _, v := range master {
		if v.IsNull() {
			continue
		}
		if v.IsNumeric() {
			m.nums = append(m.nums, v.FloatVal())
		}
		m.text[text.Normalize(v.String())] = true
	}
	return m
}

// agreement is columnAgreement(col, the master column m was built from).
func (m masterColumn) agreement(col []dataset.Value) float64 {
	if len(col) == 0 || m.n == 0 {
		return 0
	}
	sample := col
	if len(sample) > 50 {
		sample = sample[:50]
	}
	hits, total := 0, 0
	for _, v := range sample {
		if v.IsNull() {
			continue
		}
		total++
		if v.IsNumeric() {
			f := v.FloatVal()
			for _, mv := range m.nums {
				if closeRel(f, mv, 0.02) || closeRel(f, mv*100, 0.02) || closeRel(f*100, mv, 0.02) {
					hits++
					break
				}
			}
			continue
		}
		if m.text[text.Normalize(v.String())] {
			hits++
		}
	}
	if total == 0 {
		return 0
	}
	return float64(hits) / float64(total)
}

func closeRel(a, b, tol float64) bool {
	if b == 0 {
		return math.Abs(a) < tol
	}
	return math.Abs(a-b)/math.Abs(b) <= tol
}

// RepairUnits detects columns whose numeric values are systematically ~100×
// the master values for the same attribute (prices published in cents) and
// divides them. The check requires a shared key column ("sku" or exact
// normalised "name") to pair rows. Returns (#cells fixed, #rows checked).
// It is exposed separately so the orchestrator can corroborate CSV/JSON
// extractions too, not only wrapper output.
func RepairUnits(table, master *dataset.Table) (int, int) {
	keyCol, masterKey := sharedKey(table, master)
	if keyCol == "" {
		return 0, 0
	}
	// Index master rows by key.
	idx := map[string]dataset.Record{}
	kc := master.Schema().Index(masterKey)
	for _, r := range master.Rows() {
		if !r[kc].IsNull() {
			idx[text.Normalize(r[kc].String())] = r
		}
	}
	fixes, checked := 0, 0
	tk := table.Schema().Index(keyCol)
	for c, f := range table.Schema() {
		mc := master.Schema().Index(f.Name)
		if mc < 0 || c == tk {
			continue
		}
		// Measure the ×100 ratio rate over paired rows.
		drifted, paired := 0, 0
		for _, r := range table.Rows() {
			mr, ok := idx[text.Normalize(r[tk].String())]
			if !ok || r[c].IsNull() || mr[mc].IsNull() || !r[c].IsNumeric() || !mr[mc].IsNumeric() {
				continue
			}
			paired++
			if closeRel(r[c].FloatVal(), mr[mc].FloatVal()*100, 0.05) {
				drifted++
			}
		}
		checked += paired
		if paired >= 3 && float64(drifted) >= 0.6*float64(paired) {
			// Systematic unit drift: divide the whole column.
			for i := 0; i < table.Len(); i++ {
				v := table.Row(i)[c]
				if v.IsNumeric() {
					table.Row(i)[c] = dataset.Float(v.FloatVal() / 100)
					fixes++
				}
			}
		}
	}
	return fixes, checked
}

// RepairUnitCells fixes individual numeric cells that sit at ~100× the
// master value for the same key — per-record unit errors that column-level
// drift detection (RepairUnits) correctly leaves alone because they are
// not systematic. Only rows whose key appears in the master data are
// touched. Returns the number of cells fixed.
func RepairUnitCells(table, master *dataset.Table) int {
	keyCol, masterKey := sharedKey(table, master)
	if keyCol == "" {
		return 0
	}
	idx := map[string]dataset.Record{}
	kc := master.Schema().Index(masterKey)
	for _, r := range master.Rows() {
		if !r[kc].IsNull() {
			idx[text.Normalize(r[kc].String())] = r
		}
	}
	fixes := 0
	tk := table.Schema().Index(keyCol)
	for c, f := range table.Schema() {
		mc := master.Schema().Index(f.Name)
		if mc < 0 || c == tk {
			continue
		}
		for i := 0; i < table.Len(); i++ {
			r := table.Row(i)
			mr, ok := idx[text.Normalize(r[tk].String())]
			if !ok || r[c].IsNull() || mr[mc].IsNull() || !r[c].IsNumeric() || !mr[mc].IsNumeric() {
				continue
			}
			// A cell sitting 40-250× above the master value is a unit
			// error, not a price move (which stays within a small factor):
			// the wide band tolerates unit drift compounded with staleness.
			if mv := mr[mc].FloatVal(); mv > 0 {
				ratio := r[c].FloatVal() / mv
				if ratio >= 40 && ratio <= 250 {
					table.Row(i)[c] = dataset.Float(r[c].FloatVal() / 100)
					fixes++
				}
			}
		}
	}
	return fixes
}

// sharedKey finds a join key present in both tables: "sku" preferred, then
// "name".
func sharedKey(table, master *dataset.Table) (string, string) {
	for _, k := range []string{"sku", "id", "name"} {
		if table.Schema().Index(k) >= 0 && master.Schema().Index(k) >= 0 {
			return k, k
		}
	}
	return "", ""
}

// Validate scores a wrapper against a page without mutating anything: it
// reports the fraction of expected fields populated. Orchestrators use it
// to decide when repair is needed (quality analysis on extractions).
func Validate(w *Wrapper, page *html.Node) float64 {
	table, err := w.Run(page)
	if err != nil || table.Len() == 0 {
		return 0
	}
	filled, total := 0, 0
	for _, r := range table.Rows() {
		for _, v := range r {
			total++
			if !v.IsNull() {
				filled++
			}
		}
	}
	if total == 0 {
		return 0
	}
	return float64(filled) / float64(total)
}

// MasterFromContext builds the master table used for corroboration out of
// canonical (sku, name, price) triples. Convenience for callers that hold
// reference data as Go structs rather than tables.
func MasterFromContext(skus, names []string, prices []float64) *dataset.Table {
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

// UnlabelledFields returns the indices of wrapper fields with no canonical
// property label — the ones data-context corroboration should try to name.
func (w *Wrapper) UnlabelledFields() []int {
	var out []int
	for i, f := range w.Fields {
		if f.Property == "" {
			out = append(out, i)
		}
	}
	return out
}
