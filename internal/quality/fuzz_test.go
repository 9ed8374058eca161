package quality

import (
	"fmt"
	"reflect"
	"sort"
	"testing"

	"repro/internal/dataset"
	"repro/internal/text"
)

// The oracle below is the string implementation the integer kernel
// replaced, kept verbatim as the reference FuzzRepairProfile compares
// against: per-dependency string scans, a re-normalised cell per visit,
// in-place writes. It is the only copy of that logic.

func oracleViolations(t *dataset.Table, cfd CFD) []Violation {
	lhsIdx := make([]int, len(cfd.LHS))
	for i, col := range cfd.LHS {
		lhsIdx[i] = t.Schema().Index(col)
	}
	rhsIdx := t.Schema().Index(cfd.RHS)
	type group struct {
		counts map[string]int
		rep    map[string]dataset.Value
		rows   []int
	}
	groups := map[string]*group{}
	for i, r := range t.Rows() {
		if r[rhsIdx].IsNull() {
			continue
		}
		key := r.Key(lhsIdx...)
		g, ok := groups[key]
		if !ok {
			g = &group{counts: map[string]int{}, rep: map[string]dataset.Value{}}
			groups[key] = g
		}
		norm := text.Normalize(r[rhsIdx].String())
		g.counts[norm]++
		if _, ok := g.rep[norm]; !ok {
			g.rep[norm] = r[rhsIdx]
		}
		g.rows = append(g.rows, i)
	}
	var out []Violation
	for _, g := range groups {
		if len(g.counts) <= 1 {
			continue
		}
		best, bestN := "", -1
		total := 0
		for v, n := range g.counts {
			total += n
			if n > bestN || (n == bestN && v < best) {
				best, bestN = v, n
			}
		}
		if bestN < 2 || bestN*2 <= total {
			continue
		}
		for _, row := range g.rows {
			actual := t.Row(row)[rhsIdx]
			if text.Normalize(actual.String()) != best {
				out = append(out, Violation{Row: row, CFD: cfd, Expected: g.rep[best], Actual: actual})
			}
		}
	}
	return out
}

func oracleConfidence(t *dataset.Table, li, ri int) (float64, int, bool) {
	counts := map[string]map[string]int{}
	for _, r := range t.Rows() {
		if r[li].IsNull() || r[ri].IsNull() {
			continue
		}
		g := r[li].Key()
		if counts[g] == nil {
			counts[g] = map[string]int{}
		}
		counts[g][text.Normalize(r[ri].String())]++
	}
	agree, total := 0, 0
	for _, vs := range counts {
		best := 0
		for _, n := range vs {
			total += n
			best = max(best, n)
		}
		agree += best
	}
	if total == 0 {
		return 0, 0, false
	}
	return float64(agree) / float64(total), len(counts), true
}

func oracleDiscover(t *dataset.Table, minConf float64, minGroups int) []DiscoveredFD {
	schema := t.Schema()
	var out []DiscoveredFD
	for li := range schema {
		if schema[li].Kind == dataset.KindFloat {
			continue
		}
		for ri := range schema {
			if li == ri {
				continue
			}
			conf, groups, ok := oracleConfidence(t, li, ri)
			if !ok || groups < minGroups || conf < minConf || groups == t.Len() {
				continue
			}
			out = append(out, DiscoveredFD{LHS: []string{schema[li].Name}, RHS: schema[ri].Name, Confidence: conf, Groups: groups})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Confidence != out[j].Confidence {
			return out[i].Confidence > out[j].Confidence
		}
		if out[i].LHS[0] != out[j].LHS[0] {
			return out[i].LHS[0] < out[j].LHS[0]
		}
		return out[i].RHS < out[j].RHS
	})
	return out
}

func oracleProfileAndRepair(t *dataset.Table, minConf float64) (used []DiscoveredFD, changed int, rows []int) {
	if t.Len() == 0 {
		return nil, 0, []int{}
	}
	touched := map[int]bool{}
	for _, fd := range oracleDiscover(t, minConf, 2) {
		if fd.Confidence >= 1 {
			continue
		}
		vs := oracleViolations(t, fd.CFD())
		rhsIdx := t.Schema().Index(fd.RHS)
		for _, v := range vs {
			t.Row(v.Row)[rhsIdx] = v.Expected
			touched[v.Row] = true
		}
		if len(vs) > 0 {
			used = append(used, fd)
			changed += len(vs)
		}
	}
	rows = []int{}
	for r := range touched {
		rows = append(rows, r)
	}
	sort.Ints(rows)
	return used, changed, rows
}

var fuzzSchema = dataset.MustSchema(
	dataset.Field{Name: "sku", Kind: dataset.KindString},
	dataset.Field{Name: "brand", Kind: dataset.KindString},
	dataset.Field{Name: "category", Kind: dataset.KindString},
	dataset.Field{Name: "price", Kind: dataset.KindFloat},
	dataset.Field{Name: "stock", Kind: dataset.KindInt},
)

// fuzzTable decodes five bytes per row over small alphabets, so groups,
// ties, strict majorities and chains are all a few mutations apart. A
// zero nibble is a null; brand spellings 1/2 and 3/4 differ only in case
// and punctuation, so they normalise together but key apart.
func fuzzTable(data []byte) *dataset.Table {
	brands := []string{"", "Anker", "anker!", "Belkin", "BELKIN", "Ankr", "Logi", "Voltix"}
	t := dataset.NewTable(fuzzSchema.Clone())
	for ; len(data) >= 5 && t.Len() < 64; data = data[5:] {
		str := func(b byte, f func(int) string) dataset.Value {
			if b%8 == 0 {
				return dataset.Null()
			}
			return dataset.String(f(int(b % 8)))
		}
		row := dataset.Record{
			str(data[0], func(i int) string { return fmt.Sprintf("SKU-%d", i) }),
			str(data[1], func(i int) string { return brands[i] }),
			str(data[2], func(i int) string { return fmt.Sprintf("cat %d", i%4) }),
			dataset.Null(),
			dataset.Null(),
		}
		if data[3]%8 != 0 {
			row[3] = dataset.Float(float64(data[3]%8) * 2.5)
		}
		if data[4]%8 != 0 {
			row[4] = dataset.Int(int64(data[4] % 4))
		}
		t.Append(row)
	}
	return t
}

func tablesEqual(a, b *dataset.Table) error {
	if a.Len() != b.Len() {
		return fmt.Errorf("%d rows vs %d", a.Len(), b.Len())
	}
	for i := 0; i < a.Len(); i++ {
		if !a.Row(i).Equal(b.Row(i)) {
			return fmt.Errorf("row %d: %v vs %v", i, a.Row(i), b.Row(i))
		}
	}
	return nil
}

// checkRepairProfile runs the integer kernel three ways over the decoded
// table — one-shot (ProfileAndRepairRows), assembled from per-part Cells
// under a fresh Dictionary, and assembled again under the same Dictionary
// after one part changed — and requires each to equal the string oracle
// in repaired table, repaired-row list and used-dependency list, without
// ever writing through a record a part shares.
func checkRepairProfile(data []byte, minConf float64, cut int) error {
	src := fuzzTable(data)
	compare := func(label string, got *dataset.Table, used []DiscoveredFD, changed int, rows []int, err error) error {
		if err != nil {
			return fmt.Errorf("%s: %w", label, err)
		}
		want := src.Clone()
		wantUsed, wantChanged, wantRows := oracleProfileAndRepair(want, minConf)
		if err := tablesEqual(want, got); err != nil {
			return fmt.Errorf("%s: repaired table: %w", label, err)
		}
		if changed != wantChanged || !reflect.DeepEqual(rows, wantRows) {
			return fmt.Errorf("%s: changed %d rows %v, oracle %d rows %v", label, changed, rows, wantChanged, wantRows)
		}
		if !reflect.DeepEqual(used, wantUsed) {
			return fmt.Errorf("%s: used %v, oracle %v", label, used, wantUsed)
		}
		return nil
	}

	oneShot := src.Clone()
	used, changed, rows, err := ProfileAndRepairRows(oneShot, minConf)
	if err := compare("one-shot", oneShot, used, changed, rows, err); err != nil {
		return err
	}

	// The union shares its records with two part tables, as core's does.
	if src.Len() > 0 {
		cut %= src.Len()
	}
	parts := []*dataset.Table{dataset.NewTable(fuzzSchema.Clone()), dataset.NewTable(fuzzSchema.Clone())}
	for i, r := range src.Clone().Rows() {
		if i < cut {
			parts[0].Append(r)
		} else {
			parts[1].Append(r)
		}
	}
	dict := NewDictionary(len(fuzzSchema))
	cells := []*Cells{EncodeCells(parts[0]), EncodeCells(parts[1])}
	assemble := func(label string) error {
		union := dataset.NewTable(fuzzSchema.Clone())
		for _, p := range parts {
			for _, r := range p.Rows() {
				union.Append(r)
			}
		}
		before := []*dataset.Table{parts[0].Clone(), parts[1].Clone()}
		used, changed, rows, err := RepairProfile(union, dict.Profile(cells...), minConf)
		if err := compare(label, union, used, changed, rows, err); err != nil {
			return err
		}
		for i := range parts {
			if err := tablesEqual(before[i], parts[i]); err != nil {
				return fmt.Errorf("%s: repair wrote through part %d: %w", label, i, err)
			}
		}
		return nil
	}
	if err := assemble("assembled"); err != nil {
		return err
	}
	// A second round under the grown dictionary: part 0 is replaced by its
	// own rows reversed (a new generation), part 1 keeps its translation.
	rev := dataset.NewTable(fuzzSchema.Clone())
	for i := parts[0].Len() - 1; i >= 0; i-- {
		rev.Append(parts[0].Row(i).Clone())
	}
	parts[0], cells[0] = rev, EncodeCells(rev)
	src = dataset.NewTable(fuzzSchema.Clone())
	for _, p := range parts {
		for _, r := range p.Rows() {
			src.Append(r.Clone())
		}
	}
	return assemble("second round")
}

// chainedSeed is a table where a later dependency reads an earlier repair:
// sku -> brand (8/9) first rewrites row 0's brand Ankr -> Anker, which
// flips category -> brand's (6/9) vote in category 1 from 4-3 for Ankr to
// 4-3 for Anker — so the three single-row skus end up Anker, where a scan
// of the unrepaired data would have turned sku 1's rows into Ankr.
func chainedSeed() []byte {
	var data []byte
	row := func(sku, brand, cat byte) { data = append(data, sku, brand, cat, 0, 0) }
	row(1, 5, 1)
	for i := 0; i < 3; i++ {
		row(1, 1, 1)
	}
	row(3, 5, 1)
	row(4, 5, 1)
	row(5, 5, 1)
	row(2, 3, 2)
	row(2, 3, 2)
	return data
}

func TestRepairSeesEarlierRepairs(t *testing.T) {
	tab := fuzzTable(chainedSeed())
	used, _, rows, err := ProfileAndRepairRows(tab, 0.65)
	if err != nil {
		t.Fatal(err)
	}
	if len(used) < 2 || used[0].String() != "[sku] -> brand (0.889 over 5 groups)" {
		t.Fatalf("used = %v", used)
	}
	for i := 0; i < 7; i++ {
		if got := tab.Get(i, "brand").Str(); got != "Anker" {
			t.Errorf("row %d brand = %q, want Anker (repaired rows %v)", i, got, rows)
		}
	}
}

func FuzzRepairProfile(f *testing.F) {
	row := func(sku, brand, cat, price, stock byte) []byte { return []byte{sku, brand, cat, price, stock} }
	var ties, nulls []byte
	// 2-2 and 1-1 splits (no strict majority), case-variant spellings that
	// normalise together, and a 3-1 majority whose first row sets the value.
	ties = append(ties, row(1, 1, 1, 1, 1)...)
	ties = append(ties, row(1, 1, 1, 1, 1)...)
	ties = append(ties, row(1, 3, 1, 1, 1)...)
	ties = append(ties, row(1, 3, 1, 1, 1)...)
	ties = append(ties, row(2, 2, 2, 1, 1)...)
	ties = append(ties, row(2, 1, 2, 1, 1)...)
	ties = append(ties, row(2, 1, 2, 1, 1)...)
	ties = append(ties, row(2, 6, 2, 1, 1)...)
	// Null left- and right-hand sides: a null key is a group for repair but
	// not for discovery; a null value never votes.
	for i := 0; i < 3; i++ {
		nulls = append(nulls, row(0, 1, 1, 0, 1)...)
		nulls = append(nulls, row(4, 0, 2, 3, 0)...)
	}
	nulls = append(nulls, row(0, 6, 1, 0, 1)...)
	nulls = append(nulls, row(4, 7, 0, 3, 0)...)
	f.Add(chainedSeed(), uint8(3), uint8(4))
	f.Add(ties, uint8(2), uint8(3))
	f.Add(nulls, uint8(0), uint8(1))
	f.Add([]byte{}, uint8(8), uint8(0))
	f.Fuzz(func(t *testing.T, data []byte, conf, cut uint8) {
		minConf := 0.5 + float64(conf%10)*0.05
		if err := checkRepairProfile(data, minConf, int(cut)); err != nil {
			t.Fatal(err)
		}
	})
}
