package quality

import (
	"math"
	"testing"
	"time"

	"repro/internal/dataset"
)

func table() *dataset.Table {
	t := dataset.NewTable(dataset.MustSchema(
		dataset.Field{Name: "sku", Kind: dataset.KindString},
		dataset.Field{Name: "name", Kind: dataset.KindString},
		dataset.Field{Name: "price", Kind: dataset.KindFloat},
	))
	t.AppendValues(dataset.String("A"), dataset.String("USB Cable"), dataset.Float(4.99))
	t.AppendValues(dataset.String("B"), dataset.Null(), dataset.Float(7.50))
	t.AppendValues(dataset.String("C"), dataset.String("Mouse"), dataset.Null())
	return t
}

func TestCompleteness(t *testing.T) {
	if got := Completeness(table()); math.Abs(got-7.0/9.0) > 1e-9 {
		t.Errorf("completeness = %f, want 7/9", got)
	}
	empty := dataset.NewTable(dataset.MustSchema(dataset.Field{Name: "a", Kind: dataset.KindInt}))
	if Completeness(empty) != 0 {
		t.Error("empty table completeness should be 0")
	}
}

func TestAccuracy(t *testing.T) {
	ref := dataset.NewTable(dataset.MustSchema(
		dataset.Field{Name: "sku", Kind: dataset.KindString},
		dataset.Field{Name: "name", Kind: dataset.KindString},
		dataset.Field{Name: "price", Kind: dataset.KindFloat},
	))
	ref.AppendValues(dataset.String("A"), dataset.String("usb cable"), dataset.Float(4.99))
	ref.AppendValues(dataset.String("B"), dataset.String("HDMI"), dataset.Float(9.99))
	got := Accuracy(table(), ref, "sku")
	// Pairs compared: A.name (agree, normalised), A.price (agree), B.price
	// (disagree). B.name is null in t. C not in ref.
	want := 2.0 / 3.0
	if math.Abs(got-want) > 1e-9 {
		t.Errorf("accuracy = %f, want %f", got, want)
	}
}

func TestAccuracyNaNWhenNoOverlap(t *testing.T) {
	ref := dataset.NewTable(dataset.MustSchema(dataset.Field{Name: "sku", Kind: dataset.KindString}))
	ref.AppendValues(dataset.String("ZZZ"))
	if !math.IsNaN(Accuracy(table(), ref, "sku")) {
		t.Error("no overlap should be NaN")
	}
	if !math.IsNaN(Accuracy(table(), ref, "missing_col")) {
		t.Error("missing key column should be NaN")
	}
}

func TestTimeliness(t *testing.T) {
	now := time.Date(2016, 3, 15, 12, 0, 0, 0, time.UTC)
	tab := dataset.NewTable(dataset.MustSchema(
		dataset.Field{Name: "updated", Kind: dataset.KindTime},
	))
	tab.AppendValues(dataset.Time(now))                      // fresh: 1.0
	tab.AppendValues(dataset.Time(now.Add(-24 * time.Hour))) // one half-life: 0.5
	got := Timeliness(tab, "updated", now, 24*time.Hour)
	if math.Abs(got-0.75) > 1e-9 {
		t.Errorf("timeliness = %f, want 0.75", got)
	}
}

func TestTimelinessStringTimestamps(t *testing.T) {
	now := time.Date(2016, 3, 15, 12, 0, 0, 0, time.UTC)
	tab := dataset.NewTable(dataset.MustSchema(
		dataset.Field{Name: "updated", Kind: dataset.KindString},
	))
	tab.AppendValues(dataset.String("2016-03-15T12:00:00Z"))
	got := Timeliness(tab, "updated", now, time.Hour)
	if math.Abs(got-1) > 1e-9 {
		t.Errorf("string timestamp timeliness = %f, want 1", got)
	}
}

func TestTimelinessEdgeCases(t *testing.T) {
	now := time.Now()
	tab := table()
	if !math.IsNaN(Timeliness(tab, "nope", now, time.Hour)) {
		t.Error("missing column should be NaN")
	}
	tab2 := dataset.NewTable(dataset.MustSchema(dataset.Field{Name: "updated", Kind: dataset.KindString}))
	tab2.AppendValues(dataset.Null())
	if got := Timeliness(tab2, "updated", now, time.Hour); got != 0 {
		t.Errorf("null timestamps should score 0, got %f", got)
	}
}

func cfdTable() *dataset.Table {
	t := dataset.NewTable(dataset.MustSchema(
		dataset.Field{Name: "sku", Kind: dataset.KindString},
		dataset.Field{Name: "brand", Kind: dataset.KindString},
		dataset.Field{Name: "country", Kind: dataset.KindString},
	))
	// sku -> brand should hold; A has a dissenter.
	t.AppendValues(dataset.String("A"), dataset.String("Anker"), dataset.String("UK"))
	t.AppendValues(dataset.String("A"), dataset.String("Anker"), dataset.String("UK"))
	t.AppendValues(dataset.String("A"), dataset.String("Ankr"), dataset.String("UK"))
	t.AppendValues(dataset.String("B"), dataset.String("Belkin"), dataset.String("UK"))
	t.AppendValues(dataset.String("B"), dataset.String("Belkin"), dataset.String("UK"))
	t.AppendValues(dataset.String("B"), dataset.String("Belkin"), dataset.String("FR"))
	return t
}

// violations runs the CFD kernel that Consistency and RepairProfile
// share: for each LHS group, the rows dissenting from a strict majority
// of at least two rows, group by group, rows ascending within a group.
func violations(t *dataset.Table, cfd CFD) ([]Violation, error) {
	cols, err := cfd.resolve(t.Schema())
	if err != nil {
		return nil, err
	}
	p := profileOf(t)
	group, nGroups := p.cfdGroups(cfd, cols)
	var out []Violation
	for _, v := range p.violators(group, nGroups, cols.rhs) {
		out = append(out, Violation{Row: int(v.row), CFD: cfd,
			Expected: t.Row(int(v.rep))[cols.rhs], Actual: t.Row(int(v.row))[cols.rhs]})
	}
	return out, nil
}

func TestViolations(t *testing.T) {
	vs, err := violations(cfdTable(), CFD{LHS: []string{"sku"}, RHS: "brand"})
	if err != nil {
		t.Fatal(err)
	}
	if len(vs) != 1 || vs[0].Row != 2 {
		t.Fatalf("violations = %+v", vs)
	}
	if vs[0].Expected.Str() != "Anker" || vs[0].Actual.Str() != "Ankr" {
		t.Errorf("violation detail wrong: %+v", vs[0])
	}
}

func TestViolationsConditional(t *testing.T) {
	// Within country=UK only, sku -> country trivially holds; condition on
	// brand=Belkin, sku -> country has a conflict.
	vs, err := violations(cfdTable(), CFD{ConditionCol: "brand", ConditionVal: "Belkin", LHS: []string{"sku"}, RHS: "country"})
	if err != nil {
		t.Fatal(err)
	}
	if len(vs) != 1 {
		t.Fatalf("conditional violations = %+v", vs)
	}
}

func TestViolationsMissingColumns(t *testing.T) {
	if _, err := violations(cfdTable(), CFD{LHS: []string{"ghost"}, RHS: "brand"}); err == nil {
		t.Error("missing LHS should error")
	}
	if _, err := violations(cfdTable(), CFD{LHS: []string{"sku"}, RHS: "ghost"}); err == nil {
		t.Error("missing RHS should error")
	}
	if _, err := violations(cfdTable(), CFD{ConditionCol: "ghost", LHS: []string{"sku"}, RHS: "brand"}); err == nil {
		t.Error("missing condition column should error")
	}
}

func TestConsistency(t *testing.T) {
	c, err := Consistency(cfdTable(), []CFD{{LHS: []string{"sku"}, RHS: "brand"}})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(c-5.0/6.0) > 1e-9 {
		t.Errorf("consistency = %f, want 5/6 (1 bad row of 6)", c)
	}
	empty := dataset.NewTable(cfdTable().Schema())
	c, _ = Consistency(empty, []CFD{{LHS: []string{"sku"}, RHS: "brand"}})
	if c != 1 {
		t.Error("empty table is vacuously consistent")
	}
}

func TestRepair(t *testing.T) {
	tab := cfdTable()
	n, err := profileOf(tab).repairCFD(tab, CFD{LHS: []string{"sku"}, RHS: "brand"}, make([]bool, tab.Len()))
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("repaired %d cells, want 1", n)
	}
	if tab.Get(2, "brand").Str() != "Anker" {
		t.Errorf("repair wrote %v", tab.Get(2, "brand"))
	}
	// After repair the dependency holds.
	c, _ := Consistency(tab, []CFD{{LHS: []string{"sku"}, RHS: "brand"}})
	if c != 1 {
		t.Errorf("post-repair consistency = %f", c)
	}
}

func TestAssess(t *testing.T) {
	now := time.Date(2016, 3, 15, 12, 0, 0, 0, time.UTC)
	sc, err := Assess(table(), nil, "", "", now, 24*time.Hour, nil)
	if err != nil {
		t.Fatal(err)
	}
	if sc.Rows != 3 || sc.Completeness <= 0 {
		t.Errorf("scorecard = %+v", sc)
	}
	if !math.IsNaN(sc.Accuracy) || !math.IsNaN(sc.Timeliness) {
		t.Error("unavailable dimensions should be NaN")
	}
	if sc.Consistency != 1 {
		t.Error("no CFDs means consistency 1")
	}
}

func TestScorecardUtility(t *testing.T) {
	sc := Scorecard{Completeness: 0.8, Accuracy: math.NaN(), Timeliness: 0.5, Consistency: 1}
	// NaN accuracy is skipped and weights renormalise.
	u := sc.Utility(1, 1, 1, 0)
	if math.Abs(u-(0.8+0.5)/2) > 1e-9 {
		t.Errorf("utility = %f, want 0.65", u)
	}
	if sc.Utility(0, 0, 0, 0) != 0 {
		t.Error("zero weights = 0 utility")
	}
}

func TestCFDString(t *testing.T) {
	d := CFD{ConditionCol: "brand", ConditionVal: "Anker", LHS: []string{"sku"}, RHS: "price"}
	s := d.String()
	if s == "" || len(s) < 10 {
		t.Errorf("String = %q", s)
	}
}
