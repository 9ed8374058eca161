package mapping

import (
	"testing"

	"repro/internal/dataset"
	"repro/internal/match"
)

func target() dataset.Schema {
	return dataset.MustSchema(
		dataset.Field{Name: "sku", Kind: dataset.KindString},
		dataset.Field{Name: "name", Kind: dataset.KindString},
		dataset.Field{Name: "price", Kind: dataset.KindFloat},
	)
}

func srcTable() *dataset.Table {
	t := dataset.NewTable(dataset.MustSchema(
		dataset.Field{Name: "item_no", Kind: dataset.KindString},
		dataset.Field{Name: "title", Kind: dataset.KindString},
		dataset.Field{Name: "cost", Kind: dataset.KindString}, // string prices to exercise casting
	))
	t.AppendValues(dataset.String("A"), dataset.String("USB Cable"), dataset.String("4.99"))
	t.AppendValues(dataset.String("B"), dataset.String("HDMI Cable"), dataset.String("7.50"))
	t.AppendValues(dataset.String("C"), dataset.String("Mouse"), dataset.String("not-a-price"))
	return t
}

func corrs() []match.Correspondence {
	return []match.Correspondence{
		{SourceColumn: "item_no", TargetColumn: "sku", Confidence: 0.9},
		{SourceColumn: "title", TargetColumn: "name", Confidence: 0.8},
		{SourceColumn: "cost", TargetColumn: "price", Confidence: 0.7},
	}
}

func TestGenerate(t *testing.T) {
	m := Generate("m1", "src-1", target(), corrs())
	want := map[string]string{"sku": "item_no", "name": "title", "price": "cost"}
	if len(m.ColumnMap) != len(want) {
		t.Errorf("column map = %v, want %v", m.ColumnMap, want)
	}
	for tc, sc := range want {
		if m.ColumnMap[tc] != sc {
			t.Errorf("column map = %v, want %v", m.ColumnMap, want)
		}
	}
	if m.Confidence < 0.79 || m.Confidence > 0.81 {
		t.Errorf("confidence = %f, want 0.8", m.Confidence)
	}
}

func TestGeneratePartial(t *testing.T) {
	m := Generate("m2", "src-1", target(), corrs()[:2])
	if m.ColumnMap["price"] != "" || m.ColumnMap["sku"] != "item_no" || m.ColumnMap["name"] != "title" {
		t.Errorf("partial mapping maps %v, want sku and name only", m.ColumnMap)
	}
}

func TestApply(t *testing.T) {
	m := Generate("m1", "src-1", target(), corrs())
	out, err := m.Apply(srcTable())
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 3 {
		t.Fatalf("rows = %d", out.Len())
	}
	if !out.Schema().Equal(target()) {
		t.Errorf("schema = %v", out.Schema())
	}
	if out.Get(0, "price").Kind() != dataset.KindFloat || out.Get(0, "price").FloatVal() != 4.99 {
		t.Errorf("cast failed: %v", out.Get(0, "price"))
	}
	// Uncastable value becomes null, row survives.
	if !out.Get(2, "price").IsNull() {
		t.Errorf("uncastable should be null, got %v", out.Get(2, "price"))
	}
	if out.Get(2, "name").Str() != "Mouse" {
		t.Error("row with uncastable value should survive")
	}
}

func TestApplyUnmappedColumnsNull(t *testing.T) {
	m := Generate("m2", "src-1", target(), corrs()[:2]) // no price
	out, err := m.Apply(srcTable())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < out.Len(); i++ {
		if !out.Get(i, "price").IsNull() {
			t.Error("unmapped column should be null")
		}
	}
}

func TestApplyMissingSourceColumn(t *testing.T) {
	m := Generate("m3", "src-1", target(), []match.Correspondence{
		{SourceColumn: "ghost", TargetColumn: "sku", Confidence: 1},
	})
	if _, err := m.Apply(srcTable()); err == nil {
		t.Error("missing source column should error")
	}
}

func reference() *dataset.Table {
	r := dataset.NewTable(target())
	r.AppendValues(dataset.String("A"), dataset.String("USB Cable"), dataset.Float(4.99))
	r.AppendValues(dataset.String("B"), dataset.String("HDMI Cable"), dataset.Float(9.99)) // disagrees on price
	r.AppendValues(dataset.String("Z"), dataset.String("Keyboard"), dataset.Float(59.00))  // not covered
	return r
}

func TestEstimateQuality(t *testing.T) {
	m := Generate("m1", "src-1", target(), corrs())
	q, err := EstimateQuality(m, srcTable(), reference(), "sku")
	if err != nil {
		t.Fatal(err)
	}
	// Coverage: 2 of 3 reference keys seen.
	if q.Coverage < 0.66 || q.Coverage > 0.67 {
		t.Errorf("coverage = %f, want 2/3", q.Coverage)
	}
	// Accuracy: compared cells = name+price for A (both agree), name+price
	// for B (name agrees, price disagrees) → 3/4.
	if q.Accuracy != 0.75 {
		t.Errorf("accuracy = %f, want 0.75", q.Accuracy)
	}
	if q.Rows != 3 {
		t.Errorf("rows = %d", q.Rows)
	}
	if q.Completeness <= 0 || q.Completeness > 1 {
		t.Errorf("completeness = %f", q.Completeness)
	}
}

func TestEstimateQualityNoReference(t *testing.T) {
	m := Generate("m1", "src-1", target(), corrs())
	q, err := EstimateQuality(m, srcTable(), nil, "sku")
	if err != nil {
		t.Fatal(err)
	}
	if q.Accuracy != 0 || q.Coverage != 0 {
		t.Error("no reference should leave accuracy/coverage at 0")
	}
	if q.Completeness == 0 {
		t.Error("completeness should still be measured")
	}
}
