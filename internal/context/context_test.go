package context

import (
	"math"
	"testing"

	"repro/internal/dataset"
	"repro/internal/ontology"
)

func TestNewAHPValidation(t *testing.T) {
	if _, err := NewAHP(Accuracy); err == nil {
		t.Error("single criterion should fail")
	}
	if _, err := NewAHP(Accuracy, Accuracy); err == nil {
		t.Error("duplicate criteria should fail")
	}
	a, err := NewAHP(Accuracy, Completeness, Timeliness)
	if err != nil || a == nil {
		t.Fatal(err)
	}
}

func TestAHPSetValidation(t *testing.T) {
	a, _ := NewAHP(Accuracy, Completeness)
	if err := a.Set(Accuracy, Completeness, 0); err == nil {
		t.Error("zero ratio should fail")
	}
	if err := a.Set(Accuracy, Criterion("nope"), 2); err == nil {
		t.Error("unknown criterion should fail")
	}
	if err := a.Set(Accuracy, Completeness, 3); err != nil {
		t.Error(err)
	}
}

func TestAHPWeightsIdentity(t *testing.T) {
	a, _ := NewAHP(Accuracy, Completeness, Timeliness)
	w, cr := a.Weights()
	for c, x := range w {
		if math.Abs(x-1.0/3.0) > 1e-9 {
			t.Errorf("identity matrix weight %s = %f", c, x)
		}
	}
	if cr > 1e-9 {
		t.Errorf("identity CR = %f, want 0", cr)
	}
}

func TestAHPWeightsOrdering(t *testing.T) {
	a, _ := NewAHP(Accuracy, Completeness, Timeliness)
	// Accuracy 3x completeness, 5x timeliness; completeness 2x timeliness
	// (reasonably consistent judgements).
	a.Set(Accuracy, Completeness, 3)
	a.Set(Accuracy, Timeliness, 5)
	a.Set(Completeness, Timeliness, 2)
	w, cr := a.Weights()
	if !(w[Accuracy] > w[Completeness] && w[Completeness] > w[Timeliness]) {
		t.Errorf("weights not ordered: %v", w)
	}
	sum := w[Accuracy] + w[Completeness] + w[Timeliness]
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("weights sum = %f", sum)
	}
	if cr > 0.1 {
		t.Errorf("consistent judgements have CR = %f", cr)
	}
	// Textbook check: weights approximately (0.65, 0.23, 0.12).
	if math.Abs(w[Accuracy]-0.648) > 0.02 {
		t.Errorf("accuracy weight = %f, want ~0.65", w[Accuracy])
	}
}

func TestAHPInconsistentJudgements(t *testing.T) {
	a, _ := NewAHP(Accuracy, Completeness, Timeliness)
	// A > C, C > T, but T >> A: a preference cycle.
	a.Set(Accuracy, Completeness, 9)
	a.Set(Completeness, Timeliness, 9)
	a.Set(Timeliness, Accuracy, 9)
	_, cr := a.Weights()
	if cr <= 0.1 {
		t.Errorf("cyclic judgements should be inconsistent, CR = %f", cr)
	}
	if _, err := BuildUserContext("bad", a, 0, 0); err == nil {
		t.Error("BuildUserContext should reject inconsistent judgements")
	}
}

func TestBuildUserContext(t *testing.T) {
	a, _ := NewAHP(Accuracy, Completeness)
	a.Set(Accuracy, Completeness, 4)
	u, err := BuildUserContext("routine", a, 10, 25.0)
	if err != nil {
		t.Fatal(err)
	}
	if u.Name != "routine" || u.MaxSources != 10 || u.FeedbackBudget != 25.0 {
		t.Errorf("context = %+v", u)
	}
	if u.Weight(Accuracy) <= u.Weight(Completeness) {
		t.Error("accuracy should dominate")
	}
	if u.Weight(Criterion("nope")) != 0 {
		t.Error("unset criterion weight should be 0")
	}
}

func TestUserContextScore(t *testing.T) {
	u := &UserContext{Weights: map[Criterion]float64{Accuracy: 0.7, Completeness: 0.3}}
	s := u.Score(map[Criterion]float64{Accuracy: 1, Completeness: 0})
	if math.Abs(s-0.7) > 1e-9 {
		t.Errorf("score = %f, want 0.7", s)
	}
	// Missing criteria renormalise.
	s = u.Score(map[Criterion]float64{Accuracy: 0.5})
	if math.Abs(s-0.5) > 1e-9 {
		t.Errorf("renormalised score = %f, want 0.5", s)
	}
	if u.Score(nil) != 0 {
		t.Error("empty scores = 0")
	}
}

func TestDataContextBuilders(t *testing.T) {
	master := dataset.NewTable(dataset.MustSchema(
		dataset.Field{Name: "sku", Kind: dataset.KindString},
		dataset.Field{Name: "price", Kind: dataset.KindFloat},
	))
	for i := 0; i < 5; i++ {
		master.AppendValues(dataset.String("A"), dataset.Float(float64(i)))
	}

	d := NewDataContext().
		WithMaster(master, "sku").
		WithTaxonomy(ontology.ProductTaxonomy())

	inv := d.EvidenceInventory()
	want := []string{"master_data", "ontology"}
	if len(inv) != len(want) {
		t.Fatalf("inventory = %v", inv)
	}
	for i := range want {
		if inv[i] != want[i] {
			t.Errorf("inventory[%d] = %s, want %s", i, inv[i], want[i])
		}
	}
}

func TestMasterSamples(t *testing.T) {
	master := dataset.NewTable(dataset.MustSchema(
		dataset.Field{Name: "sku", Kind: dataset.KindString},
	))
	for i := 0; i < 100; i++ {
		master.AppendValues(dataset.String("X"))
	}
	d := NewDataContext().WithMaster(master, "sku")
	s := d.MasterSamples(10)
	if len(s["sku"]) != 10 {
		t.Errorf("samples = %d, want 10", len(s["sku"]))
	}
	if NewDataContext().MasterSamples(10) != nil {
		t.Error("no master data should return nil")
	}
}

func TestEvidenceInventoryEmpty(t *testing.T) {
	if len(NewDataContext().EvidenceInventory()) != 0 {
		t.Error("empty context should have empty inventory")
	}
}
