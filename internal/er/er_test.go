package er

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/dataset"
)

// dupTable builds a table with known duplicate structure: each entity
// appears 1-3 times with small perturbations. Returns the table and the
// per-row truth entity ids.
func dupTable(seed int64, entities int) (*dataset.Table, []string) {
	rng := rand.New(rand.NewSource(seed))
	t := dataset.NewTable(dataset.MustSchema(
		dataset.Field{Name: "sku", Kind: dataset.KindString},
		dataset.Field{Name: "name", Kind: dataset.KindString},
		dataset.Field{Name: "brand", Kind: dataset.KindString},
		dataset.Field{Name: "price", Kind: dataset.KindFloat},
	))
	var truth []string
	brands := []string{"Anker", "Belkin", "Logi", "Voltix"}
	adjectives := []string{"Premium", "Essential", "Pro", "Ultra", "Classic", "Compact", "Slim", "Eco"}
	nouns := []string{"USB Cable", "HDMI Cable", "Wireless Mouse", "Keyboard", "Desk Lamp", "Kettle", "Yoga Mat", "Bike Lock"}
	usedNames := map[string]bool{}
	for e := 0; e < entities; e++ {
		id := fmt.Sprintf("E%03d", e)
		brand := brands[rng.Intn(len(brands))]
		name := ""
		for name == "" || usedNames[name] {
			name = fmt.Sprintf("%s %s %s %d%s", brand, adjectives[rng.Intn(len(adjectives))],
				nouns[rng.Intn(len(nouns))], 1+rng.Intn(3), "m")
		}
		usedNames[name] = true
		price := 3 + rng.Float64()*100
		copies := 1 + rng.Intn(3)
		for c := 0; c < copies; c++ {
			sku := fmt.Sprintf("SKU-%03d", e)
			n := name
			if c > 0 && rng.Float64() < 0.5 {
				// typo in one copy
				r := []rune(n)
				i := 1 + rng.Intn(len(r)-2)
				r[i], r[i-1] = r[i-1], r[i]
				n = string(r)
			}
			p := price
			if c > 0 && rng.Float64() < 0.5 {
				p *= 0.98 + rng.Float64()*0.04
			}
			skuV := dataset.String(sku)
			if c > 0 && rng.Float64() < 0.3 {
				skuV = dataset.Null() // some copies lack the key
			}
			t.AppendValues(skuV, dataset.String(n), dataset.String(brand), dataset.Float(p))
			truth = append(truth, id)
		}
	}
	return t, truth
}

func TestResolveFindsDuplicates(t *testing.T) {
	tab, truth := dupTable(1, 60)
	r := NewResolver("sku", "name", "brand", "price")
	c, err := r.Resolve(tab)
	if err != nil {
		t.Fatal(err)
	}
	p, rec, f1 := PairwiseMetrics(c, truth)
	if f1 < 0.85 {
		t.Errorf("default resolver F1 = %f (p=%f r=%f), want >= 0.85", f1, p, rec)
	}
}

func TestResolveEmptyTable(t *testing.T) {
	tab := dataset.NewTable(dataset.MustSchema(dataset.Field{Name: "name", Kind: dataset.KindString}))
	r := NewResolver("", "name", "", "")
	c, err := r.Resolve(tab)
	if err != nil || c.Num != 0 {
		t.Errorf("empty table should yield empty clustering: %v %v", c, err)
	}
}

func TestResolveNeedsColumns(t *testing.T) {
	tab, _ := dupTable(2, 5)
	r := NewResolver("", "", "", "")
	if _, err := r.Resolve(tab); err == nil {
		t.Error("resolver without key/name columns should error")
	}
}

func TestCandidatePairsBlocking(t *testing.T) {
	tab, _ := dupTable(3, 80)
	r := NewResolver("sku", "name", "brand", "price")
	pairs := r.CandidatePairs(tab)
	n := tab.Len()
	quadratic := n * (n - 1) / 2
	if len(pairs) == 0 {
		t.Fatal("blocking produced no candidates")
	}
	if len(pairs) >= quadratic {
		t.Errorf("blocking should prune: %d pairs vs %d quadratic", len(pairs), quadratic)
	}
	for _, p := range pairs {
		if p.I >= p.J {
			t.Fatalf("pair not ordered: %v", p)
		}
	}
}

func TestFeatures(t *testing.T) {
	tab := dataset.NewTable(dataset.MustSchema(
		dataset.Field{Name: "sku", Kind: dataset.KindString},
		dataset.Field{Name: "name", Kind: dataset.KindString},
		dataset.Field{Name: "brand", Kind: dataset.KindString},
		dataset.Field{Name: "price", Kind: dataset.KindFloat},
	))
	tab.AppendValues(dataset.String("A"), dataset.String("USB Cable"), dataset.String("Anker"), dataset.Float(10))
	tab.AppendValues(dataset.String("A"), dataset.String("USB Cable"), dataset.String("Anker"), dataset.Float(10))
	tab.AppendValues(dataset.String("B"), dataset.String("Desk Lamp"), dataset.String("Voltix"), dataset.Float(40))
	tab.AppendValues(dataset.Null(), dataset.String("USB Cable"), dataset.Null(), dataset.Float(20))

	r := NewResolver("sku", "name", "brand", "price")
	same := r.Features(tab, 0, 1)
	for i, f := range same {
		if f != 1 {
			t.Errorf("identical records feature %s = %f, want 1", FeatureNames[i], f)
		}
	}
	diff := r.Features(tab, 0, 2)
	if diff[0] != 0 || diff[1] > 0.8 {
		t.Errorf("different records should score low: %v", diff)
	}
	nulls := r.Features(tab, 0, 3)
	if nulls[0] != Missing || nulls[2] != Missing {
		t.Errorf("null fields should be Missing: %v", nulls)
	}
	if nulls[3] != 0.5 {
		t.Errorf("price 10 vs 20 similarity = %f, want 0.5", nulls[3])
	}
}

func TestScoreNormalised(t *testing.T) {
	r := NewResolver("sku", "name", "brand", "price")
	if s := r.Score([]float64{1, 1, 1, 1}); s != 1 {
		t.Errorf("all-ones score = %f, want 1", s)
	}
	if s := r.Score([]float64{0, 0, 0, 0}); s != 0 {
		t.Errorf("all-zero score = %f, want 0", s)
	}
	r.Weights = []float64{0, 0, 0, 0}
	if s := r.Score([]float64{1, 1, 1, 1}); s != 0 {
		t.Error("zero weights should score 0")
	}
}

func TestLearnImprovesThreshold(t *testing.T) {
	tab, truth := dupTable(4, 80)
	r := NewResolver("sku", "name", "brand", "price")
	// Deliberately mis-set the threshold so the resolver over-merges.
	r.Threshold = 0.55
	before, err := r.Resolve(tab)
	if err != nil {
		t.Fatal(err)
	}
	_, _, f1Before := PairwiseMetrics(before, truth)

	// Label a sample of candidate pairs using ground truth (simulated
	// reliable crowd).
	pairs := r.CandidatePairs(tab)
	var labels []LabeledPair
	for i, p := range pairs {
		if i%2 == 0 {
			labels = append(labels, LabeledPair{Pair: p, Duplicate: truth[p.I] == truth[p.J]})
		}
	}
	trainF1 := r.Learn(tab, labels)
	if trainF1 <= 0 {
		t.Fatalf("training F1 = %f", trainF1)
	}
	after, err := r.Resolve(tab)
	if err != nil {
		t.Fatal(err)
	}
	_, _, f1After := PairwiseMetrics(after, truth)
	if f1After <= f1Before {
		t.Errorf("learning should improve F1: before %f after %f", f1Before, f1After)
	}
}

// TestLearnIsLabelOrderSensitive shows why callers must hand Learn its
// labels in one fixed order: Learn sums feature values in label order,
// and float addition does not associate, so the same labels shuffled
// adopt weights that differ in the last bits.
func TestLearnIsLabelOrderSensitive(t *testing.T) {
	tab, truth := dupTable(4, 80)
	var labels []LabeledPair
	for _, p := range NewResolver("sku", "name", "brand", "price").CandidatePairs(tab) {
		labels = append(labels, LabeledPair{Pair: p, Duplicate: truth[p.I] == truth[p.J]})
	}
	learn := func(labels []LabeledPair) []float64 {
		r := NewResolver("sku", "name", "brand", "price")
		r.Threshold = 0.55 // mis-set, as in TestLearnImprovesThreshold, so the fit is adopted
		if r.Learn(tab, labels); slices.Equal(r.Weights, NewResolver("sku", "name", "brand", "price").Weights) {
			t.Fatal("Learn adopted nothing")
		}
		return r.Weights
	}
	bits := func(w []float64) []uint64 {
		out := make([]uint64, len(w))
		for i, x := range w {
			out[i] = math.Float64bits(x)
		}
		return out
	}
	want := bits(learn(labels))
	if !slices.Equal(bits(learn(slices.Clone(labels))), want) {
		t.Fatal("Learn is not deterministic over one label order")
	}
	rng := rand.New(rand.NewSource(4))
	for k := 0; k < 10; k++ {
		shuffled := slices.Clone(labels)
		rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		if !slices.Equal(bits(learn(shuffled)), want) {
			return
		}
	}
	t.Error("ten shuffles of the labels all adopted the same weight bits; order no longer matters")
}

func TestLearnNoLabelsNoop(t *testing.T) {
	tab, _ := dupTable(5, 10)
	r := NewResolver("sku", "name", "brand", "price")
	th := r.Threshold
	w := append([]float64(nil), r.Weights...)
	if got := r.Learn(tab, nil); got != 0 {
		t.Error("no labels should return 0")
	}
	if r.Threshold != th {
		t.Error("threshold must not move without labels")
	}
	for i := range w {
		if r.Weights[i] != w[i] {
			t.Error("weights must not move without labels")
		}
	}
}

func TestPairwiseMetrics(t *testing.T) {
	c := &Clustering{Assign: []int{0, 0, 1, 1}, Num: 2}
	truth := []string{"a", "a", "a", "b"}
	p, r, f := PairwiseMetrics(c, truth)
	// Truth pairs: (0,1),(0,2),(1,2). Predicted: (0,1),(2,3).
	// tp=1 (0,1); fp=1 (2,3); fn=2.
	if p != 0.5 {
		t.Errorf("precision = %f, want 0.5", p)
	}
	if r != 1.0/3.0 {
		t.Errorf("recall = %f, want 1/3", r)
	}
	if f <= 0 {
		t.Errorf("f1 = %f", f)
	}
}

func TestPairwiseMetricsIgnoresUnlabelled(t *testing.T) {
	c := &Clustering{Assign: []int{0, 0, 0}, Num: 1}
	truth := []string{"a", "", "a"}
	p, r, _ := PairwiseMetrics(c, truth)
	if p != 1 || r != 1 {
		t.Errorf("unlabelled rows must be skipped: p=%f r=%f", p, r)
	}
}

// Property: Resolve yields a valid partition — every row assigned, ids
// dense in [0, Num).
func TestResolvePartitionProperty(t *testing.T) {
	f := func(seed int64) bool {
		tab, _ := dupTable(seed%1000, 20)
		r := NewResolver("sku", "name", "brand", "price")
		c, err := r.Resolve(tab)
		if err != nil || len(c.Assign) != tab.Len() {
			return false
		}
		seen := map[int]bool{}
		for _, id := range c.Assign {
			if id < 0 || id >= c.Num {
				return false
			}
			seen[id] = true
		}
		return len(seen) == c.Num
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// Property: clustering is deterministic for a fixed table.
func TestResolveDeterministicProperty(t *testing.T) {
	tab, _ := dupTable(6, 40)
	r := NewResolver("sku", "name", "brand", "price")
	c1, err1 := r.Resolve(tab)
	c2, err2 := r.Resolve(tab)
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	for i := range c1.Assign {
		if c1.Assign[i] != c2.Assign[i] {
			t.Fatal("non-deterministic clustering")
		}
	}
}

func TestClustersRoundTrip(t *testing.T) {
	c := &Clustering{Assign: []int{0, 1, 0, 2, 1}, Num: 3}
	cl := c.Clusters()
	if len(cl) != 3 {
		t.Fatal("cluster count wrong")
	}
	total := 0
	for id, rows := range cl {
		total += len(rows)
		for _, row := range rows {
			if c.Assign[row] != id {
				t.Fatal("cluster membership inconsistent")
			}
		}
	}
	if total != 5 {
		t.Error("rows lost")
	}
}
