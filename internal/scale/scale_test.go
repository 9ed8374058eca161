package scale

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/dataset"
)

func bigTable(n int) *dataset.Table {
	t := dataset.NewTable(dataset.MustSchema(
		dataset.Field{Name: "sku", Kind: dataset.KindString},
		dataset.Field{Name: "cat", Kind: dataset.KindString},
		dataset.Field{Name: "price", Kind: dataset.KindFloat},
	))
	for i := 0; i < n; i++ {
		t.AppendValues(
			dataset.String(fmt.Sprintf("SKU-%06d", i)),
			dataset.String(fmt.Sprintf("cat-%d", i%50)),
			dataset.Float(float64(i%997)),
		)
	}
	return t
}

func TestIndexedLookup(t *testing.T) {
	tab := bigTable(10000)
	ix, err := NewIndexed(tab, "sku", "cat")
	if err != nil {
		t.Fatal(err)
	}
	rows, err := ix.Lookup("sku", dataset.String("SKU-000042"))
	if err != nil || len(rows) != 1 {
		t.Fatalf("lookup = %d rows, err %v", len(rows), err)
	}
	if ix.Touched() != 1 {
		t.Errorf("bounded lookup touched %d rows, want 1", ix.Touched())
	}
	// Unindexed access must refuse rather than scan.
	if _, err := ix.Lookup("price", dataset.Float(3)); err == nil {
		t.Error("lookup on unindexed column should refuse")
	}
	if _, err := NewIndexed(tab, "ghost"); err == nil {
		t.Error("indexing a missing column should fail")
	}
}

func TestBoundedVsScanWork(t *testing.T) {
	tab := bigTable(10000)
	ix, _ := NewIndexed(tab, "cat")
	ix.ResetWork()
	bounded, _ := ix.Lookup("cat", dataset.String("cat-7"))
	boundedWork := ix.Touched()

	// A scan applying the same predicate touches every row.
	scanned := tab.Select(func(r dataset.Record) bool { return r[1].Equal(dataset.String("cat-7")) })
	scanWork := tab.Len()

	if len(bounded) != scanned.Len() {
		t.Fatalf("bounded %d != scan %d rows", len(bounded), scanned.Len())
	}
	if boundedWork*10 > scanWork {
		t.Errorf("bounded work %d should be far below scan work %d", boundedWork, scanWork)
	}
}

func TestBoundedJoinEquivalence(t *testing.T) {
	left := bigTable(2000)
	rightTab := dataset.NewTable(dataset.MustSchema(
		dataset.Field{Name: "cat", Kind: dataset.KindString},
		dataset.Field{Name: "mgr", Kind: dataset.KindString},
	))
	for i := 0; i < 50; i++ {
		rightTab.AppendValues(dataset.String(fmt.Sprintf("cat-%d", i)), dataset.String(fmt.Sprintf("mgr-%d", i%7)))
	}
	lix, _ := NewIndexed(left, "sku", "cat")
	rix, _ := NewIndexed(rightTab, "cat")

	lix.ResetWork()
	rix.ResetWork()
	bounded, err := BoundedJoin(lix, "sku", dataset.String("SKU-000100"), "cat", rix, "cat")
	if err != nil {
		t.Fatal(err)
	}
	boundedWork := lix.Touched() + rix.Touched()

	lix.ResetWork()
	rix.ResetWork()
	scanned := ScanJoin(lix, "sku", dataset.String("SKU-000100"), "cat", rix, "cat")
	scanWork := lix.Touched() + rix.Touched()

	if len(bounded) != len(scanned) || len(bounded) != 1 {
		t.Fatalf("bounded %d, scan %d, want 1", len(bounded), len(scanned))
	}
	if boundedWork >= scanWork {
		t.Errorf("bounded join work %d >= scan %d", boundedWork, scanWork)
	}
}

func TestBoundedJoinRefusesUnindexed(t *testing.T) {
	left := bigTable(10)
	right := bigTable(10)
	lix, _ := NewIndexed(left, "sku")
	rix, _ := NewIndexed(right, "sku")
	if _, err := BoundedJoin(lix, "sku", dataset.String("SKU-000001"), "cat", rix, "cat"); err == nil {
		t.Error("join through unindexed right column should refuse")
	}
}

// --- CQ tests ---

func triangleQuery() CQ {
	return CQ{
		Head: []string{"x", "y"},
		Body: []Atom{
			{Rel: "E", X: "x", Y: "y"},
			{Rel: "E", X: "y", Y: "z"},
			{Rel: "E", X: "z", Y: "x"},
		},
	}
}

func pathQuery() CQ {
	return CQ{
		Head: []string{"x", "z"},
		Body: []Atom{
			{Rel: "E", X: "x", Y: "y"},
			{Rel: "E", X: "y", Y: "z"},
		},
	}
}

func randomGraph(seed int64, nodes, edges int) *Graph {
	rng := rand.New(rand.NewSource(seed))
	g := NewGraph()
	for i := 0; i < edges; i++ {
		g.Add("E", fmt.Sprintf("n%d", rng.Intn(nodes)), fmt.Sprintf("n%d", rng.Intn(nodes)))
	}
	return g
}

func TestCQValidate(t *testing.T) {
	if err := (CQ{Head: []string{"x"}}).Validate(); err == nil {
		t.Error("empty body should fail")
	}
	if err := (CQ{Head: []string{"w"}, Body: []Atom{{Rel: "E", X: "x", Y: "y"}}}).Validate(); err == nil {
		t.Error("head var not in body should fail")
	}
	if err := pathQuery().Validate(); err != nil {
		t.Error(err)
	}
}

func TestIsAcyclic(t *testing.T) {
	if !pathQuery().IsAcyclic() {
		t.Error("path query is acyclic")
	}
	if triangleQuery().IsAcyclic() {
		t.Error("triangle query is cyclic")
	}
	// Parallel atoms over the same variable pair are not a cycle.
	par := CQ{Head: []string{"x"}, Body: []Atom{
		{Rel: "E", X: "x", Y: "y"}, {Rel: "F", X: "x", Y: "y"},
	}}
	if !par.IsAcyclic() {
		t.Error("parallel edges should not count as a cycle")
	}
	// Self-loop atoms are filters.
	loop := CQ{Head: []string{"x"}, Body: []Atom{{Rel: "E", X: "x", Y: "x"}}}
	if !loop.IsAcyclic() {
		t.Error("self-loop atom is not a cycle")
	}
}

func TestApproximateMakesAcyclic(t *testing.T) {
	q := Approximate(triangleQuery())
	if !q.IsAcyclic() {
		t.Fatalf("approximation still cyclic: %s", q)
	}
	// The path query is already acyclic: must be unchanged.
	p := Approximate(pathQuery())
	if p.String() != pathQuery().String() {
		t.Errorf("acyclic query should be unchanged: %s", p)
	}
}

func TestEvalPathQuery(t *testing.T) {
	g := NewGraph()
	g.Add("E", "a", "b")
	g.Add("E", "b", "c")
	g.Add("E", "c", "d")
	res, work, err := g.Eval(pathQuery())
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 2 {
		t.Fatalf("paths = %v", res)
	}
	if res[0][0] != "a" || res[0][1] != "c" || res[1][0] != "b" || res[1][1] != "d" {
		t.Errorf("results = %v", res)
	}
	if work <= 0 {
		t.Error("work should be counted")
	}
}

func TestEvalTriangle(t *testing.T) {
	g := NewGraph()
	// One triangle a->b->c->a plus noise.
	g.Add("E", "a", "b")
	g.Add("E", "b", "c")
	g.Add("E", "c", "a")
	g.Add("E", "a", "x")
	res, _, err := g.Eval(triangleQuery())
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 3 { // rotations of the triangle
		t.Errorf("triangle results = %v", res)
	}
}

func TestEvalSelfLoopFilter(t *testing.T) {
	g := NewGraph()
	g.Add("E", "a", "a")
	g.Add("E", "a", "b")
	q := CQ{Head: []string{"x"}, Body: []Atom{{Rel: "E", X: "x", Y: "x"}}}
	res, _, err := g.Eval(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 || res[0][0] != "a" {
		t.Errorf("self-loop results = %v", res)
	}
}

func TestApproximationContainment(t *testing.T) {
	g := randomGraph(5, 40, 300)
	exact, _, err := g.Eval(triangleQuery())
	if err != nil {
		t.Fatal(err)
	}
	approx, _, err := g.Eval(Approximate(triangleQuery()))
	if err != nil {
		t.Fatal(err)
	}
	if !Contained(approx, exact) {
		t.Error("approximate answers must be contained in exact answers")
	}
}

// Property: containment holds across random graphs and the approximation
// is always acyclic.
func TestApproximationContainmentProperty(t *testing.T) {
	f := func(seed int64) bool {
		g := randomGraph(seed%500, 25, 120)
		q := triangleQuery()
		aq := Approximate(q)
		if !aq.IsAcyclic() {
			return false
		}
		exact, _, err1 := g.Eval(q)
		approx, _, err2 := g.Eval(aq)
		return err1 == nil && err2 == nil && Contained(approx, exact)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestContained(t *testing.T) {
	a := [][]string{{"1", "2"}}
	b := [][]string{{"1", "2"}, {"3", "4"}}
	if !Contained(a, b) || Contained(b, a) {
		t.Error("Contained wrong")
	}
	if !Contained(nil, nil) {
		t.Error("empty contained in empty")
	}
}

func TestCQString(t *testing.T) {
	s := triangleQuery().String()
	if s == "" || s[:4] != "ans(" {
		t.Errorf("String = %q", s)
	}
}
