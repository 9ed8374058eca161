package experiments

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/dataset"
	"repro/internal/scale"
)

// E6Row is one table-size point of the bounded-evaluation sweep.
type E6Row struct {
	Rows        int
	BoundedWork int
	ScanWork    int
	BoundedNs   int64
	ScanNs      int64
	Equal       bool
}

// E6BoundedEvaluation reproduces the §4.3 scale-independence argument
// ([2, 17]): with access/index information, query work stays flat as data
// grows, while scans grow linearly. Workload: point-selection plus a
// one-hop join per table size.
func E6BoundedEvaluation(sizes []int) (Table, []E6Row) {
	var rows []E6Row
	for _, n := range sizes {
		tab := dataset.NewTable(dataset.MustSchema(
			dataset.Field{Name: "sku", Kind: dataset.KindString},
			dataset.Field{Name: "cat", Kind: dataset.KindString},
		))
		for i := 0; i < n; i++ {
			tab.AppendValues(
				dataset.String(fmt.Sprintf("SKU-%07d", i)),
				dataset.String(fmt.Sprintf("cat-%d", i%100)),
			)
		}
		cats := dataset.NewTable(dataset.MustSchema(
			dataset.Field{Name: "cat", Kind: dataset.KindString},
			dataset.Field{Name: "mgr", Kind: dataset.KindString},
		))
		for i := 0; i < 100; i++ {
			cats.AppendValues(dataset.String(fmt.Sprintf("cat-%d", i)), dataset.String(fmt.Sprintf("mgr-%d", i%9)))
		}
		lix, _ := scale.NewIndexed(tab, "sku", "cat")
		rix, _ := scale.NewIndexed(cats, "cat")
		probe := dataset.String(fmt.Sprintf("SKU-%07d", n/2))

		lix.ResetWork()
		rix.ResetWork()
		t0 := time.Now()
		bres, err := scale.BoundedJoin(lix, "sku", probe, "cat", rix, "cat")
		if err != nil {
			panic("experiments: E6: " + err.Error())
		}
		boundedNs := time.Since(t0).Nanoseconds()
		boundedWork := lix.Touched() + rix.Touched()

		lix.ResetWork()
		rix.ResetWork()
		t1 := time.Now()
		sres := scale.ScanJoin(lix, "sku", probe, "cat", rix, "cat")
		scanNs := time.Since(t1).Nanoseconds()
		scanWork := lix.Touched() + rix.Touched()

		rows = append(rows, E6Row{
			Rows: n, BoundedWork: boundedWork, ScanWork: scanWork,
			BoundedNs: boundedNs, ScanNs: scanNs,
			Equal: len(bres) == len(sres),
		})
	}
	t := Table{
		ID:      "E6",
		Title:   "Bounded (scale-independent) evaluation vs full scan",
		Claim:   `"understanding the requirement for query scalability that can be provided in terms of access and indexing information" (§4.3, [2,17])`,
		Columns: []string{"rows", "bounded work", "scan work", "bounded µs", "scan µs", "answers equal"},
	}
	for _, r := range rows {
		t.AddRow(d(r.Rows), d(r.BoundedWork), d(r.ScanWork),
			fmt.Sprintf("%.1f", float64(r.BoundedNs)/1000), fmt.Sprintf("%.1f", float64(r.ScanNs)/1000),
			fmt.Sprintf("%v", r.Equal))
	}
	t.Notes = "bounded work is constant in table size; scan work grows linearly"
	return t, rows
}

// E7Row is one query's exact-vs-approximate comparison.
type E7Row struct {
	Query      string
	ExactWork  int
	ApproxWork int
	ExactRows  int
	ApproxRows int
	Contained  bool
}

// E7CQApproximation reproduces the §4.3 static-approximation proposal
// ([4] Barceló-Libkin-Romero): cyclic conjunctive queries are replaced —
// without looking at the data — by acyclic under-approximations that
// evaluate with less work while returning only correct answers.
func E7CQApproximation(seed int64, nodes, edges int) (Table, []E7Row) {
	rng := rand.New(rand.NewSource(seed))
	g := scale.NewGraph()
	for i := 0; i < edges; i++ {
		g.Add("E", fmt.Sprintf("n%d", rng.Intn(nodes)), fmt.Sprintf("n%d", rng.Intn(nodes)))
	}
	queries := []struct {
		name string
		q    scale.CQ
	}{
		{"triangle", scale.CQ{Head: []string{"x", "y"}, Body: []scale.Atom{
			{Rel: "E", X: "x", Y: "y"}, {Rel: "E", X: "y", Y: "z"}, {Rel: "E", X: "z", Y: "x"},
		}}},
		{"square", scale.CQ{Head: []string{"x"}, Body: []scale.Atom{
			{Rel: "E", X: "x", Y: "y"}, {Rel: "E", X: "y", Y: "z"},
			{Rel: "E", X: "z", Y: "w"}, {Rel: "E", X: "w", Y: "x"},
		}}},
		{"triangle+tail", scale.CQ{Head: []string{"x", "t"}, Body: []scale.Atom{
			{Rel: "E", X: "x", Y: "y"}, {Rel: "E", X: "y", Y: "z"},
			{Rel: "E", X: "z", Y: "x"}, {Rel: "E", X: "x", Y: "t"},
		}}},
	}
	var rows []E7Row
	for _, qc := range queries {
		exact, workE, err := g.Eval(qc.q)
		if err != nil {
			panic("experiments: E7 exact: " + err.Error())
		}
		aq := scale.Approximate(qc.q)
		approx, workA, err := g.Eval(aq)
		if err != nil {
			panic("experiments: E7 approx: " + err.Error())
		}
		rows = append(rows, E7Row{
			Query: qc.name, ExactWork: workE, ApproxWork: workA,
			ExactRows: len(exact), ApproxRows: len(approx),
			Contained: scale.Contained(approx, exact),
		})
	}
	t := Table{
		ID:      "E7",
		Title:   "Static under-approximation of conjunctive queries",
		Claim:   `"developing static techniques for query approximation (i.e., without looking at the data) as was initiated in [4]" (§4.3)`,
		Columns: []string{"query", "exact work", "approx work", "exact rows", "approx rows", "contained"},
	}
	for _, r := range rows {
		t.AddRow(r.Query, d(r.ExactWork), d(r.ApproxWork), d(r.ExactRows), d(r.ApproxRows), fmt.Sprintf("%v", r.Contained))
	}
	t.Notes = "approx answers are always a subset of exact; work drops on cyclic queries"
	return t, rows
}
