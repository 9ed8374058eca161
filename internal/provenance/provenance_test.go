package provenance

import (
	"fmt"
	"strings"
	"sync"
	"testing"
)

func TestPutGet(t *testing.T) {
	g := NewGraph()
	src := Ref{KindSource, "s1"}
	ext := Ref{KindExtraction, "e1"}
	rec := g.Put(ext, "extract.Run", []Ref{src}, "")
	if rec.Step != 1 {
		t.Error("first step should be 1")
	}
	recs := g.RecordsSince(0)
	if len(recs) != 1 || recs[0].Artefact != ext || recs[0].Component != "extract.Run" || len(recs[0].Inputs) != 1 {
		t.Fatalf("RecordsSince(0) = %+v", recs)
	}
	if g.Len() != 1 {
		t.Error("Len wrong")
	}
}

func pipeline(g *Graph) {
	s1 := Ref{KindSource, "s1"}
	s2 := Ref{KindSource, "s2"}
	w1 := Ref{KindWrapper, "w1"}
	e1 := Ref{KindExtraction, "e1"}
	e2 := Ref{KindExtraction, "e2"}
	m := Ref{KindMapping, "m1"}
	f := Ref{KindFusion, "wrangled"}
	g.Put(w1, "extract.Induce", []Ref{s1}, "")
	g.Put(e1, "extract.Run", []Ref{s1, w1}, "")
	g.Put(e2, "extract.Run", []Ref{s2}, "")
	g.Put(m, "mapping.Generate", []Ref{e1, e2}, "")
	g.Put(f, "fusion.Fuse", []Ref{m}, "")
}

func TestReplaceDerivation(t *testing.T) {
	g := NewGraph()
	pipeline(g)
	// Re-derive e1 from s2 only: the new record replaces the old one at
	// a later step.
	n := g.Len()
	g.Put(Ref{KindExtraction, "e1"}, "extract.Run", []Ref{{KindSource, "s2"}}, "repaired")
	if g.Len() != n {
		t.Errorf("Len = %d after rederivation, want %d", g.Len(), n)
	}
	if !strings.Contains(g.Dump(), "extraction:e1 ← extract.Run(source:s2) @6 repaired\n") {
		t.Errorf("e1 not re-derived from s2:\n%s", g.Dump())
	}
	if recs := g.RecordsSince(5); len(recs) != 1 || recs[0].Note != "repaired" {
		t.Errorf("RecordsSince(5) = %+v, want the one re-derivation", recs)
	}
}

func TestConcurrentAccess(t *testing.T) {
	g := NewGraph()
	var wg sync.WaitGroup
	for i := 0; i < 20; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			src := Ref{KindSource, fmt.Sprintf("s%d", i)}
			ext := Ref{KindExtraction, fmt.Sprintf("e%d", i)}
			g.Put(ext, "extract.Run", []Ref{src}, "")
			g.RecordsSince(0)
			g.Dump()
		}(i)
	}
	wg.Wait()
	if g.Len() != 20 {
		t.Errorf("Len = %d, want 20", g.Len())
	}
}
