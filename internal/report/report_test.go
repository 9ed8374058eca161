package report

import (
	"strings"
	"testing"

	"repro/internal/dataset"
	"repro/internal/fusion"
)

// results is a ResultSource with no supporter bookkeeping.
type results []fusion.Result

func (r results) Results() []fusion.Result { return r }
func (results) Supporters(int) []string    { return nil }

func sample() results {
	return results{
		{Entity: "e2", Attribute: "price", Value: dataset.Float(4.99), Confidence: 0.9, Conflict: false},
		{Entity: "e1", Attribute: "price", Value: dataset.Float(7.50), Confidence: 0.55, Conflict: true},
		{Entity: "e1", Attribute: "name", Value: dataset.String("USB Cable"), Confidence: 1.0},
		{Entity: "e3", Attribute: "price", Value: dataset.Null(), Confidence: 0},
		{Entity: "e1", Attribute: "brand", Value: dataset.String("Anker"), Confidence: 0.8},
	}
}

func TestBuildSortedAndFiltered(t *testing.T) {
	r := Build(sample(), "prices", []string{"price"})
	if len(r.Lines) != 2 {
		t.Fatalf("lines = %d", len(r.Lines))
	}
	if r.Lines[0].Entity != "e1" || r.Lines[1].Entity != "e2" {
		t.Errorf("not sorted: %+v", r.Lines)
	}
	all := Build(sample(), "all", nil)
	if len(all.Lines) != 4 { // null dropped
		t.Errorf("all lines = %d, want 4", len(all.Lines))
	}
}

func TestConflictedAndLowConfidence(t *testing.T) {
	r := Build(sample(), "all", nil)
	conf := r.Conflicted()
	if len(conf) != 1 || conf[0].Entity != "e1" || conf[0].Attribute != "price" {
		t.Errorf("conflicted = %+v", conf)
	}
	low := r.LowConfidence(0.85)
	if len(low) != 2 {
		t.Fatalf("low confidence = %+v", low)
	}
	if low[0].Confidence > low[1].Confidence {
		t.Error("low-confidence lines not ascending")
	}
}

func TestFormat(t *testing.T) {
	r := Build(sample(), "demo", nil)
	s := r.Format(2)
	if !strings.Contains(s, "demo") || !strings.Contains(s, "more lines") {
		t.Errorf("format = %s", s)
	}
	full := r.Format(0)
	if strings.Contains(full, "more lines") {
		t.Error("maxLines=0 should render everything")
	}
	if !strings.Contains(full, "!") {
		t.Error("conflict flag missing")
	}
}

func TestSummarise(t *testing.T) {
	r := Build(sample(), "all", nil)
	s := r.Summarise()
	if s.Lines != 4 || s.Conflicts != 1 {
		t.Errorf("summary = %+v", s)
	}
	if s.MeanConfidence <= 0 || s.MeanConfidence > 1 {
		t.Errorf("mean confidence = %f", s.MeanConfidence)
	}
	empty := &Report{}
	if es := empty.Summarise(); es.Lines != 0 || es.MeanConfidence != 0 {
		t.Errorf("empty summary = %+v", es)
	}
}

func TestAnnotationHandle(t *testing.T) {
	l := Line{Entity: "e1", Attribute: "price"}
	e, a := l.AnnotationHandle()
	if e != "e1" || a != "price" {
		t.Error("handle wrong")
	}
}
