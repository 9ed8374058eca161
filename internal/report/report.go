// Package report renders wrangled data as the reports Example 5 of the
// paper describes: "reports are studied by the data scientists ... who can
// annotate the data values in the report, for example, to identify which
// are correct or incorrect". Each report line carries the fused value,
// its confidence, the conflict flag and the supporting sources, plus a
// ready-made annotation handle (entity + attribute) so a reader's verdict
// can be posted straight back as feedback.
package report

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"repro/internal/fusion"
)

// Line is one (entity, attribute) of the report.
type Line struct {
	Entity     string
	Attribute  string
	Value      string
	Confidence float64
	Conflict   bool
	Supporters []string // sources backing the fused value
}

// AnnotationHandle returns the (entity, attribute) pair a reader's
// feedback item should carry.
func (l Line) AnnotationHandle() (string, string) { return l.Entity, l.Attribute }

// Report is a rendered snapshot of fused results.
type Report struct {
	Title string
	Lines []Line
}

// ResultSource is the slice of a wrangler a report is built from: the
// fused results plus the fusion bookkeeping that says which sources back
// each fused value, asked by result index. *core.Wrangler satisfies it;
// keeping it an interface lets the serving layer publish prebuilt reports
// without the report package depending on the orchestrator.
type ResultSource interface {
	Results() []fusion.Result
	Supporters(i int) []string // the sources backing Results()[i]
}

// Build assembles a report from a wrangler's current results, restricted
// to the given attributes (nil = all). Lines are sorted by entity then
// attribute; low-confidence lines sort identically but are marked.
// Line.Supporters is what the source returned, not a copy.
func Build(w ResultSource, title string, attributes []string) *Report {
	want := map[string]bool{}
	for _, a := range attributes {
		want[a] = true
	}
	results := w.Results()
	keep := func(res *fusion.Result) bool {
		return !res.Value.IsNull() && (len(want) == 0 || want[res.Attribute])
	}
	n := 0
	for i := range results {
		if keep(&results[i]) {
			n++
		}
	}
	r := &Report{Title: title}
	if n > 0 {
		r.Lines = make([]Line, 0, n)
	}
	for i := range results {
		res := &results[i]
		if !keep(res) {
			continue
		}
		r.Lines = append(r.Lines, Line{
			Entity:     res.Entity,
			Attribute:  res.Attribute,
			Value:      res.Value.String(),
			Confidence: res.Confidence,
			Conflict:   res.Conflict,
			Supporters: w.Supporters(i),
		})
	}
	// Results come in (entity, attribute) order from the integration tail,
	// so the lines usually are already sorted.
	if !slices.IsSortedFunc(r.Lines, CompareLines) {
		slices.SortFunc(r.Lines, CompareLines)
	}
	return r
}

// CompareLines is the report's line order: by entity, then attribute.
func CompareLines(a, b Line) int {
	if c := strings.Compare(a.Entity, b.Entity); c != 0 {
		return c
	}
	return strings.Compare(a.Attribute, b.Attribute)
}

// Filter returns a retitled report restricted to the given attributes
// (none = all lines). Lines are shared with the receiver, not copied —
// filtering a committed snapshot report allocates only the line slice.
func (r *Report) Filter(title string, attributes ...string) *Report {
	out := &Report{Title: title}
	if len(attributes) == 0 {
		out.Lines = append(out.Lines, r.Lines...)
		return out
	}
	want := map[string]bool{}
	for _, a := range attributes {
		want[a] = true
	}
	for _, l := range r.Lines {
		if want[l.Attribute] {
			out.Lines = append(out.Lines, l)
		}
	}
	return out
}

// Conflicted returns only the lines where sources disagreed — the lines a
// reviewer should look at first.
func (r *Report) Conflicted() []Line {
	var out []Line
	for _, l := range r.Lines {
		if l.Conflict {
			out = append(out, l)
		}
	}
	return out
}

// LowConfidence returns lines whose fused confidence is below the
// threshold, sorted ascending by confidence — the cheapest places to
// spend a feedback budget.
func (r *Report) LowConfidence(threshold float64) []Line {
	var out []Line
	for _, l := range r.Lines {
		if l.Confidence < threshold {
			out = append(out, l)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Confidence != out[j].Confidence {
			return out[i].Confidence < out[j].Confidence
		}
		if out[i].Entity != out[j].Entity {
			return out[i].Entity < out[j].Entity
		}
		return out[i].Attribute < out[j].Attribute
	})
	return out
}

// Format renders the report as aligned text, flagging conflicts with '!'
// and listing supporters.
func (r *Report) Format(maxLines int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "=== %s (%d lines) ===\n", r.Title, len(r.Lines))
	n := len(r.Lines)
	if maxLines > 0 && maxLines < n {
		n = maxLines
	}
	for _, l := range r.Lines[:n] {
		flag := " "
		if l.Conflict {
			flag = "!"
		}
		fmt.Fprintf(&b, "%s %-12s %-10s %-32s conf=%.2f  [%s]\n",
			flag, l.Entity, l.Attribute, truncate(l.Value, 32), l.Confidence, strings.Join(l.Supporters, ","))
	}
	if len(r.Lines) > n {
		fmt.Fprintf(&b, "… %d more lines\n", len(r.Lines)-n)
	}
	return b.String()
}

func truncate(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n-1] + "…"
}

// Summary aggregates the report: line count, conflict share and mean
// confidence.
type Summary struct {
	Lines          int
	Conflicts      int
	MeanConfidence float64
}

// Summarise computes the summary.
func (r *Report) Summarise() Summary {
	s := Summary{Lines: len(r.Lines)}
	sum := 0.0
	for _, l := range r.Lines {
		if l.Conflict {
			s.Conflicts++
		}
		sum += l.Confidence
	}
	if s.Lines > 0 {
		s.MeanConfidence = sum / float64(s.Lines)
	}
	return s
}
