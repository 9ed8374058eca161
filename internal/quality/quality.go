// Package quality implements the Quality store of the working data
// (Figure 1): analyses that "may apply to individual data sources, the
// results of different extractions and components of relevance to
// integration". It measures the §2.1 criteria the user context trades off
// — completeness, accuracy, timeliness, consistency — and implements
// conditional functional dependencies with a cost-based repair heuristic
// in the spirit of Bohannon et al. [7].
package quality

import (
	"fmt"
	"math"
	"time"

	"repro/internal/dataset"
	"repro/internal/text"
)

// Scorecard is the per-artefact quality summary stored in working data.
type Scorecard struct {
	Completeness float64 // fraction of non-null cells
	Accuracy     float64 // agreement with reference data (NaN if unknown)
	Timeliness   float64 // freshness score in [0,1] (NaN if unknown)
	Consistency  float64 // fraction of rows violating no dependency
	Rows         int
}

// Utility collapses a scorecard into one number with the given weights
// (unknown dimensions are skipped and the weights renormalised).
func (s Scorecard) Utility(wCompleteness, wAccuracy, wTimeliness, wConsistency float64) float64 {
	total, wsum := 0.0, 0.0
	add := func(v, w float64) {
		if !math.IsNaN(v) && w > 0 {
			total += v * w
			wsum += w
		}
	}
	add(s.Completeness, wCompleteness)
	add(s.Accuracy, wAccuracy)
	add(s.Timeliness, wTimeliness)
	add(s.Consistency, wConsistency)
	if wsum == 0 {
		return 0
	}
	return total / wsum
}

// Completeness returns the fraction of non-null cells in the table.
func Completeness(t *dataset.Table) float64 {
	if t.Len() == 0 || len(t.Schema()) == 0 {
		return 0
	}
	filled, total := 0, 0
	for _, r := range t.Rows() {
		for _, v := range r {
			total++
			if !v.IsNull() {
				filled++
			}
		}
	}
	return float64(filled) / float64(total)
}

// Accuracy compares the table against reference data on a shared key:
// the fraction of paired non-null cells that agree (normalised text, 2%
// numeric tolerance). Returns NaN when nothing could be compared.
func Accuracy(t, reference *dataset.Table, keyCol string) float64 {
	kc := t.Schema().Index(keyCol)
	rkc := reference.Schema().Index(keyCol)
	if kc < 0 || rkc < 0 {
		return math.NaN()
	}
	refByKey := map[string]dataset.Record{}
	for _, r := range reference.Rows() {
		if !r[rkc].IsNull() {
			refByKey[text.Normalize(r[rkc].String())] = r
		}
	}
	agree, total := 0, 0
	for _, r := range t.Rows() {
		if r[kc].IsNull() {
			continue
		}
		ref, ok := refByKey[text.Normalize(r[kc].String())]
		if !ok {
			continue
		}
		for i, f := range t.Schema() {
			if i == kc || r[i].IsNull() {
				continue
			}
			ri := reference.Schema().Index(f.Name)
			if ri < 0 || ref[ri].IsNull() {
				continue
			}
			total++
			if agreeValues(r[i], ref[ri]) {
				agree++
			}
		}
	}
	if total == 0 {
		return math.NaN()
	}
	return float64(agree) / float64(total)
}

func agreeValues(a, b dataset.Value) bool {
	if a.IsNumeric() && b.IsNumeric() {
		x, y := a.FloatVal(), b.FloatVal()
		den := math.Max(math.Abs(x), math.Abs(y))
		if den == 0 {
			return true
		}
		return math.Abs(x-y)/den <= 0.02
	}
	return text.Normalize(a.String()) == text.Normalize(b.String())
}

// Timeliness scores the freshness of a timestamp column with exponential
// decay: value 1 at age 0, 0.5 at halfLife. Rows with null timestamps are
// scored 0. Returns NaN if the column is missing or never parseable.
func Timeliness(t *dataset.Table, timeCol string, now time.Time, halfLife time.Duration) float64 {
	c := t.Schema().Index(timeCol)
	if c < 0 || t.Len() == 0 || halfLife <= 0 {
		return math.NaN()
	}
	sum, n := 0.0, 0
	for _, r := range t.Rows() {
		v := r[c]
		var ts time.Time
		switch {
		case v.Kind() == dataset.KindTime:
			ts = v.TimeVal()
		case !v.IsNull():
			if cv, ok := v.Coerce(dataset.KindTime); ok {
				ts = cv.TimeVal()
			}
		}
		n++
		if ts.IsZero() {
			continue // counts as 0
		}
		age := now.Sub(ts)
		if age < 0 {
			age = 0
		}
		sum += math.Pow(0.5, float64(age)/float64(halfLife))
	}
	if n == 0 {
		return math.NaN()
	}
	return sum / float64(n)
}

// CFD is a conditional functional dependency: within rows matching the
// condition (ConditionCol = ConditionVal, or all rows if ConditionCol is
// empty), LHS values determine RHS values.
type CFD struct {
	ConditionCol string
	ConditionVal string // normalised comparison
	LHS          []string
	RHS          string
}

// String renders the dependency.
func (d CFD) String() string {
	cond := ""
	if d.ConditionCol != "" {
		cond = fmt.Sprintf("[%s=%s] ", d.ConditionCol, d.ConditionVal)
	}
	return fmt.Sprintf("%s%v -> %s", cond, d.LHS, d.RHS)
}

// cfdColumns is a CFD's columns resolved against a schema.
type cfdColumns struct {
	lhs       []int
	rhs, cond int // cond is -1 for an unconditional dependency
}

func (d CFD) resolve(schema dataset.Schema) (cfdColumns, error) {
	cols := cfdColumns{lhs: make([]int, len(d.LHS)), cond: -1}
	for i, col := range d.LHS {
		cols.lhs[i] = schema.Index(col)
		if cols.lhs[i] < 0 {
			return cols, fmt.Errorf("quality: cfd lhs column %q missing", col)
		}
	}
	cols.rhs = schema.Index(d.RHS)
	if cols.rhs < 0 {
		return cols, fmt.Errorf("quality: cfd rhs column %q missing", d.RHS)
	}
	if d.ConditionCol != "" {
		cols.cond = schema.Index(d.ConditionCol)
		if cols.cond < 0 {
			return cols, fmt.Errorf("quality: cfd condition column %q missing", d.ConditionCol)
		}
	}
	return cols, nil
}

// cfdGroups renders a general CFD as the kernel's grouping: rows outside
// the condition get group -1, the others a dense id per distinct LHS key
// tuple (a null is a key value like any other).
func (p *Profile) cfdGroups(cfd CFD, cols cfdColumns) (group []int32, nGroups int) {
	group, nGroups = make([]int32, p.rows), 1
	for k, ci := range cols.lhs {
		keys, n := p.keyGroups(ci)
		if k == 0 {
			group, nGroups = keys, n // one column's key ids are dense already
			continue
		}
		tuples := map[int64]int32{}
		for i, g := range group {
			group[i] = intern64(tuples, int64(g)*int64(n)+int64(keys[i]))
		}
		nGroups = len(tuples)
	}
	if cols.cond >= 0 {
		// A null condition cell compares as the empty string, like the
		// string form of the check did.
		want := text.Normalize(cfd.ConditionVal)
		wantID, known := p.dict.cols[cols.cond].norm[want]
		for i, id := range p.cols[cols.cond].normID {
			if !(id < 0 && want == "") && !(known && id == wantID) {
				group[i] = -1
			}
		}
	}
	return group, nGroups
}

func intern64(m map[int64]int32, k int64) int32 {
	id, ok := m[k]
	if !ok {
		id = int32(len(m))
		m[k] = id
	}
	return id
}

// Consistency returns the fraction of rows not involved in any violation
// of the given dependencies.
func Consistency(t *dataset.Table, cfds []CFD) (float64, error) {
	if t.Len() == 0 {
		return 1, nil
	}
	p := profileOf(t)
	bad := map[int]bool{}
	for _, cfd := range cfds {
		cols, err := cfd.resolve(t.Schema())
		if err != nil {
			return 0, err
		}
		group, nGroups := p.cfdGroups(cfd, cols)
		for _, v := range p.violators(group, nGroups, cols.rhs) {
			bad[int(v.row)] = true
		}
	}
	return 1 - float64(len(bad))/float64(t.Len()), nil
}

// repairCFD repairs one dependency's violations in t (see Profile.repair)
// and returns the number of cells changed.
func (p *Profile) repairCFD(t *dataset.Table, cfd CFD, owned []bool) (int, error) {
	cols, err := cfd.resolve(t.Schema())
	if err != nil {
		return 0, err
	}
	group, nGroups := p.cfdGroups(cfd, cols)
	vs := p.violators(group, nGroups, cols.rhs)
	p.repair(t, vs, cols.rhs, owned)
	return len(vs), nil
}

// Assess produces a full scorecard in one pass. reference, timeCol and
// cfds may be zero-valued to skip those dimensions (reported as NaN /
// 1.0 respectively).
func Assess(t *dataset.Table, reference *dataset.Table, keyCol, timeCol string, now time.Time, halfLife time.Duration, cfds []CFD) (Scorecard, error) {
	sc := Scorecard{
		Completeness: Completeness(t),
		Accuracy:     math.NaN(),
		Timeliness:   math.NaN(),
		Consistency:  1,
		Rows:         t.Len(),
	}
	if reference != nil && keyCol != "" {
		sc.Accuracy = Accuracy(t, reference, keyCol)
	}
	if timeCol != "" {
		sc.Timeliness = Timeliness(t, timeCol, now, halfLife)
	}
	if len(cfds) > 0 {
		c, err := Consistency(t, cfds)
		if err != nil {
			return sc, err
		}
		sc.Consistency = c
	}
	return sc, nil
}
