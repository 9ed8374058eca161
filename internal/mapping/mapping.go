// Package mapping generates, applies and estimates schema mappings.
// Mapping quality is estimated against reference data ([5] Belhajjame et
// al.), the evidence the §4.1 requirement asks selection to weigh: "the
// selection of which mappings to use must take into account information
// from the user context, such as the number of results required, the
// budget for accessing sources, and quality requirements".
package mapping

import (
	"fmt"

	"repro/internal/dataset"
	"repro/internal/match"
	"repro/internal/text"
)

// Mapping transforms one source table into the target schema: a rename/
// project/cast program derived from schema correspondences.
type Mapping struct {
	ID         string
	SourceID   string
	Target     dataset.Schema
	ColumnMap  map[string]string // target column -> source column ("" = unmapped)
	Confidence float64           // mean correspondence confidence
}

// Generate derives a mapping from correspondences produced by the matcher.
func Generate(id, sourceID string, target dataset.Schema, corrs []match.Correspondence) *Mapping {
	m := &Mapping{ID: id, SourceID: sourceID, Target: target.Clone(), ColumnMap: map[string]string{}}
	sum := 0.0
	for _, c := range corrs {
		m.ColumnMap[c.TargetColumn] = c.SourceColumn
		sum += c.Confidence
	}
	if len(corrs) > 0 {
		m.Confidence = sum / float64(len(corrs))
	}
	return m
}

// Apply transforms the source table into the target schema: unmapped
// columns become null, mapped values are cast to the target kind where
// possible (uncastable values become null rather than failing the row).
func (m *Mapping) Apply(src *dataset.Table) (*dataset.Table, error) {
	srcIdx := make([]int, len(m.Target))
	for i, tf := range m.Target {
		srcIdx[i] = -1
		if sc, ok := m.ColumnMap[tf.Name]; ok && sc != "" {
			srcIdx[i] = src.Schema().Index(sc)
			if srcIdx[i] < 0 {
				return nil, fmt.Errorf("mapping %s: source column %q missing from table", m.ID, sc)
			}
		}
	}
	out := dataset.NewTable(m.Target.Clone())
	for _, r := range src.Rows() {
		row := make(dataset.Record, len(m.Target))
		for i := range m.Target {
			row[i] = dataset.Null()
			if srcIdx[i] < 0 {
				continue
			}
			v := r[srcIdx[i]]
			if v.IsNull() {
				continue
			}
			if cv, ok := v.Coerce(m.Target[i].Kind); ok {
				row[i] = cv
			}
		}
		out.Append(row)
	}
	return out, nil
}

// Quality summarises estimated mapping quality (§2.1: the criteria the
// user context trades off).
type Quality struct {
	Accuracy     float64 // agreement with reference data on overlapping keys
	Completeness float64 // fraction of target cells populated
	Coverage     float64 // fraction of reference entities the source knows
	Rows         int
}

// EstimateQuality applies the mapping and scores it against optional
// reference data (a table in the target schema containing trusted rows,
// e.g. the company's own product catalog — Example 4). keyCol names the
// entity key used to pair rows; accuracy compares paired non-null values
// with normalised-text or 2%-relative-numeric tolerance.
func EstimateQuality(m *Mapping, src *dataset.Table, reference *dataset.Table, keyCol string) (Quality, error) {
	mapped, err := m.Apply(src)
	if err != nil {
		return Quality{}, err
	}
	q := Quality{Rows: mapped.Len()}
	total, filled := 0, 0
	for _, r := range mapped.Rows() {
		for _, v := range r {
			total++
			if !v.IsNull() {
				filled++
			}
		}
	}
	if total > 0 {
		q.Completeness = float64(filled) / float64(total)
	}
	if reference == nil || reference.Len() == 0 {
		return q, nil
	}
	kc := mapped.Schema().Index(keyCol)
	rkc := reference.Schema().Index(keyCol)
	if kc < 0 || rkc < 0 {
		return q, nil
	}
	refByKey := map[string]dataset.Record{}
	for _, r := range reference.Rows() {
		if !r[rkc].IsNull() {
			refByKey[text.Normalize(r[rkc].String())] = r
		}
	}
	agree, compared, covered := 0, 0, map[string]bool{}
	for _, r := range mapped.Rows() {
		if r[kc].IsNull() {
			continue
		}
		key := text.Normalize(r[kc].String())
		ref, ok := refByKey[key]
		if !ok {
			continue
		}
		covered[key] = true
		for i, tf := range mapped.Schema() {
			if i == kc || r[i].IsNull() {
				continue
			}
			ri := reference.Schema().Index(tf.Name)
			if ri < 0 || ref[ri].IsNull() {
				continue
			}
			compared++
			if valuesAgree(r[i], ref[ri]) {
				agree++
			}
		}
	}
	if compared > 0 {
		q.Accuracy = float64(agree) / float64(compared)
	}
	if len(refByKey) > 0 {
		q.Coverage = float64(len(covered)) / float64(len(refByKey))
	}
	return q, nil
}

func valuesAgree(a, b dataset.Value) bool {
	if a.IsNumeric() && b.IsNumeric() {
		av, bv := a.FloatVal(), b.FloatVal()
		if bv == 0 {
			return av == 0
		}
		d := av/bv - 1
		return d < 0.02 && d > -0.02
	}
	return text.Normalize(a.String()) == text.Normalize(b.String())
}
