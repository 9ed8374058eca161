// Package scale implements the §4.3 scalability substrate: bounded
// (scale-independent) query evaluation using access/indexing information in
// the spirit of [2, 17], and static under-approximation of conjunctive
// queries following Barceló-Libkin-Romero [4].
package scale

import (
	"fmt"

	"repro/internal/dataset"
)

// Indexed wraps a table with hash indexes on selected columns and counts
// the rows touched by each access — the "work" measure that bounded
// evaluation keeps independent of table size.
type Indexed struct {
	table   *dataset.Table
	indexes map[string]map[string][]int
	touched int
}

// NewIndexed builds indexes on the named columns.
func NewIndexed(t *dataset.Table, cols ...string) (*Indexed, error) {
	ix := &Indexed{table: t, indexes: map[string]map[string][]int{}}
	for _, col := range cols {
		c := t.Schema().Index(col)
		if c < 0 {
			return nil, fmt.Errorf("scale: index column %q missing", col)
		}
		m := map[string][]int{}
		for i, r := range t.Rows() {
			if r[c].IsNull() {
				continue
			}
			k := r[c].Key()
			m[k] = append(m[k], i)
		}
		ix.indexes[col] = m
	}
	return ix, nil
}

// Touched returns the cumulative number of rows accessed.
func (ix *Indexed) Touched() int { return ix.touched }

// ResetWork zeroes the touched counter.
func (ix *Indexed) ResetWork() { ix.touched = 0 }

// Lookup returns the rows where col = v, touching only those rows. It
// fails when no index exists on col (the bounded-evaluation contract: no
// fallback scans).
func (ix *Indexed) Lookup(col string, v dataset.Value) ([]dataset.Record, error) {
	m, ok := ix.indexes[col]
	if !ok {
		return nil, fmt.Errorf("scale: no index on %q — bounded evaluation refused", col)
	}
	rows := m[v.Key()]
	ix.touched += len(rows)
	out := make([]dataset.Record, len(rows))
	for i, r := range rows {
		out[i] = ix.table.Row(r)
	}
	return out, nil
}

// BoundedJoin evaluates σ_{leftCol=v}(L) ⋈_{L.joinLeft = R.joinRight} R
// touching only index-reachable rows of both sides. Both access paths must
// be indexed.
func BoundedJoin(left *Indexed, leftCol string, v dataset.Value, joinLeft string, right *Indexed, joinRight string) ([][2]dataset.Record, error) {
	lrows, err := left.Lookup(leftCol, v)
	if err != nil {
		return nil, err
	}
	jc := left.table.Schema().Index(joinLeft)
	if jc < 0 {
		return nil, fmt.Errorf("scale: join column %q missing on left", joinLeft)
	}
	var out [][2]dataset.Record
	for _, lr := range lrows {
		if lr[jc].IsNull() {
			continue
		}
		rrows, err := right.Lookup(joinRight, lr[jc])
		if err != nil {
			return nil, err
		}
		for _, rr := range rrows {
			out = append(out, [2]dataset.Record{lr, rr})
		}
	}
	return out, nil
}

// ScanJoin is the unbounded baseline for BoundedJoin: nested scans.
func ScanJoin(left *Indexed, leftCol string, v dataset.Value, joinLeft string, right *Indexed, joinRight string) [][2]dataset.Record {
	lc := left.table.Schema().Index(leftCol)
	jc := left.table.Schema().Index(joinLeft)
	rc := right.table.Schema().Index(joinRight)
	// Single scan of right to build a transient map (still O(|R|) work).
	rmap := map[string][]dataset.Record{}
	for _, rr := range right.table.Rows() {
		right.touched++
		if !rr[rc].IsNull() {
			rmap[rr[rc].Key()] = append(rmap[rr[rc].Key()], rr)
		}
	}
	var out [][2]dataset.Record
	for _, lr := range left.table.Rows() {
		left.touched++
		if lc < 0 || !lr[lc].Equal(v) || lr[jc].IsNull() {
			continue
		}
		for _, rr := range rmap[lr[jc].Key()] {
			out = append(out, [2]dataset.Record{lr, rr})
		}
	}
	return out
}
