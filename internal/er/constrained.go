package er

import (
	"fmt"

	"repro/internal/dataset"
)

// ResolveConstrained blocks, scores and transitively clusters the table
// under hard constraints from feedback: must-link pairs are merged
// regardless of score, and cannot-link pairs prevent their components
// from ever merging (checked before every union, so a cannot-link also
// vetoes indirect merges through transitivity). Must-links are applied
// first; a must-link that directly contradicts a cannot-link wins and the
// contradiction is reported in conflicts. Resolve is this with no
// constraints.
// It is the one-shot reference for the sharded path the pipeline runs
// (RePlan, RePlanned.ResolveDirty, RePlanned.Clustering), which the
// property tests hold to it. Both run one core: resolveRows (shard.go)
// writes every row's cluster representative into a roots slab indexed by
// row, and numberClusters numbers the slab. One implementation is what
// keeps "sharded is byte-identical to one global resolve" from being two
// implementations agreeing by luck.
func (r *Resolver) ResolveConstrained(t *dataset.Table, must, cannot []Pair) (*Clustering, int, error) {
	if t.Len() == 0 {
		return &Clustering{}, 0, nil
	}
	if r.NameColumn == "" && r.KeyColumn == "" {
		return nil, 0, fmt.Errorf("er: resolver needs at least a key or name column")
	}
	r.Prepare(t)
	rows := make([]int, t.Len())
	for i := range rows {
		rows[i] = i
	}
	roots := make([]int32, t.Len())
	conflicts := r.resolveRows(t, rows, r.CandidatePairs(t), must, cannot, roots)
	c, err := numberClusters(roots)
	return c, conflicts, err
}

func validPair(p Pair, n int) bool {
	return p.I >= 0 && p.J >= 0 && p.I < n && p.J < n && p.I != p.J
}
