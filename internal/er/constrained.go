package er

import (
	"fmt"

	"repro/internal/dataset"
)

// ResolveConstrained clusters like Resolve but honours hard constraints
// from feedback: must-link pairs are merged regardless of score, and
// cannot-link pairs prevent their components from ever merging (checked
// before every union, so a cannot-link also vetoes indirect merges
// through transitivity). Must-links are applied first; a must-link that
// directly contradicts a cannot-link wins and the contradiction is
// reported in conflicts.
// It is the one-shot reference for the sharded path the pipeline runs
// (PlanShards / RePlan, ResolveShard, MergeRoots), which the property
// tests hold to it. The clustering core (constraint ordering,
// scored-pair descent, the union-find itself) lives in resolveRows
// (shard.go), shared verbatim by both — one implementation is what keeps
// "sharded is byte-identical to one global resolve" from being two
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
	roots, conflicts := r.resolveRows(t, rows, r.CandidatePairs(t), must, cannot)
	// Dense cluster ids by first appearance in row order.
	ids := map[int]int{}
	assign := make([]int, t.Len())
	for i := range assign {
		root := roots[i]
		id, ok := ids[root]
		if !ok {
			id = len(ids)
			ids[root] = id
		}
		assign[i] = id
	}
	return &Clustering{Assign: assign, Num: len(ids)}, conflicts, nil
}

func validPair(p Pair, n int) bool {
	return p.I >= 0 && p.J >= 0 && p.I < n && p.J < n && p.I != p.J
}
