package er

import (
	"fmt"
	"hash/fnv"
	"sort"
	"strconv"

	"repro/internal/dataset"
	"repro/internal/text"
)

// This file partitions entity resolution by blocking key so the
// integration tail can fan out: candidate pairs are computed once,
// globally, exactly as the sequential path computes them (oversized
// blocks skipped, same dedup, same order); rows connected through shared
// blocks — or forced together by must-link feedback — form components
// that no scored pair can ever cross; and each component is routed whole
// to a deterministic owner shard. Per-shard clustering over disjoint
// components commutes, so resolving the shards independently and merging
// yields byte-identical clusters to one sequential resolve. Re-blocking
// per shard would NOT be safe: a subset of an oversized (skipped) block
// can fall under MaxBlockSize inside a shard and emit pairs the
// sequential run never scored. Computing pairs once globally is what
// makes the equivalence exact.

// ShardPlan is a deterministic partition of a table's rows into disjoint
// shards for parallel entity resolution and fusion. Two rows that share
// any usable block (and, transitively, any chain of such blocks or
// must-links) are always in the same shard, so no candidate pair ever
// crosses shards.
type ShardPlan struct {
	// NumShards is the shard count the plan was built for (>= 1).
	NumShards int
	// RowShard maps each row index to its owning shard.
	RowShard []int
	// Rows lists each shard's row indices, ascending.
	Rows [][]int
	// Pairs lists each shard's candidate pairs (global row indices, both
	// endpoints always in the shard), in CandidatePairs order.
	Pairs [][]Pair
	// Components is the number of block-connected components the rows
	// formed — the upper bound on useful parallelism.
	Components int

	// What BuildPlanState memoizes for the next incremental re-plan
	// (replan.go): the block index the pairs were enumerated from, the
	// prepared rows it blocked, the candidate pairs as one sorted packed
	// list, and each shard pair's position in that list.
	idx     *blockIndex
	feat    []*rowFeatures
	pairs   []int64
	pairIdx [][]int32
}

// PlanShards builds the shard plan for n shards. Candidate pairs are the
// sequential blocking's pairs verbatim; must-link pairs additionally glue
// components together (feedback may join rows no block connects).
// Each component's owner shard is derived by hashing the smallest rowKey
// among its rows, so the routing is deterministic, independent of
// provider order, and — when rowKeys are stable identifiers such as
// "source#idx" — stable across refreshes that only touch other rows.
// With nil rowKeys the row index itself is the key (still deterministic,
// but positional). n < 1 is treated as 1. A resolver with neither key
// nor name column is rejected exactly as ResolveConstrained rejects it —
// the sharded path must fail identically to the sequential one.
func (r *Resolver) PlanShards(t *dataset.Table, n int, must []Pair, rowKeys []string) (*ShardPlan, error) {
	if r.NameColumn == "" && r.KeyColumn == "" {
		return nil, fmt.Errorf("er: resolver needs at least a key or name column")
	}
	if n < 1 {
		n = 1
	}
	r.Prepare(t)
	return planPrepared(r.prep, r.MaxBlockSize, n, must, rowKeyFn(rowKeys)), nil
}

// planPrepared is PlanShards over an already prepared table.
func planPrepared(p *tableFeatures, maxBlock, n int, must []Pair, key func(int) string) *ShardPlan {
	idx := buildBlockIndex(p)
	plan, _ := assemblePlan(len(p.rows), n, idx.pairs(maxBlock), must, key)
	plan.idx, plan.feat = idx, p.rows
	return plan
}

// rowKeyFn returns the stable-key accessor PlanShards documents: the
// caller's rowKeys where present, the positional "#i" fallback otherwise.
func rowKeyFn(rowKeys []string) func(int) string {
	return func(i int) string {
		if i < len(rowKeys) && rowKeys[i] != "" {
			return rowKeys[i]
		}
		return "#" + strconv.Itoa(i)
	}
}

// assemblePlan routes rows to shards given the sorted packed candidate
// pairs: pairs and must-links glue rows into block-connected components,
// each component is keyed by its smallest row key and hashed whole to an
// owner shard. It is the shared back half of PlanShards and RePlan — the
// two paths cannot drift in routing. The second return maps each row to
// its component's union-find root, which RePlan uses to reuse clusters
// per component.
func assemblePlan(rows, n int, pairs []int64, must []Pair, key func(int) string) (*ShardPlan, []int) {
	parent := make([]int, rows)
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	union := func(a, b int) {
		ra, rb := find(a), find(b)
		if ra != rb {
			parent[ra] = rb
		}
	}
	for _, v := range pairs {
		p := unpackPair(v)
		union(p.I, p.J)
	}
	for _, p := range must {
		if validPair(p, rows) {
			union(p.I, p.J)
		}
	}
	// Component owner key: the smallest row key in the component.
	comp := make([]int, rows)
	owner := make([]string, rows) // by component root; "" until seen
	components := 0
	for i := 0; i < rows; i++ {
		root := find(i)
		comp[i] = root
		k := key(i)
		if owner[root] == "" {
			components++
		}
		if owner[root] == "" || k < owner[root] {
			owner[root] = k
		}
	}
	plan := &ShardPlan{
		NumShards:  n,
		RowShard:   make([]int, rows),
		Rows:       make([][]int, n),
		Pairs:      make([][]Pair, n),
		Components: components,
		pairs:      pairs,
		pairIdx:    make([][]int32, n),
	}
	shardOf := make([]int, rows) // by component root
	for root, k := range owner {
		if k != "" {
			h := fnv.New32a()
			h.Write([]byte(k))
			shardOf[root] = int(h.Sum32() % uint32(n))
		}
	}
	for i, root := range comp {
		s := shardOf[root]
		plan.RowShard[i] = s
		plan.Rows[s] = append(plan.Rows[s], i)
	}
	for k, v := range pairs {
		p := unpackPair(v)
		s := plan.RowShard[p.I] // == RowShard[p.J]: pairs never cross components
		plan.Pairs[s] = append(plan.Pairs[s], p)
		plan.pairIdx[s] = append(plan.pairIdx[s], int32(k))
	}
	return plan, comp
}

// FilterPairs returns the subset of ps with both endpoints in the given
// shard. Must-links always survive (PlanShards glued their components);
// cannot-links between shards are dropped, which is sound because no
// union across shards is ever attempted — a cross-shard cannot-link is
// inert in the sequential resolve too.
func (p *ShardPlan) FilterPairs(shard int, ps []Pair) []Pair {
	var out []Pair
	for _, pr := range ps {
		if !validPair(pr, len(p.RowShard)) {
			continue
		}
		if p.RowShard[pr.I] == shard && p.RowShard[pr.J] == shard {
			out = append(out, pr)
		}
	}
	return out
}

// ResolveShard clusters one shard of the plan: the shard's planned
// candidate pairs are scored with the resolver's current rule and merged
// under the shard-local must/cannot constraints, exactly as
// ResolveConstrained would have merged them inside one global resolve.
// It returns, for every row of the shard, the smallest row index of the
// row's cluster — the representative MergeRoots uses to rebuild the
// global dense numbering — plus the constraint-conflict count.
func (r *Resolver) ResolveShard(t *dataset.Table, plan *ShardPlan, shard int, must, cannot []Pair) (map[int]int, int, error) {
	if shard < 0 || shard >= plan.NumShards {
		return nil, 0, fmt.Errorf("er: shard %d out of range [0,%d)", shard, plan.NumShards)
	}
	roots, conflicts := r.resolveRows(t, plan.Rows[shard], plan.Pairs[shard],
		plan.FilterPairs(shard, must), plan.FilterPairs(shard, cannot))
	return roots, conflicts, nil
}

// MergeRoots combines the per-shard root maps (shard index -> ResolveShard
// result) into one dense clustering. Cluster ids are assigned by first
// appearance in ascending row order — the same numbering one sequential
// ResolveConstrained produces — so the merge is independent of shard
// count and of the order shards finished in.
func (p *ShardPlan) MergeRoots(roots []map[int]int) (*Clustering, error) {
	n := len(p.RowShard)
	if n == 0 {
		return &Clustering{}, nil
	}
	assign := make([]int, n)
	ids := make(map[int]int)
	for i := 0; i < n; i++ {
		s := p.RowShard[i]
		if s >= len(roots) || roots[s] == nil {
			return nil, fmt.Errorf("er: merge: missing roots for shard %d (row %d)", s, i)
		}
		root, ok := roots[s][i]
		if !ok {
			return nil, fmt.Errorf("er: merge: shard %d has no root for row %d", s, i)
		}
		id, seen := ids[root]
		if !seen {
			id = len(ids)
			ids[root] = id
		}
		assign[i] = id
	}
	return &Clustering{Assign: assign, Num: len(ids)}, nil
}

// resolveRows is the constrained clustering core shared by the sequential
// and sharded paths: it clusters exactly the given rows using the
// supplied candidate pairs (all endpoints must lie in rows), honouring
// must-links first, then cannot-links, then scored pairs best-first — the
// order ResolveConstrained documents. The returned map gives, for each
// row, the smallest row index of its cluster.
func (r *Resolver) resolveRows(t *dataset.Table, rows []int, pairs, must, cannot []Pair) (map[int]int, int) {
	return r.resolveRowsScored(t, rows, pairs, must, cannot, nil)
}

// resolveRowsScored is resolveRows with a pluggable pair scorer, called
// with each pair and its position in pairs: the streaming path injects
// its cross-round score cache (a pair's score depends only on its two
// rows' values, so content-unchanged endpoints make the cached float
// bit-identical to recomputing). A nil score falls back to the rule.
func (r *Resolver) resolveRowsScored(t *dataset.Table, rows []int, pairs, must, cannot []Pair, score func(int, Pair) float64) (map[int]int, int) {
	local := make(map[int]int, len(rows))
	for li, g := range rows {
		local[g] = li
	}
	parent := make([]int, len(rows))
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	// forbidden[root] = set of roots this component must not join.
	forbidden := map[int]map[int]bool{}
	addForbidden := func(a, b int) {
		if forbidden[a] == nil {
			forbidden[a] = map[int]bool{}
		}
		forbidden[a][b] = true
		if forbidden[b] == nil {
			forbidden[b] = map[int]bool{}
		}
		forbidden[b][a] = true
	}
	union := func(a, b int) {
		ra, rb := find(a), find(b)
		if ra == rb {
			return
		}
		// Merge the smaller forbidden set into the larger's root.
		if len(forbidden[ra]) > len(forbidden[rb]) {
			ra, rb = rb, ra
		}
		parent[ra] = rb
		for f := range forbidden[ra] {
			addForbidden(rb, f)
		}
		delete(forbidden, ra)
	}
	allowed := func(a, b int) bool {
		ra, rb := find(a), find(b)
		if ra == rb {
			return true
		}
		return !forbidden[ra][rb]
	}
	localPair := func(p Pair) (int, int, bool) {
		if p.I == p.J {
			return 0, 0, false // self-pairs carry no constraint or evidence
		}
		a, aok := local[p.I]
		b, bok := local[p.J]
		return a, b, aok && bok
	}

	conflicts := 0
	// 1. Must-links are facts: apply unconditionally, count contradictions.
	for _, p := range must {
		a, b, ok := localPair(p)
		if !ok {
			continue
		}
		if !allowed(a, b) {
			conflicts++
		}
		union(a, b)
	}
	// 2. Cannot-links between the resulting components.
	for _, p := range cannot {
		a, b, ok := localPair(p)
		if !ok {
			continue
		}
		ra, rb := find(a), find(b)
		if ra == rb {
			conflicts++ // already forced together by must-links
			continue
		}
		addForbidden(ra, rb)
	}
	// 3. Scored pairs, best first, blocked by constraints. Descending
	// order matters: the strongest evidence claims components before a
	// weaker pair could route around a cannot-link.
	type scoredPair struct {
		p Pair
		s float64
	}
	scored := make([]scoredPair, 0, len(pairs))
	var sc text.Scratch
	f := make([]float64, len(FeatureNames))
	for k, p := range pairs {
		if _, _, ok := localPair(p); !ok {
			continue
		}
		var s float64
		if score != nil {
			s = score(k, p)
		} else {
			r.featuresInto(t, p.I, p.J, f, &sc)
			s = r.Score(f)
		}
		if s >= r.Threshold {
			scored = append(scored, scoredPair{p: p, s: s})
		}
	}
	sort.Slice(scored, func(i, j int) bool {
		if scored[i].s != scored[j].s {
			return scored[i].s > scored[j].s
		}
		if scored[i].p.I != scored[j].p.I {
			return scored[i].p.I < scored[j].p.I
		}
		return scored[i].p.J < scored[j].p.J
	})
	for _, sp := range scored {
		a, b, _ := localPair(sp.p)
		if allowed(a, b) {
			union(a, b)
		}
	}
	// Representative per cluster: the smallest global row index.
	rep := map[int]int{}
	for li, g := range rows {
		root := find(li)
		if cur, ok := rep[root]; !ok || g < cur {
			rep[root] = g
		}
	}
	out := make(map[int]int, len(rows))
	for li, g := range rows {
		out[g] = rep[find(li)]
	}
	return out, conflicts
}
