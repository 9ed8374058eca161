package er

import (
	"cmp"
	"fmt"
	"hash/fnv"
	"slices"
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
	// Rows and pairs are counted per shard first, then each shard's lists
	// are cut out of one slab per kind.
	rowCount, pairCount := make([]int, n), make([]int, n)
	for i, root := range comp {
		s := shardOf[root]
		plan.RowShard[i] = s
		rowCount[s]++
	}
	for _, v := range pairs {
		pairCount[plan.RowShard[unpackPair(v).I]]++ // == RowShard[J]: pairs never cross components
	}
	rowSlab := make([]int, rows)
	pairSlab, idxSlab := make([]Pair, len(pairs)), make([]int32, len(pairs))
	rowAt, pairAt := 0, 0
	for s := 0; s < n; s++ {
		if c := rowCount[s]; c > 0 {
			plan.Rows[s] = rowSlab[rowAt : rowAt : rowAt+c]
			rowAt += c
		}
		if c := pairCount[s]; c > 0 {
			plan.Pairs[s], plan.pairIdx[s] = pairSlab[pairAt:pairAt:pairAt+c], idxSlab[pairAt:pairAt:pairAt+c]
			pairAt += c
		}
	}
	for i, s := range plan.RowShard {
		plan.Rows[s] = append(plan.Rows[s], i)
	}
	for k, v := range pairs {
		p := unpackPair(v)
		s := plan.RowShard[p.I]
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
// row's cluster, plus the constraint-conflict count. The pipeline resolves
// into a roots slab instead (RePlanned.ResolveDirty); this map-shaped
// adapter over the same core stays as the cold reference the benchmark
// probes and the equivalence tests resolve with.
func (r *Resolver) ResolveShard(t *dataset.Table, plan *ShardPlan, shard int, must, cannot []Pair) (map[int]int, int, error) {
	if shard < 0 || shard >= plan.NumShards {
		return nil, 0, fmt.Errorf("er: shard %d out of range [0,%d)", shard, plan.NumShards)
	}
	rows := plan.Rows[shard]
	roots := make([]int32, len(plan.RowShard))
	conflicts := r.resolveRows(t, rows, plan.Pairs[shard],
		plan.FilterPairs(shard, must), plan.FilterPairs(shard, cannot), roots)
	out := make(map[int]int, len(rows))
	for _, row := range rows {
		out[row] = int(roots[row])
	}
	return out, conflicts, nil
}

// MergeRoots combines the per-shard root maps (shard index -> ResolveShard
// result) into one dense clustering, numbered as numberClusters numbers
// every resolve. Like ResolveShard it is a map-shaped adapter kept for
// the benchmark probes and the tests' cold reference; the pipeline
// numbers its roots slab with RePlanned.Clustering.
func (p *ShardPlan) MergeRoots(roots []map[int]int) (*Clustering, error) {
	slab := make([]int32, len(p.RowShard))
	for i, s := range p.RowShard {
		if s >= len(roots) || roots[s] == nil {
			return nil, fmt.Errorf("er: merge: missing roots for shard %d (row %d)", s, i)
		}
		root, ok := roots[s][i]
		if !ok {
			return nil, fmt.Errorf("er: merge: shard %d has no root for row %d", s, i)
		}
		slab[i] = int32(root)
	}
	return numberClusters(slab)
}

// numberClusters is the one dense numbering of a roots slab — roots[i]
// is row i's cluster representative, a row index, or -1 while no resolve
// has reached the row. Cluster ids are assigned by first appearance in
// ascending row order, so the numbering depends only on the partition:
// not on the shard count, nor on the order shards finished in.
func numberClusters(roots []int32) (*Clustering, error) {
	if len(roots) == 0 {
		return &Clustering{}, nil
	}
	assign := make([]int, len(roots))
	ids := make([]int32, len(roots)) // by representative row: its cluster id + 1, 0 until seen
	num := int32(0)
	for i, root := range roots {
		if root < 0 || int(root) >= len(roots) {
			return nil, fmt.Errorf("er: roots miss row %d", i)
		}
		if ids[root] == 0 {
			num++
			ids[root] = num
		}
		assign[i] = int(ids[root] - 1)
	}
	return &Clustering{Assign: assign, Num: int(num)}, nil
}

// resolveRows is the constrained clustering core shared by the sequential
// and sharded paths: it clusters exactly the given rows using the
// supplied candidate pairs (all endpoints must lie in rows), honouring
// must-links first, then cannot-links, then scored pairs best-first — the
// order ResolveConstrained documents. It writes, for each row, the
// smallest row index of its cluster into roots (indexed by row) and
// returns the constraint-conflict count.
func (r *Resolver) resolveRows(t *dataset.Table, rows []int, pairs, must, cannot []Pair, roots []int32) int {
	return r.resolveRowsScored(t, rows, pairs, must, cannot, nil, roots)
}

// resolveRowsScored is resolveRows with a pluggable pair scorer, called
// with each pair and its position in pairs: the streaming path injects
// its cross-round score cache (a pair's score depends only on its two
// rows' values, so content-unchanged endpoints make the cached float
// bit-identical to recomputing). A nil score falls back to the rule. Only
// the given rows' entries of roots are written, so callers resolving
// disjoint row sets may share one slab without a lock.
func (r *Resolver) resolveRowsScored(t *dataset.Table, rows []int, pairs, must, cannot []Pair, score func(int, Pair) float64, roots []int32) int {
	local := make([]int32, len(roots)) // by global row: its local index + 1, 0 outside rows
	for li, g := range rows {
		local[g] = int32(li) + 1
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
		if p.I < 0 || p.J < 0 || p.I >= len(local) || p.J >= len(local) {
			return 0, 0, false
		}
		a, b := int(local[p.I])-1, int(local[p.J])-1
		return a, b, a >= 0 && b >= 0
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
	// A total order (pairs are unique), so the sort is deterministic.
	slices.SortFunc(scored, func(x, y scoredPair) int {
		if x.s != y.s {
			return cmp.Compare(y.s, x.s)
		}
		if c := cmp.Compare(x.p.I, y.p.I); c != 0 {
			return c
		}
		return cmp.Compare(x.p.J, y.p.J)
	})
	for _, sp := range scored {
		a, b, _ := localPair(sp.p)
		if allowed(a, b) {
			union(a, b)
		}
	}
	// Representative per cluster: the smallest global row index.
	rep := make([]int32, len(rows)) // by local root
	for i := range rep {
		rep[i] = -1
	}
	for li, g := range rows {
		if root := find(li); rep[root] < 0 || int32(g) < rep[root] {
			rep[root] = int32(g)
		}
	}
	for li, g := range rows {
		roots[g] = rep[find(li)]
	}
	return conflicts
}
