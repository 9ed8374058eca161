package fusion

import (
	"context"
	"math"
	"slices"
	"sort"
	"strings"

	"repro/internal/engine"
	"repro/internal/text"
)

// This file is the warm-started, component-partitioned half of trust
// estimation. TruthFinder's fixpoint couples (entity, attribute) groups
// through the per-source trust they share — but only groups that share a
// source, directly or transitively. Sources connected through no chain of
// claim groups exchange no information through sums/counts/opts.Trust, so
// the fixpoint decomposes exactly into trust-coupled connected components
// of the bipartite source↔claim-group incidence: one independent fixpoint
// per component, each with its own delta<1e-6 convergence break, run in
// sorted component order. On the universes the benchmark declares every
// source reaches every other, so there is one component; the partition
// stays because its per-component break is the float sequence the oracle
// is pinned to, and TrustStats.Components is how an operator sees it.
//
// Reuse across estimations happens at one grain: a TrustMemo keeps each
// group's prepared state, and a group whose claims held is not prepared
// again. Every component iterates on every estimation — trust is always
// the exact global fixpoint of the claims it was given.

// trustGroup is one (entity, attribute) group prepared for the fixpoint:
// everything bucketize would recompute per iteration that does not
// depend on trust.
type trustGroup struct {
	initSources []string // every claim's source, claim order (nulls included)
	sources     []string // non-null claims' sources, claim order
	claimBucket []int    // per non-null claim: bucket it accumulates into
	match       [][]bool // per non-null claim: which buckets it sameValues
	norms       []string // per bucket: normalised representative
}

// prepareTrustGroup mirrors bucketize's bucket formation exactly: claims
// join the first bucket (in creation order) whose representative matches,
// or open a new one. The match matrix is computed against the final
// bucket set — in the fixpoint a claim credits the first *sorted* bucket
// it matches, which can be a bucket created after it.
func prepareTrustGroup(claims []Claim, tol float64) *trustGroup {
	g := &trustGroup{initSources: make([]string, 0, len(claims))}
	// Normalize each claim value once up front: sameValue's string leg
	// normalizes both sides on every comparison, which multiplied out to
	// claims × buckets × 2 normalizations per group. The cached form
	// compares by the identical rules (relative numeric tolerance when
	// both sides are numeric, normalized-string equality otherwise), so
	// bucket formation is unchanged.
	type normVal struct {
		num  bool
		f    float64
		norm string
	}
	nv := make([]normVal, 0, len(claims))
	for _, c := range claims {
		g.initSources = append(g.initSources, c.SourceID)
		if c.Value.IsNull() {
			continue
		}
		g.sources = append(g.sources, c.SourceID)
		v := normVal{num: c.Value.IsNumeric(), norm: text.Normalize(c.Value.String())}
		if v.num {
			v.f = c.Value.FloatVal()
		}
		nv = append(nv, v)
	}
	same := func(a, b normVal) bool {
		if a.num && b.num {
			if a.f == b.f {
				return true
			}
			den := math.Max(math.Abs(a.f), math.Abs(b.f))
			return den > 0 && math.Abs(a.f-b.f)/den <= tol
		}
		return a.norm == b.norm
	}
	var reps []int // bucket representatives, as indices into nv
	g.claimBucket = make([]int, len(nv))
	for ci, v := range nv {
		bi := -1
		for i, ri := range reps {
			if same(nv[ri], v) {
				bi = i
				break
			}
		}
		if bi < 0 {
			bi = len(reps)
			reps = append(reps, ci)
			g.norms = append(g.norms, v.norm)
		}
		g.claimBucket[ci] = bi
	}
	// One flat slab for the match matrix instead of a row per claim.
	slab := make([]bool, len(nv)*len(reps))
	g.match = make([][]bool, len(nv))
	for ci, v := range nv {
		row := slab[ci*len(reps) : (ci+1)*len(reps)]
		for i, ri := range reps {
			row[i] = same(nv[ri], v)
		}
		g.match[ci] = row
	}
	return g
}

// prepareTrustGroups prepares the groups at the given indices into tg,
// fanning out over engine workers when more than one of each is available
// — profiles put preparation ahead of the iteration loop on cold
// estimations. Each group's prepared state is a pure function of its own
// claims, and the MapSlice merge is position-deterministic, so the
// parallel build is identical to the sequential loop.
func prepareTrustGroups(tg []*trustGroup, claims [][]Claim, idx []int, tol float64, workers int) {
	if workers != 1 && len(idx) > 1 {
		prepared, err := engine.MapSlice(context.Background(), workers, idx,
			func(_ context.Context, i int) (*trustGroup, error) {
				return prepareTrustGroup(claims[i], tol), nil
			})
		if err == nil {
			for k, i := range idx {
				tg[i] = prepared[k]
			}
			return
		}
		// A recovered panic: fall through so it resurfaces sequentially.
	}
	for _, i := range idx {
		tg[i] = prepareTrustGroup(claims[i], tol)
	}
}

// TrustStats reports the component shape of one trust estimation.
type TrustStats struct {
	// Components is the number of trust-coupled connected components in
	// the claim set (sources linked by shared claim groups, directly or
	// transitively).
	Components int
	// Iterations holds each component's fixpoint iteration count until
	// its delta<1e-6 break (or the Iterations bound), in sorted component
	// order.
	Iterations []int
}

// trustComponent is one trust-coupled connected component prepared for an
// independent fixpoint: its member groups in global sorted key order, its
// distinct sources sorted (the component-local dictionary), each group's
// non-null claim sources dictionary-encoded to local indices, and the
// per-source seed trust and pinned flags snapshotted at build time.
type trustComponent struct {
	key     string        // identity: lexicographically smallest member source
	groups  []*trustGroup // member groups, in global sorted key order
	srcIdx  [][]int32     // parallel to groups: per non-null claim, local source index
	sources []string      // distinct member sources, sorted
	seed    []float64     // per local source: trust at fixpoint start
	pinned  []bool        // per local source: trust is externally fixed
}

// buildTrustComponents unions every group's non-null claim sources and
// materialises one trustComponent per union-find root. Groups are visited
// in their global sorted key order, so each component's groups are a
// subsequence of that order and the within-component float accumulation
// sequence matches the old single-loop fixpoint exactly. Groups with only
// null claims join no component: they contributed total==0 and were
// skipped by the old loop too. Components are returned sorted by key.
// Must run after default-trust seeding so seed snapshots are complete.
func buildTrustComponents(groups []*trustGroup, opts *Options) []*trustComponent {
	srcID := make(map[string]int)
	var srcs []string
	var parent []int
	find := func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	for _, g := range groups {
		first := -1
		for _, s := range g.sources {
			i, ok := srcID[s]
			if !ok {
				i = len(parent)
				srcID[s] = i
				srcs = append(srcs, s)
				parent = append(parent, i)
			}
			if first < 0 {
				first = find(i)
			} else if r := find(i); r != first {
				parent[r] = first
			}
		}
	}
	comps := make(map[int]*trustComponent)
	var order []*trustComponent
	for _, g := range groups {
		if len(g.sources) == 0 {
			continue
		}
		root := find(srcID[g.sources[0]])
		c := comps[root]
		if c == nil {
			c = &trustComponent{}
			comps[root] = c
			order = append(order, c)
		}
		c.groups = append(c.groups, g)
	}
	for i, s := range srcs {
		c := comps[find(i)]
		c.sources = append(c.sources, s)
	}
	for _, c := range order {
		sort.Strings(c.sources)
		c.key = c.sources[0]
		local := make(map[string]int32, len(c.sources))
		for i, s := range c.sources {
			local[s] = int32(i)
		}
		c.srcIdx = make([][]int32, len(c.groups))
		for gi, g := range c.groups {
			idx := make([]int32, len(g.sources))
			for ci, s := range g.sources {
				idx[ci] = local[s]
			}
			c.srcIdx[gi] = idx
		}
		c.seed = make([]float64, len(c.sources))
		c.pinned = make([]bool, len(c.sources))
		for i, s := range c.sources {
			c.seed[i] = opts.Trust[s]
			c.pinned[i] = opts.Pinned[s]
		}
	}
	slices.SortFunc(order, func(a, b *trustComponent) int {
		return strings.Compare(a.key, b.key)
	})
	return order
}

// runComponentFixpoint iterates one component to convergence and returns
// its trust, parallel to the component's sorted sources, with the number
// of iterations it took. Within the component the float sequence is
// identical to the old global loop: groups in sorted key order, claims in
// input order, and the damped update over sources in sorted order — which
// is exactly local dictionary index order, so the per-iteration path is
// entirely slice-indexed with no map lookups and no string comparisons.
// The delta<1e-6 break is per-component: a converged component stops
// iterating even while a larger one elsewhere keeps going, which the old
// global-delta loop could not do.
func runComponentFixpoint(c *trustComponent, defaultTrust float64, maxIters int) (cur []float64, iters int) {
	cur = slices.Clone(c.seed)
	maxBuckets := 0
	for _, g := range c.groups {
		if n := len(g.norms); n > maxBuckets {
			maxBuckets = n
		}
	}
	wbuf := make([]float64, maxBuckets)
	obuf := make([]int, maxBuckets)
	sums := make([]float64, len(c.sources))
	counts := make([]int, len(c.sources))
	for iters < maxIters {
		iters++
		clear(sums)
		clear(counts)
		for gi, g := range c.groups {
			w := wbuf[:len(g.norms)]
			for i := range w {
				w[i] = 0
			}
			idx := c.srcIdx[gi]
			for ci, si := range idx {
				// trustOf's rule over the dictionary: a positive current
				// value wins, anything else falls back to the default.
				if t := cur[si]; t > 0 {
					w[g.claimBucket[ci]] += t
				} else {
					w[g.claimBucket[ci]] += defaultTrust
				}
			}
			// Same comparator as bucketize's final sort, applied to bucket
			// indices: identical comparison outcomes give the identical
			// permutation, so the weight-sorted traversal below credits the
			// same bucket per claim.
			order := obuf[:len(w)]
			for i := range order {
				order[i] = i
			}
			sort.Slice(order, func(i, j int) bool {
				if w[order[i]] != w[order[j]] {
					return w[order[i]] > w[order[j]]
				}
				return g.norms[order[i]] < g.norms[order[j]]
			})
			total := 0.0
			for _, bi := range order {
				total += w[bi]
			}
			if total == 0 {
				continue
			}
			for ci, si := range idx {
				for _, bi := range order {
					if g.match[ci][bi] {
						sums[si] += w[bi] / total
						counts[si]++
						break
					}
				}
			}
		}
		delta := 0.0
		for i := range cur {
			if counts[i] == 0 || c.pinned[i] {
				continue
			}
			next := 0.5*cur[i] + 0.5*(sums[i]/float64(counts[i]))
			delta += math.Abs(next - cur[i])
			cur[i] = next
		}
		if delta < 1e-6 {
			break
		}
	}
	return cur, iters
}

// TrustMemo carries one estimation's prepared (entity, attribute) groups
// to the next: the grouped claims they were prepared from and the
// tolerance they were bucketed under — everything a prepared group is a
// function of.
type TrustMemo struct {
	tolerance float64
	claims    *ClaimGroups
	groups    []*trustGroup // parallel to claims' keys
}

// EstimateTrustWarmParallel is EstimateTrustParallel over grouped claims
// with a cross-reaction memo. It returns options ready for
// ClaimGroups.Fuse, the memo for the next call and the component stats.
// prev may be nil — the estimation then prepares every group but still
// returns a memo. Byte-identical to the cold estimation at any worker
// count.
func EstimateTrustWarmParallel(g *ClaimGroups, opts Options, prev *TrustMemo, workers int) (Options, *TrustMemo, TrustStats) {
	opts = opts.normalized()
	if opts.Policy != TruthFinder {
		// No fixpoint exists for this policy; estimation is a no-op
		// beyond normalization, so there is nothing to warm.
		return opts, nil, TrustStats{}
	}
	memo, st := estimateTrust(g, &opts, prev, workers)
	return opts, memo, st
}

// estimateTrust is the one TruthFinder trust estimation, over grouped
// claims: value confidence is the trust-weighted vote share; source trust
// is the mean confidence of the values the source claims. Trust is
// written back into opts.Trust. Groups are visited in sorted key order —
// float accumulation is not associative, so any other order would make
// trust (and with it confidences and tie-broken winners) vary with how
// the claims arrived. Bucket formation is iteration-invariant (membership
// depends only on values, not weights), so each group is prepared once,
// on workers goroutines when workers > 1; the fixpoint then runs per
// trust-coupled component with a per-component convergence break.
//
// Reuse has one grain: a group whose claims held since prev keeps its
// prepared state; every component iterates on every call, so the result
// is the exact global fixpoint whatever prev holds.
func estimateTrust(g *ClaimGroups, opts *Options, prev *TrustMemo, workers int) (*TrustMemo, TrustStats) {
	tg := make([]*trustGroup, len(g.keys))
	var fresh []int
	var pk []string
	if prev != nil && prev.tolerance == opts.NumericTolerance {
		pk = prev.claims.keys
	}
	// Both key lists are sorted: one merge walk finds every group prev
	// prepared.
	j := 0
	for i, k := range g.keys {
		for j < len(pk) && pk[j] < k {
			j++
		}
		if j < len(pk) && pk[j] == k && trustClaimsHeld(prev.claims.claims[j], g.claims[i]) {
			tg[i] = prev.groups[j]
			continue
		}
		fresh = append(fresh, i)
	}
	prepareTrustGroups(tg, g.claims, fresh, opts.NumericTolerance, workers)
	// Every source that appears in any claim (nulls included) gets a trust
	// entry before components snapshot their seeds.
	for _, pg := range tg {
		for _, src := range pg.initSources {
			if _, ok := opts.Trust[src]; !ok {
				opts.Trust[src] = opts.DefaultTrust
			}
		}
	}
	// Components share no source, and each snapshotted its seeds when it
	// was built, so writing one's result back cannot reach another's run.
	comps := buildTrustComponents(tg, opts)
	st := TrustStats{Components: len(comps), Iterations: make([]int, len(comps))}
	for i, c := range comps {
		trust, iters := runComponentFixpoint(c, opts.DefaultTrust, opts.Iterations)
		for j, src := range c.sources {
			opts.Trust[src] = trust[j]
		}
		st.Iterations[i] = iters
	}
	return &TrustMemo{tolerance: opts.NumericTolerance, claims: g, groups: tg}, st
}

// trustClaimsHeld compares two claim lists on everything the trust
// fixpoint reads: source and value, in order. AsOf is deliberately
// ignored — freshness never enters trust estimation, so a re-snapshot
// that kept every value does not dirty the group.
func trustClaimsHeld(a, b []Claim) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].SourceID != b[i].SourceID || !a[i].Value.Equal(b[i].Value) {
			return false
		}
	}
	return true
}
