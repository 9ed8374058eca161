package fusion

import (
	"context"
	"math"
	"slices"
	"strings"
	"time"

	"repro/internal/engine"
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
// Reuse across estimations happens at two grains. The prepared (entity,
// attribute) group (groupPrep), whose value buckets are formed once and
// serve the fixpoint and the fuse alike: a group whose claims held since
// the previous ClaimGroups adopts its state. And the flat fixpoint layout
// (trustLayout), built once per ClaimGroups and carried on it: a
// fuse-only reaction, whose claims cannot have moved, hands the
// estimation the previous ClaimGroups itself, so it regroups, prepares
// and lays out nothing. Only the seeds and pinned flags are read afresh
// from the options on every estimation. Every component iterates on
// every estimation — trust is always the exact global fixpoint of the
// claims it was given — but an iteration re-votes only the contested
// groups, those with more than one bucket: a single-bucket group credits
// each of its claims w/w, exactly 1.0, whatever the trust.

// TrustStats reports the shape of one trust estimation: its component
// partition and how much prepared state it started from.
type TrustStats struct {
	// Components is the number of trust-coupled connected components in
	// the claim set (sources linked by shared claim groups, directly or
	// transitively).
	Components int
	// Iterations holds each component's fixpoint iteration count until
	// its delta<1e-6 break (or the Iterations bound), in sorted component
	// order.
	Iterations []int
	// GroupsKept counts the groups that entered the estimation prepared —
	// adopted from prev because their claims held, or already carried by
	// the ClaimGroups itself. GroupsPrepared counts the rest, which the
	// estimation prepares, under every policy, before any fuse reads them.
	GroupsKept, GroupsPrepared int
	// Contested counts the groups the fixpoint re-voted on every
	// iteration: those with more than one value bucket, or every group of
	// a component whose seeds could overflow a group's vote total.
	Contested int
	// LayoutBuilt reports that the estimation laid out the fixpoint's
	// flat arrays; false when the ClaimGroups carried them already (a
	// fuse-only reaction) or no fixpoint ran.
	LayoutBuilt bool
	// FuseRevoted counts the groups a fuse under the returned options
	// votes: those with more than one fuse bucket, or every group with a
	// non-null claim where a one-bucket group's result could depend on
	// trust (FreshnessWeighted, or a weight near MaxFloat64). The other
	// groups fuse without a vote.
	FuseRevoted int
}

// TrustSplit is the wall clock of one trust estimation, by step: adopting
// and preparing groups, then laying out the components and iterating
// them. It is kept apart from TrustStats, which is a deterministic
// function of the inputs.
type TrustSplit struct {
	Prepare, Fixpoint time.Duration
}

// trustLayout is the fixpoint's view of one ClaimGroups: its components,
// laid out flat, and every distinct claim source — null-only sources
// included — which an estimation seeds with the default trust. It is a
// function of the prepared groups alone, built by the first TruthFinder
// estimation over the ClaimGroups and read-only after.
type trustLayout struct {
	sources []string          // every claim source, in first-claim order
	comps   []*trustComponent // sorted by key
}

// trustComponent is one trust-coupled connected component laid out for an
// independent fixpoint: its member groups in global group order, its
// distinct sources sorted (the component-local dictionary), and one flat
// array of every member group's non-null claims, dictionary-encoded to
// local source indices. Nothing in it depends on trust: seeds and pinned
// flags are read per estimation.
type trustComponent struct {
	key       string       // identity: lexicographically smallest member source
	groups    []*groupPrep // member groups, in global group order
	sources   []string     // distinct member sources, sorted
	src       []int32      // per non-null claim, group order then claim order: local source index
	off       []int32      // per member group, its first claim in src; a last entry closes the final group
	contested []int32      // member groups with more than one bucket, as indices into groups
	counts    []int        // per local source: its non-null claims, each credited once per iteration
	maxClaims int          // the largest member group's non-null claim count
}

// buildTrustLayout lays out the fixpoint over prepared groups, with one
// source lookup per claim: it numbers every source on first sight, unions
// the sources of each group's non-null claims, and materialises one
// trustComponent per union-find root, remapping global source numbers to
// component-local indices through one array. Groups are visited in their
// global group order, so each component's groups are a subsequence of
// that order and the within-component float accumulation sequence matches
// the per-group loop exactly. Groups with only null claims join no
// component: they vote no weight and credit nothing. Components are
// sorted by key.
func buildTrustLayout(claims [][]Claim, groups []*groupPrep) *trustLayout {
	l := &trustLayout{}
	srcID := make(map[string]int32)
	var parent []int32
	find := func(x int32) int32 {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	// ids holds every non-null claim's global source number, in group and
	// claim order; goff[gi] is group gi's first claim in it.
	var ids []int32
	goff := make([]int32, len(claims)+1)
	for gi, cs := range claims {
		first := int32(-1)
		for k := range cs {
			c := &cs[k]
			id, ok := srcID[c.SourceID]
			if !ok {
				id = int32(len(l.sources))
				srcID[c.SourceID] = id
				l.sources = append(l.sources, c.SourceID)
				parent = append(parent, id)
			}
			if c.Value.IsNull() {
				continue
			}
			ids = append(ids, id)
			if first < 0 {
				first = find(id)
			} else if r := find(id); r != first {
				parent[r] = first
			}
		}
		goff[gi+1] = int32(len(ids))
	}
	// Number the components by first member group, then hand each its
	// sources and the local index of each.
	compOf := make([]int32, len(l.sources)) // per root: component number + 1
	for gi := range claims {
		if goff[gi] == goff[gi+1] {
			continue
		}
		if r := find(ids[goff[gi]]); compOf[r] == 0 {
			l.comps = append(l.comps, &trustComponent{})
			compOf[r] = int32(len(l.comps))
		}
	}
	for id, s := range l.sources {
		if k := compOf[find(int32(id))]; k > 0 {
			c := l.comps[k-1]
			c.sources = append(c.sources, s)
		}
	}
	local := make([]int32, len(l.sources))
	for _, c := range l.comps {
		slices.Sort(c.sources)
		c.key = c.sources[0]
		for i, s := range c.sources {
			local[srcID[s]] = int32(i)
		}
		c.counts = make([]int, len(c.sources))
	}
	for gi, p := range groups {
		lo, hi := goff[gi], goff[gi+1]
		if lo == hi {
			continue
		}
		c := l.comps[compOf[find(ids[lo])]-1]
		if len(p.norms) > 1 {
			c.contested = append(c.contested, int32(len(c.groups)))
		}
		c.groups = append(c.groups, p)
		c.off = append(c.off, int32(len(c.src)))
		for _, id := range ids[lo:hi] {
			c.src = append(c.src, local[id])
			c.counts[local[id]]++
		}
		c.maxClaims = max(c.maxClaims, int(hi-lo))
	}
	for _, c := range l.comps {
		c.off = append(c.off, int32(len(c.src)))
	}
	slices.SortFunc(l.comps, func(a, b *trustComponent) int {
		return strings.Compare(a.key, b.key)
	})
	return l
}

// revoted returns the member groups whose credits an iteration must
// recompute under these seeds. An uncontested group's one bucket weighs
// w, the sum of its claims' weights, and its total is 0 + w, so each
// claim's credit w/total is exactly 1.0 — when w is finite and positive.
// Positive it is: every weight is a positive trust or the default, which
// normalized() keeps positive. Finite it is while weightsBounded holds
// over the component's largest group. The bound holds on every iteration
// if it holds on the seeds, since trust only moves halfway toward a mean
// of credits in [0, 1]. A component whose seeds or default break it
// re-votes every group: the same loop over a longer list.
func (c *trustComponent) revoted(seed []float64, defaultTrust float64) []int32 {
	if weightsBounded(slices.Values(seed), defaultTrust, c.maxClaims) {
		return c.contested
	}
	all := make([]int32, len(c.groups))
	for i := range all {
		all[i] = int32(i)
	}
	return all
}

// runComponentFixpoint iterates one component to convergence from seed
// (per local source; pinned sources keep theirs) and returns its trust,
// parallel to the component's sorted sources, with the number of
// iterations it took and the number of groups it re-voted. An iteration
// has two steps. First each re-voted group weighs its buckets, orders
// them (an in-place insertion sort by bucketBefore), sums its total in
// that order and writes each claim's credit w[b]/total into a per-claim
// slab, where every other claim's credit stays 1.0. Then one flat pass
// adds the slab into the per-source sums in group and claim order — the
// order the per-group loop (oracleFixpoint) adds in, so the float
// sequence is that loop's bit for bit. Every claim credits exactly once
// (it sames its own bucket, and a total is never 0), so the per-source
// claim counts are the layout's, none of them 0: a source joins a
// component through a non-null claim. The damped update runs over
// sources in sorted order — exactly local index order. The delta<1e-6
// break is per-component: a converged component stops iterating even
// while a larger one elsewhere keeps going.
func runComponentFixpoint(c *trustComponent, seed []float64, pinned []bool, defaultTrust float64, maxIters int) (cur []float64, iters, contested int) {
	cur = slices.Clone(seed)
	revote := c.revoted(seed, defaultTrust)
	maxBuckets := 0
	for _, gi := range revote {
		maxBuckets = max(maxBuckets, len(c.groups[gi].norms))
	}
	wbuf := make([]float64, maxBuckets)
	obuf := make([]int, maxBuckets)
	credit := make([]float64, len(c.src))
	for k := range credit {
		credit[k] = 1
	}
	sums := make([]float64, len(c.sources))
	for iters < maxIters {
		iters++
		for _, gi := range revote {
			g := c.groups[gi]
			lo, hi := c.off[gi], c.off[gi+1]
			idx, cr := c.src[lo:hi], credit[lo:hi]
			w := wbuf[:len(g.norms)]
			order := obuf[:len(w)]
			for i := range w {
				w[i], order[i] = 0, i
			}
			for ci, si := range idx {
				// trustOf's rule over the dictionary: a positive current
				// value wins, anything else falls back to the default.
				if t := cur[si]; t > 0 {
					w[g.claimBucket[ci]] += t
				} else {
					w[g.claimBucket[ci]] += defaultTrust
				}
			}
			// An in-place insertion sort by the bucket order. It may order
			// buckets that tie on weight and norm differently from an
			// unstable sort, but such buckets carry equal weights, so the
			// total and every claim's credit w[bi]/total are the same
			// floats either way.
			for i := 1; i < len(order); i++ {
				for j := i; j > 0 && bucketBefore(w, g.norms, order[j], order[j-1]); j-- {
					order[j], order[j-1] = order[j-1], order[j]
				}
			}
			total := 0.0
			for _, bi := range order {
				total += w[bi]
			}
			for ci, bi := range g.credit {
				if bi < 0 {
					row := g.match[ci]
					for _, b := range order {
						if row[b] {
							bi = int32(b)
							break
						}
					}
				}
				cr[ci] = w[bi] / total
			}
		}
		clear(sums)
		for k, si := range c.src {
			sums[si] += credit[k]
		}
		delta := 0.0
		for i := range cur {
			if pinned[i] {
				continue
			}
			next := 0.5*cur[i] + 0.5*(sums[i]/float64(c.counts[i]))
			delta += math.Abs(next - cur[i])
			cur[i] = next
		}
		if delta < 1e-6 {
			break
		}
	}
	return cur, iters, len(revote)
}

// EstimateTrustWarmParallel is EstimateTrustParallel over grouped claims
// that carry prepared state across estimations. First, and for every
// policy, g adopts the prepared state of each group prev prepared whose
// claims held (prev may be nil, or g itself) and prepares every other
// group, so that fusing g afterwards only reads it. It returns options
// ready for g.Fuse, the wall clock of its steps and the estimation's
// stats. Byte-identical to the cold estimation at any worker count.
func EstimateTrustWarmParallel(g *ClaimGroups, opts Options, prev *ClaimGroups, workers int) (Options, TrustSplit, TrustStats) {
	start := time.Now()
	opts = opts.normalized()
	kept := g.adopt(prev)
	g.prepare(workers)
	st := TrustStats{GroupsKept: kept, GroupsPrepared: g.Len() - kept}
	// Only TruthFinder has a fixpoint; for every other policy estimation
	// is a no-op beyond normalization and preparation.
	var fixpoint time.Duration
	if opts.Policy == TruthFinder {
		fixpoint = estimateTrust(g, &opts, &st)
	}
	st.FuseRevoted = g.revoted(opts)
	return opts, TrustSplit{Prepare: time.Since(start) - fixpoint, Fixpoint: fixpoint}, st
}

// adopt hands each of g's groups that prev prepared and whose claims held
// prev's prepared state — one merge walk over the two group orders — and
// reports how many of g's groups carry prepared state afterwards.
func (g *ClaimGroups) adopt(prev *ClaimGroups) (kept int) {
	if prev != nil && prev != g {
		j, c := 0, 1
		for i, cs := range g.claims {
			for ; j < len(prev.claims); j++ {
				p := prev.claims[j][0]
				if c = compareKey(p.Entity, p.Attribute, cs[0].Entity, cs[0].Attribute); c >= 0 {
					break
				}
			}
			if g.prep[i] == nil && j < len(prev.claims) && c == 0 && claimsHeld(prev.claims[j], cs) {
				g.prep[i] = prev.prep[j]
			}
		}
	}
	for _, p := range g.prep {
		if p != nil {
			kept++
		}
	}
	return kept
}

// prepare prepares every group that carries no prepared state yet,
// fanning out over engine workers when more than one of each is available
// — profiles put preparation ahead of the iteration loop on cold
// estimations. Each group's prepared state is a pure function of its own
// claims, and the MapSlice merge is position-deterministic, so the
// parallel build is identical to the sequential loop.
func (g *ClaimGroups) prepare(workers int) {
	var idx []int
	for i, p := range g.prep {
		if p == nil {
			idx = append(idx, i)
		}
	}
	if workers != 1 && len(idx) > 1 {
		prepared, err := engine.MapSlice(context.Background(), workers, idx,
			func(_ context.Context, i int) (*groupPrep, error) {
				return prepareGroup(g.claims[i]), nil
			})
		if err == nil {
			for k, i := range idx {
				g.prep[i] = prepared[k]
			}
			return
		}
		// A recovered panic: fall through so it resurfaces sequentially.
	}
	for _, i := range idx {
		g.prep[i] = prepareGroup(g.claims[i])
	}
}

// estimateTrust is the one TruthFinder trust estimation, over prepared
// groups: value confidence is the trust-weighted vote share; source trust
// is the mean confidence of the values the source claims. Trust is
// written back into opts.Trust, the component shape into st. Groups are
// visited in group order — float accumulation is not associative, so
// any other order would make trust (and with it confidences and
// tie-broken winners) vary with how the claims arrived. Bucket formation
// is iteration-invariant (membership depends only on values, not
// weights), so the fixpoint reads each group's buckets as prepared, over
// the layout g carries — laid out here if g has none yet — and runs per
// trust-coupled component with a per-component convergence break. It
// returns the wall clock of the layout and fixpoint steps.
func estimateTrust(g *ClaimGroups, opts *Options, st *TrustStats) time.Duration {
	start := time.Now()
	if g.layout == nil {
		g.layout, st.LayoutBuilt = buildTrustLayout(g.claims, g.prep), true
	}
	// Every source that appears in any claim (nulls included) gets a trust
	// entry before the components read their seeds.
	for _, s := range g.layout.sources {
		if _, ok := opts.Trust[s]; !ok {
			opts.Trust[s] = opts.DefaultTrust
		}
	}
	// Components share no source, and each reads its seeds before it runs,
	// so writing one's result back cannot reach another's run.
	comps := g.layout.comps
	st.Components, st.Iterations = len(comps), make([]int, len(comps))
	for i, c := range comps {
		seed, pinned := c.seeds(opts)
		trust, iters, contested := runComponentFixpoint(c, seed, pinned, opts.DefaultTrust, opts.Iterations)
		for j, src := range c.sources {
			opts.Trust[src] = trust[j]
		}
		st.Iterations[i] = iters
		st.Contested += contested
	}
	return time.Since(start)
}

// seeds reads the component's seed trust and pinned flags from opts, per
// local source, into fresh slices.
func (c *trustComponent) seeds(opts *Options) (seed []float64, pinned []bool) {
	seed, pinned = make([]float64, len(c.sources)), make([]bool, len(c.sources))
	for i, s := range c.sources {
		seed[i], pinned[i] = opts.Trust[s], opts.Pinned[s]
	}
	return seed, pinned
}

// claimsHeld compares two claim lists on everything prepared state reads:
// source and value, in order. AsOf is deliberately ignored — freshness
// never enters bucket formation, so a re-snapshot that kept every value
// does not dirty the group. Values must be Same: 0 and -0 are Equal but
// print — and so normalise and fuse — differently. One list handed to
// both layouts (GroupedClaims) holds without a look at its claims.
func claimsHeld(a, b []Claim) bool {
	if len(a) != len(b) {
		return false
	}
	if len(a) > 0 && &a[0] == &b[0] {
		return true
	}
	for i := range a {
		if a[i].SourceID != b[i].SourceID || !a[i].Value.Same(b[i].Value) {
			return false
		}
	}
	return true
}
