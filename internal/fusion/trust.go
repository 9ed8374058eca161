package fusion

import (
	"context"
	"math"
	"slices"
	"sort"
	"strings"
	"time"

	"repro/internal/dataset"
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
// Reuse across estimations happens at one grain, the prepared (entity,
// attribute) group (groupPrep), whose value buckets are formed once and
// serve the fixpoint and the fuse alike: a group whose claims held since
// the previous ClaimGroups adopts its state, and a fuse-only reaction,
// whose claims cannot have moved, hands the estimation the previous
// ClaimGroups itself and regroups and prepares nothing. Every component
// iterates on every estimation — trust is always the exact global
// fixpoint of the claims it was given.

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
}

// TrustSplit is the wall clock of one trust estimation, by step: adopting
// and preparing groups, then building the components and iterating them.
// It is kept apart from TrustStats, which is a deterministic function of
// the inputs.
type TrustSplit struct {
	Prepare, Fixpoint time.Duration
}

// trustComponent is one trust-coupled connected component prepared for an
// independent fixpoint: its member groups in global group order, its
// distinct sources sorted (the component-local dictionary), each group's
// non-null claim sources dictionary-encoded to local indices, and the
// per-source seed trust and pinned flags snapshotted at build time.
type trustComponent struct {
	key     string       // identity: lexicographically smallest member source
	groups  []*groupPrep // member groups, in global group order
	srcIdx  [][]int32    // parallel to groups: per non-null claim, local source index
	sources []string     // distinct member sources, sorted
	seed    []float64    // per local source: trust at fixpoint start
	pinned  []bool       // per local source: trust is externally fixed
}

// buildTrustComponents unions every group's non-null claim sources and
// materialises one trustComponent per union-find root. Groups are visited
// in their global group order, so each component's groups are a
// subsequence of that order and the within-component float accumulation
// sequence matches the old single-loop fixpoint exactly. Groups with only
// null claims join no component: they contributed total==0 and were
// skipped by the old loop too. Components are returned sorted by key.
// Must run after default-trust seeding so seed snapshots are complete.
func buildTrustComponents(groups []*groupPrep, opts *Options) []*trustComponent {
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
// identical to the old global loop: groups in group order, claims in
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
			order := obuf[:len(w)]
			for i := range w {
				w[i], order[i] = 0, i
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
	if opts.Policy != TruthFinder {
		// No fixpoint exists for this policy; estimation is a no-op beyond
		// normalization and preparation.
		return opts, TrustSplit{Prepare: time.Since(start)}, st
	}
	fixpoint := estimateTrust(g, &opts, &st)
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
// weights), so the fixpoint reads each group's buckets as prepared and
// runs per trust-coupled component with a per-component convergence
// break. It returns the wall clock of the fixpoint step.
func estimateTrust(g *ClaimGroups, opts *Options, st *TrustStats) time.Duration {
	// Every source that appears in any claim (nulls included) gets a trust
	// entry before components snapshot their seeds.
	for _, cs := range g.claims {
		for _, c := range cs {
			if _, ok := opts.Trust[c.SourceID]; !ok {
				opts.Trust[c.SourceID] = opts.DefaultTrust
			}
		}
	}
	start := time.Now()
	// Components share no source, and each snapshotted its seeds when it
	// was built, so writing one's result back cannot reach another's run.
	comps := buildTrustComponents(g.prep, opts)
	st.Components, st.Iterations = len(comps), make([]int, len(comps))
	for i, c := range comps {
		trust, iters := runComponentFixpoint(c, opts.DefaultTrust, opts.Iterations)
		for j, src := range c.sources {
			opts.Trust[src] = trust[j]
		}
		st.Iterations[i] = iters
	}
	return time.Since(start)
}

// claimsHeld compares two claim lists on everything prepared state reads:
// source and value, in order. AsOf is deliberately ignored — freshness
// never enters bucket formation, so a re-snapshot that kept every value
// does not dirty the group. Values must be Equal and, for floats, agree
// in sign: 0 and -0 are Equal but print — and so normalise and fuse —
// differently.
func claimsHeld(a, b []Claim) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		va, vb := a[i].Value, b[i].Value
		if a[i].SourceID != b[i].SourceID || !va.Equal(vb) ||
			va.Kind() == dataset.KindFloat && math.Signbit(va.FloatVal()) != math.Signbit(vb.FloatVal()) {
			return false
		}
	}
	return true
}
