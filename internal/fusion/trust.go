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
// (trustLayout), made once per ClaimGroups and carried on it: a fuse-only
// reaction, whose claims cannot have moved, hands the estimation the
// previous ClaimGroups itself, so it regroups, prepares and lays out
// nothing; a full reaction, which hands most groups on whole, lays out
// only the groups that moved and copies the rest from the previous
// layout (patchLayout). Only the seeds and pinned flags are read afresh
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
	// fuse-only reaction) or no fixpoint ran. GroupsLaidOut counts the
	// groups it laid out from their claims: every group of a layout built
	// afresh, and only the groups not handed on whole when the layout was
	// patched from prev's.
	LayoutBuilt   bool
	GroupsLaidOut int
	// FuseRevoted counts the groups a fuse under the returned options
	// votes: those with more than one fuse bucket, or every group with a
	// non-null claim where a one-bucket group's result could depend on
	// trust (FreshnessWeighted, or a weight near MaxFloat64). The other
	// groups fuse without a vote.
	FuseRevoted int
}

// TrustSplit is the wall clock of one trust estimation, by step: adopting
// and preparing groups, laying out the components, and iterating them.
// It is kept apart from TrustStats, which is a deterministic function of
// the inputs.
type TrustSplit struct {
	Prepare, Layout, Fixpoint time.Duration
}

// trustLayout is the fixpoint's view of one ClaimGroups: its components,
// laid out flat, over a dictionary that numbers every distinct claim
// source — null-only sources included, which an estimation seeds with the
// default trust. The first TruthFinder estimation over the ClaimGroups
// makes it (patchLayout), afresh or from the layout of the ClaimGroups
// its groups were handed on from, and it is
// read-only after: a layout patched from stays as it was, for the
// versions and fuse-only reactions that share it. Both ways make the same
// components, sources, arrays and counts; only the source numbers, which
// a patched layout carries over, may differ.
type trustLayout struct {
	sources []string          // the dictionary: per source number, its source; a patched layout keeps its numbers
	claims  []int32           // per source number: the claims naming it, nulls included; 0 for a retired number
	live    int               // source numbers with claims
	comps   []*trustComponent // sorted by key
	at      []int32           // per group: its component's index in comps, -1 for a group with only null claims
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
	global    []int32      // per local source: its number in the layout's dictionary
	src       []int32      // per non-null claim, group order then claim order: local source index
	off       []int32      // per member group, its first claim in src; a last entry closes the final group
	contested []int32      // member groups with more than one bucket, as indices into groups
	counts    []int        // per local source: its non-null claims, each credited once per iteration
	maxClaims int          // the largest member group's non-null claim count
}

// sourceSets is a union-find over source numbers.
type sourceSets []int32

func newSourceSets(n int) sourceSets {
	s := make(sourceSets, n)
	for i := range s {
		s[i] = int32(i)
	}
	return s
}

func (s sourceSets) find(x int32) int32 {
	for s[x] != x {
		s[x] = s[s[x]]
		x = s[x]
	}
	return x
}

// union joins the sets of a and b and reports whether they were apart.
func (s sourceSets) union(a, b int32) bool {
	ra, rb := s.find(a), s.find(b)
	if ra == rb {
		return false
	}
	s[rb] = ra
	return true
}

// unionAll joins the sets of every number in ids and reports how many
// sets it joined.
func (s sourceSets) unionAll(ids []int32) (joined int) {
	for _, id := range ids[min(1, len(ids)):] {
		if s.union(ids[0], id) {
			joined++
		}
	}
	return joined
}

// components forms l.comps from the union-find over source numbers: one
// component per set holding a source with non-null claims, its sources
// sorted, the components sorted by key. A component whose sources are
// exactly those of one of prev's components (prevComp numbers each
// source's) is that one's heir: it shares its sorted sources and numbers,
// so its local indices are the same, and has room for its groups and
// spare more. It returns, per set root, its component's index in l.comps,
// per source number its local index, and per component of prev the index
// of its heir, or -1.
func (l *trustLayout) components(sets sourceSets, nonNull []int32, prev *trustLayout, prevComp []int32, spare int) (compOf, local []int32, heirOf []int32) {
	compOf, local = make([]int32, len(l.sources)), make([]int32, len(l.sources))
	for i := range compOf {
		compOf[i] = -1
	}
	var members [][]int32 // per component, in first-source order: its source numbers
	for id, n := range nonNull {
		if n == 0 {
			continue
		}
		r := sets.find(int32(id))
		if compOf[r] < 0 {
			compOf[r] = int32(len(members))
			members = append(members, nil)
		}
		members[compOf[r]] = append(members[compOf[r]], int32(id))
	}
	l.comps = make([]*trustComponent, len(members))
	for k, ids := range members {
		c := &trustComponent{}
		if prev != nil {
			if pk := prevComp[ids[0]]; pk >= 0 && len(prev.comps[pk].global) == len(ids) &&
				!slices.ContainsFunc(ids, func(id int32) bool { return prevComp[id] != pk }) {
				pc := prev.comps[pk]
				c.sources, c.global = pc.sources, pc.global
				c.groups, c.off = make([]*groupPrep, 0, len(pc.groups)+spare), make([]int32, 0, len(pc.off)+spare)
				c.contested = make([]int32, 0, len(pc.contested)+spare)
			}
		}
		if c.global == nil {
			slices.SortFunc(ids, func(a, b int32) int { return strings.Compare(l.sources[a], l.sources[b]) })
			c.global, c.sources = ids, make([]string, len(ids))
			for i, id := range ids {
				c.sources[i] = l.sources[id]
			}
		}
		c.key = c.sources[0]
		c.counts = make([]int, len(c.global))
		total := 0
		for i, id := range c.global {
			local[id], c.counts[i] = int32(i), int(nonNull[id])
			total += c.counts[i]
		}
		c.src = make([]int32, 0, total)
		l.comps[k] = c
	}
	slices.SortFunc(l.comps, func(a, b *trustComponent) int { return strings.Compare(a.key, b.key) })
	if prev != nil {
		heirOf = make([]int32, len(prev.comps))
		for k := range heirOf {
			heirOf[k] = -1
		}
	}
	for k, c := range l.comps {
		compOf[sets.find(c.global[0])] = int32(k)
		if prev != nil && c.groups != nil {
			heirOf[prevComp[c.global[0]]] = int32(k)
		}
	}
	return compOf, local, heirOf
}

// appendGroup appends one member group whose non-null claims' sources
// have the numbers ids.
func (c *trustComponent) appendGroup(p *groupPrep, ids, local []int32) {
	if len(p.norms) > 1 {
		c.contested = append(c.contested, int32(len(c.groups)))
	}
	c.groups = append(c.groups, p)
	c.off = append(c.off, int32(len(c.src)))
	for _, id := range ids {
		c.src = append(c.src, local[id])
	}
	c.maxClaims = max(c.maxClaims, len(ids))
}

// appendRun appends member groups lo..hi-1 of from, a component with the
// same sources: their local indices hold, so the claims are copied as
// they are, and their offsets and contested indices shifted.
func (c *trustComponent) appendRun(from *trustComponent, lo, hi int32) {
	base, shift := int32(len(c.groups)), int32(len(c.src))-from.off[lo]
	for p := lo; p < hi; p++ {
		c.off = append(c.off, from.off[p]+shift)
		c.maxClaims = max(c.maxClaims, int(from.off[p+1]-from.off[p]))
	}
	c.src = append(c.src, from.src[from.off[lo]:from.off[hi]]...)
	c.groups = append(c.groups, from.groups[lo:hi]...)
	k, _ := slices.BinarySearch(from.contested, lo)
	for ; k < len(from.contested) && from.contested[k] < hi; k++ {
		c.contested = append(c.contested, from.contested[k]-lo+base)
	}
}

// patchLayout lays g's groups out for the fixpoint, over the layout of
// prev, the ClaimGroups g's groups were laid out after: from[i] is the
// group of prev whose claims g's group i holds by pointer — handed on
// whole, with its prepared state — or -1 for a group laid out afresh.
// With no prev (and no from) every group is fresh. A fresh group's claims
// are numbered through the source dictionary, a source on first sight,
// and its non-null claims' sources joined in a union-find; only they and
// the claims of prev's groups not handed on move the per-source claim
// counts. The union-find starts from prev's components: one that kept
// every group stays joined, and one that lost a group, which may have
// split it, is re-joined over the groups it kept until its sources meet
// again. One trustComponent is made per set (components); a component
// with the sources of one of prev's keeps its local indices, so each run
// of groups handed on from it in order is copied as it is (appendRun),
// and the rest are laid out group by group. Groups are laid out in their
// global group order, so each component's groups are a subsequence of
// that order and the within-component float accumulation sequence matches
// the per-group loop exactly. Groups with only null claims join no
// component: they vote no weight and credit nothing. The result is the
// same whatever prev was, but for the source numbers, which it carries.
// It returns nil when the dictionary, which keeps the numbers of sources
// no claim names any more, would hold more than twice the sources
// present: the caller then lays out afresh, which renumbers them — the
// rule the claim groups' slabs follow.
func patchLayout(g, prev *ClaimGroups, from []int32) (l *trustLayout, laidOut int) {
	pl, prevClaims := &trustLayout{}, [][]Claim(nil)
	if prev != nil {
		pl, prevClaims = prev.layout, prev.claims
	}
	if from == nil {
		from = make([]int32, len(g.claims))
		for i := range from {
			from[i] = -1
		}
	}
	l = &trustLayout{sources: slices.Clip(pl.sources), claims: slices.Clone(pl.claims), at: make([]int32, len(g.claims))}
	nonNull, prevComp := make([]int32, len(pl.sources)), make([]int32, len(pl.sources))
	for id := range prevComp {
		prevComp[id] = -1
	}
	for k, c := range pl.comps {
		for i, id := range c.global {
			nonNull[id], prevComp[id] = int32(c.counts[i]), int32(k)
		}
	}
	srcID := make(map[string]int32, len(l.sources))
	for id, s := range l.sources {
		srcID[s] = int32(id)
	}
	held := make([]bool, len(prevClaims))
	for _, j := range from {
		if j >= 0 {
			held[j] = true
		}
	}
	// Retire the claims of every group of prev not handed on: its non-null
	// claims' sources are read off prev's layout, and only its null claims
	// looked up. A component that lost a group may have split.
	broken := make([]bool, len(pl.comps))
	pos := make([]int32, len(pl.comps)) // per component of prev: member groups passed
	for j, h := range held {
		k, p := pl.at[j], int32(0)
		if k >= 0 {
			p = pos[k]
			pos[k]++
		}
		if h {
			continue
		}
		cs := prevClaims[j]
		nulls := len(cs)
		if k >= 0 {
			c := pl.comps[k]
			broken[k] = true
			for _, s := range c.src[c.off[p]:c.off[p+1]] {
				l.claims[c.global[s]]--
				nonNull[c.global[s]]--
			}
			nulls -= int(c.off[p+1] - c.off[p])
		}
		for i := 0; nulls > 0; i++ {
			if cs[i].Value.IsNull() {
				l.claims[srcID[cs[i].SourceID]]--
				nulls--
			}
		}
	}
	// ids holds the fresh groups' non-null claims' source numbers; foff[f]
	// is fresh group f's first claim in it.
	var ids []int32
	foff := []int32{0}
	for i, j := range from {
		if j >= 0 {
			continue
		}
		cs := g.claims[i]
		for k := range cs {
			c := &cs[k]
			id, ok := srcID[c.SourceID]
			if !ok {
				id = int32(len(l.sources))
				srcID[c.SourceID] = id
				l.sources = append(l.sources, c.SourceID)
				l.claims, nonNull, prevComp = append(l.claims, 0), append(nonNull, 0), append(prevComp, -1)
			}
			l.claims[id]++
			if !c.Value.IsNull() {
				nonNull[id]++
				ids = append(ids, id)
			}
		}
		foff = append(foff, int32(len(ids)))
	}
	laidOut = len(foff) - 1
	for _, n := range l.claims {
		if n > 0 {
			l.live++
		}
	}
	if len(l.sources) > 2*l.live {
		return nil, 0
	}

	// Join the sources: a component of prev that kept every group at once,
	// the fresh groups' sources, and then the groups a broken component
	// kept, in order, until its sources have all met again — or every
	// source has.
	sets := newSourceSets(len(l.sources))
	apart := 0 // sets among the sources of non-null claims
	for _, n := range nonNull {
		if n > 0 {
			apart++
		}
	}
	for k, c := range pl.comps {
		if !broken[k] {
			apart -= sets.unionAll(c.global)
		}
	}
	for f := 1; f < len(foff); f++ {
		apart -= sets.unionAll(ids[foff[f-1]:foff[f]])
	}
	rejoin := 0 // broken components whose sources have not all met again
	joined := make([]int, len(pl.comps))
	for k, c := range pl.comps {
		if broken[k] && len(c.global) > 1 {
			rejoin++
		}
	}
	clear(pos)
	for j := 0; j < len(pl.at) && rejoin > 0 && apart > 1; j++ {
		k := pl.at[j]
		if k < 0 {
			continue
		}
		c, p := pl.comps[k], pos[k]
		pos[k]++
		if !held[j] || !broken[k] || joined[k] == len(c.global)-1 {
			continue
		}
		src := c.src[c.off[p]:c.off[p+1]]
		for _, s := range src[1:] {
			if sets.union(c.global[src[0]], c.global[s]) {
				apart--
				if joined[k]++; joined[k] == len(c.global)-1 {
					rejoin--
				}
			}
		}
	}
	compOf, local, heirOf := l.components(sets, nonNull, pl, prevComp, laidOut)

	// Lay the groups out in group order. A run is a stretch of groups
	// handed on in order from one component of prev into its heir.
	var run struct {
		from, to *trustComponent
		lo, hi   int32
	}
	flush := func() {
		if run.to != nil {
			run.to.appendRun(run.from, run.lo, run.hi)
			run.to = nil
		}
	}
	clear(pos)
	var buf []int32
	j, f := 0, 0
	for i := range g.claims {
		if pj := int(from[i]); pj >= 0 {
			for ; j <= pj; j++ {
				if k := pl.at[j]; k >= 0 {
					pos[k]++
				}
			}
			k := pl.at[pj]
			if k < 0 {
				l.at[i] = -1
				continue
			}
			c, p := pl.comps[k], pos[k]-1
			if nk := heirOf[k]; nk >= 0 {
				l.at[i] = nk
				if run.to != nil && run.from == c && run.hi == p {
					run.hi++
					continue
				}
				flush()
				run.from, run.to, run.lo, run.hi = c, l.comps[nk], p, p+1
				continue
			}
			flush()
			buf = buf[:0]
			for _, s := range c.src[c.off[p]:c.off[p+1]] {
				buf = append(buf, c.global[s])
			}
			l.at[i] = compOf[sets.find(buf[0])]
			l.comps[l.at[i]].appendGroup(g.prep[i], buf, local)
			continue
		}
		grp := ids[foff[f]:foff[f+1]]
		f++
		if len(grp) == 0 {
			l.at[i] = -1
			continue
		}
		flush()
		l.at[i] = compOf[sets.find(grp[0])]
		l.comps[l.at[i]].appendGroup(g.prep[i], grp, local)
	}
	flush()
	for _, c := range l.comps {
		c.off = append(c.off, int32(len(c.src)))
	}
	return l, laidOut
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
// group, so that fusing g afterwards only reads it. A TruthFinder
// estimation then lays the fixpoint out from prev's layout when prev has
// one and handed at least half of g's groups on whole. It returns options
// ready for g.Fuse, the wall clock of its steps and the estimation's
// stats. Byte-identical to the cold estimation at any worker count.
func EstimateTrustWarmParallel(g *ClaimGroups, opts Options, prev *ClaimGroups, workers int) (Options, TrustSplit, TrustStats) {
	start := time.Now()
	opts = opts.normalized()
	kept, from := g.adopt(prev)
	g.prepare(workers)
	st := TrustStats{GroupsKept: kept, GroupsPrepared: g.Len() - kept}
	// Only TruthFinder has a fixpoint; for every other policy estimation
	// is a no-op beyond normalization and preparation.
	var split TrustSplit
	if opts.Policy == TruthFinder {
		split.Layout, split.Fixpoint = estimateTrust(g, &opts, &st, prev, from)
	}
	st.FuseRevoted = g.revoted(opts)
	split.Prepare = time.Since(start) - split.Layout - split.Fixpoint
	return opts, split, st
}

// Prepare does ahead of time what g's first estimation would do before it
// iterates: it prepares every group that carries no prepared state yet,
// on the worker fan-out, and under TruthFinder lays the fixpoint out. A
// later EstimateTrustWarmParallel that takes g as its prev then adopts
// g's groups and patches g's layout, as it does after a live estimation.
func (g *ClaimGroups) Prepare(policy Policy, workers int) {
	g.prepare(workers)
	if policy == TruthFinder && g.layout == nil {
		g.layout, _ = patchLayout(g, nil, nil)
	}
}

// adopt hands each of g's groups that prev prepared and whose claims held
// prev's prepared state — one merge walk over the two group orders — and
// reports how many of g's groups carry prepared state afterwards. When
// prev has a fixpoint layout g may be laid out from, from[i] is the group
// of prev that handed g's group i on whole — the same claims, by pointer,
// and so the same prepared state — or -1; from is nil otherwise.
func (g *ClaimGroups) adopt(prev *ClaimGroups) (kept int, from []int32) {
	if prev != nil && prev != g {
		if prev.layout != nil && g.layout == nil {
			from = make([]int32, len(g.claims))
		}
		// The adopted groups add prev's voted counts less the share of
		// prev's groups not adopted, which drop subtracts as the walk
		// passes them: the counts cost what the delta moved.
		for k := range g.voted {
			g.voted[k] += prev.voted[k]
		}
		dropped := 0 // prev's groups below it are accounted for
		drop := func(upTo int) {
			for ; dropped < upTo; dropped++ {
				if p := prev.prep[dropped]; p != nil {
					p.count(&g.voted, -1)
				}
			}
		}
		j := 0
		for i, cs := range g.claims {
			if from != nil {
				from[i] = -1
			}
			// A group handed on whole is prev's group by pointer, and a
			// group of prev matches one group of g at most.
			c := 1
			for ; j < len(prev.claims); j++ {
				p := &prev.claims[j][0]
				if p == &cs[0] {
					c = 0
					break
				}
				if c = compareKey(p.Entity, p.Attribute, cs[0].Entity, cs[0].Attribute); c >= 0 {
					break
				}
			}
			if c != 0 || !claimsHeld(prev.claims[j], cs) {
				continue
			}
			if g.prep[i] == nil {
				g.prep[i] = prev.prep[j]
				drop(j)
				dropped++
			}
			if from != nil && &prev.claims[j][0] == &cs[0] && g.prep[i] == prev.prep[j] {
				from[i] = int32(j)
			}
			j++
		}
		drop(len(prev.claims))
	}
	for _, p := range g.prep {
		if p != nil {
			kept++
		}
	}
	return kept, from
}

// prepare prepares every group that carries no prepared state yet,
// fanning out over engine workers when more than one of each is available
// — profiles put preparation ahead of the iteration loop on cold
// estimations — and then, once per ClaimGroups, lists its voters. Each
// group's prepared state is a pure function of its own claims, and each
// run writes only its own groups' slots, so the parallel build is
// identical to the sequential loop.
func (g *ClaimGroups) prepare(workers int) {
	var idx []int
	for i, p := range g.prep {
		if p == nil {
			idx = append(idx, i)
		}
	}
	prepared := make([]*groupPrep, len(idx))
	if workers != 1 && len(idx) > 1 {
		// Contiguous runs of groups, each reusing one compare-form buffer.
		// A recovered panic leaves its run's groups nil, so they resurface
		// sequentially.
		runs := min(len(idx), 4*engine.Workers(workers))
		_ = engine.Map(context.Background(), workers, runs, func(_ context.Context, r int) error {
			var nv []normVal
			for k := r * len(idx) / runs; k < (r+1)*len(idx)/runs; k++ {
				prepared[k] = prepareGroup(g.claims[idx[k]], &nv)
			}
			return nil
		})
	}
	var nv []normVal
	for k, i := range idx {
		if g.prep[i] = prepared[k]; g.prep[i] == nil {
			g.prep[i] = prepareGroup(g.claims[i], &nv)
		}
		g.prep[i].count(&g.voted, 1)
	}
	g.listVoters()
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
// the layout g carries — laid out here if g has none yet, from prev's
// when adopt found groups prev handed on whole (from) — and runs per
// trust-coupled component with a per-component convergence break. It
// returns the wall clock of the layout and fixpoint steps.
func estimateTrust(g *ClaimGroups, opts *Options, st *TrustStats, prev *ClaimGroups, from []int32) (layout, fixpoint time.Duration) {
	if g.layout == nil {
		start := time.Now()
		handed := 0
		for _, j := range from {
			if j >= 0 {
				handed++
			}
		}
		if handed > 0 && 2*handed >= len(from) {
			g.layout, st.GroupsLaidOut = patchLayout(g, prev, from)
		}
		if g.layout == nil {
			g.layout, st.GroupsLaidOut = patchLayout(g, nil, nil)
		}
		st.LayoutBuilt, layout = true, time.Since(start)
	}
	start := time.Now()
	// Every source that appears in any claim (nulls included) gets a trust
	// entry before the components read their seeds.
	l := g.layout
	for id, s := range l.sources {
		if _, ok := opts.Trust[s]; !ok && l.claims[id] > 0 {
			opts.Trust[s] = opts.DefaultTrust
		}
	}
	// Components share no source, and each reads its seeds before it runs,
	// so writing one's result back cannot reach another's run.
	st.Components, st.Iterations = len(l.comps), make([]int, len(l.comps))
	for i, c := range l.comps {
		seed, pinned := c.seeds(opts)
		trust, iters, contested := runComponentFixpoint(c, seed, pinned, opts.DefaultTrust, opts.Iterations)
		for j, src := range c.sources {
			opts.Trust[src] = trust[j]
		}
		st.Iterations[i] = iters
		st.Contested += contested
	}
	return layout, time.Since(start)
}

// LayoutSize reports the size of the fixpoint layout g carries: the
// non-null claims it lays out, the source numbers its dictionary holds —
// retired ones included — and the sources g's claims name. All three are
// zero before a TruthFinder estimation laid g out.
func (g *ClaimGroups) LayoutSize() (claims, numbers, sources int) {
	if l := g.layout; l != nil {
		for _, c := range l.comps {
			claims += len(c.src)
		}
		numbers, sources = len(l.sources), l.live
	}
	return claims, numbers, sources
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
