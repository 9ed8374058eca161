// Package fusion resolves conflicting values from multiple sources into a
// single wrangled record per entity. It implements the fusion spectrum the
// paper positions against KBC (§3.1): frequency-based voting (the
// "instance-based redundancy" assumption KBC leans on), source-trust
// weighted voting with iterative trust estimation (truth discovery in the
// style of Yin et al. [36]), and freshness-aware fusion for "highly
// transient information (e.g., pricing)" where redundancy actively
// misleads — stale values are frequent but wrong.
package fusion

import (
	"fmt"
	"iter"
	"maps"
	"math"
	"slices"
	"sort"
	"strings"
	"time"

	"repro/internal/dataset"
	"repro/internal/text"
)

// Claim is one source's assertion of an attribute value for an entity.
type Claim struct {
	Entity    string // entity/cluster id
	Attribute string
	Value     dataset.Value
	SourceID  string
	AsOf      time.Time // when the source observed the value (freshness)
}

// Policy selects the fusion strategy.
type Policy int

// Fusion policies.
const (
	// MajorityVote picks the most frequent value (KBC-style redundancy).
	MajorityVote Policy = iota
	// WeightedVote weights each vote by the source's trust score.
	WeightedVote
	// TruthFinder iterates between value confidence and source trust.
	TruthFinder
	// FreshnessWeighted decays votes by age before weighting by trust —
	// the right policy for transient attributes such as prices.
	FreshnessWeighted
)

// String names the policy.
func (p Policy) String() string {
	switch p {
	case MajorityVote:
		return "majority"
	case WeightedVote:
		return "weighted"
	case TruthFinder:
		return "truthfinder"
	case FreshnessWeighted:
		return "freshness"
	default:
		return fmt.Sprintf("policy(%d)", int(p))
	}
}

// Options configures a fusion run.
type Options struct {
	Policy Policy
	// Trust maps source id -> prior trust in (0,1]. Missing sources get
	// DefaultTrust. Updated in place by TruthFinder iterations.
	Trust map[string]float64
	// Pinned marks sources whose trust is externally established (e.g.
	// derived from user feedback) and must not be overwritten by
	// TruthFinder's iterative estimation.
	Pinned       map[string]bool
	DefaultTrust float64
	// Now anchors freshness decay; claims older than Now by HalfLife lose
	// half their vote.
	Now      time.Time
	HalfLife time.Duration
	// Iterations bounds TruthFinder fixpoint iterations (default 10).
	Iterations int
}

// numericTolerance groups numeric claims whose relative difference is at
// most this into one value bucket.
const numericTolerance = 0.01

// DefaultOptions returns options for the given policy with moderate
// settings.
func DefaultOptions(p Policy) Options {
	return Options{
		Policy:       p,
		Trust:        map[string]float64{},
		DefaultTrust: 0.8,
		HalfLife:     24 * time.Hour,
		Iterations:   10,
	}
}

// Result is the fused value for one (entity, attribute) with its
// confidence and the support that won.
type Result struct {
	Entity     string
	Attribute  string
	Value      dataset.Value
	Confidence float64 // winning bucket's share of total vote mass
	Support    int     // number of claims in the winning bucket
	Conflict   bool    // more than one distinct value bucket was claimed
}

// normalized fills option defaults so every entry point applies the same
// policy regardless of which half of the fuse pipeline it drives.
func (o Options) normalized() Options {
	if o.DefaultTrust <= 0 {
		o.DefaultTrust = 0.8
	}
	if o.Iterations <= 0 {
		o.Iterations = 10
	}
	if o.Trust == nil {
		o.Trust = map[string]float64{}
	}
	return o
}

// ClaimGroups is a claim set grouped by (entity, attribute): one claim
// list per group, groups ordered by entity and then attribute (plain
// string order on each), each group's claims in input order. Group order
// and in-group claim order are both part of fusion's determinism contract
// — bucket representatives and float accumulation follow them. Trust
// estimation and fusion both read one ClaimGroups, so a tail that
// estimates trust and then fuses, whole or in entity ranges, groups its
// claims once.
//
// Laying the groups out records, once, the first group of each entity —
// so a fuse part finds the groups of its entity range with no walk — and
// the largest group's claim count, which bounds the trust under which a
// one-bucket group fuses without a vote. Each group also carries its
// prepared state (groupPrep): its value buckets, formed once for the
// trust fixpoint and the fuse alike, and the supporters of each bucket
// the fuse can pick, for the report — a function of its claim values and
// sources alone, never of trust. Over all of them the first TruthFinder
// estimation lays out the fixpoint's flat source and claim arrays
// (trustLayout), once per ClaimGroups. A ClaimGroups is the memo the
// next estimation adopts from (EstimateTrustWarmParallel's prev) —
// prepared state, and the layout of every group it hands on whole — and a
// fuse-only reaction, whose claims cannot have moved, hands the same
// ClaimGroups on and regroups, prepares and lays out nothing. Claims
// never change, and only the estimation writes a prepared slot or the
// layout: once it has run, fusing only reads, so any number of Fuse calls
// may run at once.
type ClaimGroups struct {
	claims      [][]Claim    // per group, in group order
	prep        []*groupPrep // parallel to claims: nil until prepared
	layout      *trustLayout // nil until a TruthFinder estimation ran; immutable once made
	entityStart []int32      // per entity, in ordinal order: its first group; a last entry closes the final entity
	maxClaims   int          // the largest group's claim count, nulls included
	// voted[k] counts the prepared groups with more than k fuse buckets:
	// those FuseInto votes in, where TrustFree holds (k = 1) or not (k = 0).
	voted [2]int
	// voters lists, ascending, the voted[1] groups with more than one fuse
	// bucket: all a fuse from a previous slab re-votes. prepare lists
	// them, once, when it has first prepared every group.
	voters []int32
}

// Len reports the number of (entity, attribute) groups — the length of
// the slab FuseInto writes results into.
func (g *ClaimGroups) Len() int { return len(g.claims) }

// Group returns group i's claims, in the order they were laid out. The
// slice is the group's own: treat it as read-only. A caller that lays out
// the next claim groups may hand it on whole when the group's claims held,
// and the next estimation then adopts its prepared state at once.
func (g *ClaimGroups) Group(i int) []Claim { return g.claims[i] }

// GroupClaims groups claims by (entity, attribute), sorting claim
// positions by group and then position, so each group holds its claims in
// input order. It finds each entity's first group on the way.
func GroupClaims(claims []Claim) *ClaimGroups {
	idx := make([]int, len(claims))
	for i := range idx {
		idx[i] = i
	}
	slices.SortFunc(idx, func(a, b int) int {
		if c := compareKey(claims[a].Entity, claims[a].Attribute, claims[b].Entity, claims[b].Attribute); c != 0 {
			return c
		}
		return a - b
	})
	slab := make([]Claim, len(claims))
	var groups [][]Claim
	var starts []int32
	start := 0
	for i, id := range idx {
		slab[i] = claims[id]
		if start == i && (i == 0 || claims[id].Entity != slab[i-1].Entity) {
			starts = append(starts, int32(len(groups)))
		}
		if i+1 == len(idx) || claims[idx[i+1]].Entity != claims[id].Entity || claims[idx[i+1]].Attribute != claims[id].Attribute {
			groups = append(groups, slab[start:i+1:i+1])
			start = i + 1
		}
	}
	return GroupedClaims(groups, append(starts, int32(len(groups))))
}

// GroupedClaims takes claims that arrive grouped: groups[i] is one
// (entity, attribute) group's claims in input order, every group is
// non-empty, and groups are in group order — by entity, then attribute.
// entityStart holds, per entity in ordinal order, its first group, and
// then len(groups). A caller that knows its entities (the integration
// tail reads them off the clustering, and lays the same attributes out
// for each) lays the groups out itself, sorts nothing per claim and reads
// no claim to find where an entity starts. GroupedClaims keeps both
// slices, and walks the groups' lengths once for the largest.
func GroupedClaims(groups [][]Claim, entityStart []int32) *ClaimGroups {
	g := &ClaimGroups{claims: groups, prep: make([]*groupPrep, len(groups)), entityStart: entityStart}
	for _, cs := range groups {
		g.maxClaims = max(g.maxClaims, len(cs))
	}
	return g
}

// EntityStarts returns, per entity in ordinal order, the index of its
// first group, and then Len(): entity e's groups are
// [EntityStarts()[e], EntityStarts()[e+1]). It is also the map FuseInto
// takes to hand results on from a previous fuse of these very groups. The
// slice is g's own: treat it as read-only.
func (g *ClaimGroups) EntityStarts() []int32 { return g.entityStart }

// compareKey is the one group order: by entity, then by attribute.
func compareKey(entityA, attrA, entityB, attrB string) int {
	if c := strings.Compare(entityA, entityB); c != 0 {
		return c
	}
	return strings.Compare(attrA, attrB)
}

// Supporters returns the sources whose claims in group i agree with v —
// within 1 % of v when both are numeric, equal otherwise — sorted and
// without repeats: the sources a "this value is wrong" annotation on v
// should blame. A null v has none. A prepared group answers from the
// supporter list it keeps for each fuse bucket, when v is a bucket's
// representative (a fused value always is); an unprepared group — no
// estimation or Prepare has been through g — scans its claims. Lists
// from a prepared group are shared with every caller and every later
// reaction that keeps the group: treat them as read-only.
func (g *ClaimGroups) Supporters(i int, v dataset.Value) []string {
	if p := g.prep[i]; p != nil {
		for bi, rep := range p.fuseBuckets().reps {
			// Equal values pick out the same supporters: same kind, and
			// numbers at the same magnitude.
			if rep.Equal(v) {
				return p.supporters[bi]
			}
		}
	}
	return appendSupporters(nil, g.claims[i], v)
}

// appendSupporters is the claim scan behind Supporters: it appends to dst
// the sources of claims that agree with v, sorted and without repeats,
// and returns dst unchanged (nil stays nil) when none does.
func appendSupporters(dst []string, claims []Claim, v dataset.Value) []string {
	if v.IsNull() {
		return dst
	}
	eps := 0.0
	if v.IsNumeric() {
		eps = 0.01 * math.Abs(v.FloatVal())
	}
	start := len(dst)
	for k := range claims {
		c := &claims[k]
		if c.Value.IsNull() || !c.Value.ApproxEqual(v, eps) || slices.Contains(dst[start:], c.SourceID) {
			continue
		}
		dst = append(dst, c.SourceID)
	}
	slices.Sort(dst[start:])
	return dst
}

// Fuse fuses every group, in group order, taking source trust as given:
// no fixpoint runs, each group is fused independently under opts.Trust.
// It is FuseInto in one part over a fresh slab, with no previous one. The
// groups must be prepared: g has been through EstimateTrustWarmParallel,
// under any policy. Fuse then writes nothing but its result and never
// mutates opts.Trust, so concurrent calls may share one options value.
func (g *ClaimGroups) Fuse(opts Options) []Result {
	slab := make([]Result, g.Len())
	g.FuseInto(slab, nil, nil, opts, 0, 1)
	return slab
}

// FuseInto fuses part `part` of `parts`: the groups of the entities
// whose ordinals, among the groups' E distinct entities, lie in
// [part·E/parts, (part+1)·E/parts), found off the first group of each
// entity (EntityStarts). It writes each result into slab
// (len(slab) == g.Len()) at its group index and returns the part's span
// of slab, capped at its length, so a caller may keep it as the part's
// results. Parts 0..parts-1 tile slab: between them they fill it with
// Fuse's output, bit for bit under the same trust, since no group spans
// entities — the property the sharded integration tail is built on.
// Where g.TrustFree(opts) holds, a group with one fuse bucket takes its
// result without a vote.
//
// prev, when not nil, is a previous slab of results fused under options
// for which TrustFree held, and from maps g's entities onto it: from[e]
// is the index in prev of the result of entity e's first group when prev
// holds the results of e's very groups — the same claims, by pointer,
// prepared alike — in order from there, and -1 for an entity it does not
// hold (a previous fuse of g itself hands on with from =
// g.EntityStarts()). FuseInto then also returns, in ascending order, the
// part's group indices of mapped entities whose result did not hold
// against prev (Result.Same). Where TrustFree holds for opts as well, no
// result of a mapped entity but a voter's can have moved, so the part
// copies those entities' results from prev and votes only their voters
// (ClaimGroups.voters); it fuses every group of the other entities, and
// every group at all where TrustFree does not hold. Either way the span
// equals a fuse without prev, bit for bit. With prev nil, from is not
// read and moved is nil. FuseInto reads the prepared groups, prev and
// from, and writes only its span of slab, so parts may run at once over
// one slab.
func (g *ClaimGroups) FuseInto(slab, prev []Result, from []int32, opts Options, part, parts int) (span []Result, moved []int) {
	opts = opts.normalized()
	entities := len(g.entityStart) - 1
	elo, ehi := part*entities/parts, (part+1)*entities/parts
	lo, hi := g.entityStart[elo], g.entityStart[ehi]
	free := g.TrustFree(opts)
	var sc fuseScratch
	fuse := func(i int32, old *Result) {
		slab[i] = g.prep[i].result(g.claims[i], opts, free, &sc)
		if old != nil && !slab[i].Same(old) {
			moved = append(moved, int(i))
		}
	}
	k, _ := slices.BinarySearch(g.voters, lo)
	voters := g.voters[k:] // the part's voters, from its first group on
	for e := elo; e < ehi; {
		start := g.entityStart[e]
		for len(voters) > 0 && voters[0] < start {
			voters = voters[1:]
		}
		if prev == nil || from[e] < 0 {
			for i := start; i < g.entityStart[e+1]; i++ {
				fuse(i, nil)
			}
			e++
			continue
		}
		// The run of entities from e on whose results prev holds in one
		// piece: one copy, or one walk, for all of them.
		first := e
		for e++; e < ehi && from[e] == from[e-1]+g.entityStart[e]-g.entityStart[e-1]; e++ {
		}
		end := g.entityStart[e]
		handed := prev[from[first] : from[first]+end-start]
		if free {
			copy(slab[start:end], handed)
			for ; len(voters) > 0 && voters[0] < end; voters = voters[1:] {
				fuse(voters[0], &handed[voters[0]-start])
			}
			continue
		}
		for i := start; i < end; i++ {
			fuse(i, &handed[i-start])
		}
	}
	return slab[lo:hi:hi], moved
}

// Same is the rule that decides a result unchanged: the same value
// (dataset.Value.Same), the same Confidence bits, Support and Conflict.
// The keys are not compared.
func (r *Result) Same(o *Result) bool {
	return math.Float64bits(r.Confidence) == math.Float64bits(o.Confidence) && r.Support == o.Support &&
		r.Conflict == o.Conflict && r.Value.Same(o.Value)
}

// TrustFree reports whether, under opts, a group with one fuse bucket
// fuses to the same result whatever the trust: its representative, its
// member count, no conflict and Confidence w/(0+w), exactly 1.0 when its
// weight sum w is finite and positive. Under MajorityVote w counts claims.
// Under WeightedVote and TruthFinder every weight is a positive trust or
// the default, and w is finite while weightsBounded holds over the
// largest group. Under FreshnessWeighted decay can underflow a weight to
// 0, and the confidence with it, so every group votes. A slab fused under
// such options may be FuseInto's prev. opts are read as given: pass them
// with their defaults filled, as EstimateTrustWarmParallel returns them.
func (g *ClaimGroups) TrustFree(opts Options) bool {
	switch opts.Policy {
	case MajorityVote:
		return true
	case WeightedVote, TruthFinder:
		return weightsBounded(maps.Values(opts.Trust), opts.DefaultTrust, g.maxClaims)
	default:
		return false
	}
}

// revoted counts the groups FuseInto votes under opts: those with more
// than one fuse bucket, and, where TrustFree does not hold, every group
// with a non-null claim. Every group must be prepared.
func (g *ClaimGroups) revoted(opts Options) int {
	if g.TrustFree(opts) {
		return g.voted[1]
	}
	return g.voted[0]
}

// listVoters lists the voters of a prepared g that has no list yet.
func (g *ClaimGroups) listVoters() {
	if g.voters != nil {
		return
	}
	g.voters = make([]int32, 0, g.voted[1])
	for i, p := range g.prep {
		if len(p.fuseBuckets().reps) > 1 {
			g.voters = append(g.voters, int32(i))
		}
	}
}

// count adds p's share of the voted counts, times sign, to voted.
func (p *groupPrep) count(voted *[2]int, sign int) {
	nb := len(p.fuseBuckets().reps)
	for k := range voted {
		if nb > k {
			voted[k] += sign
		}
	}
}

// Fuse resolves all claims into one result per (entity, attribute).
// Results are sorted by entity then attribute for determinism. It is the
// reference composition of the two halves the sharded tail runs apart:
// trust estimation, then per-group fusion.
func Fuse(claims []Claim, opts Options) []Result {
	g := GroupClaims(claims)
	opts, _, _ = EstimateTrustWarmParallel(g, opts, nil, 1)
	return g.Fuse(opts)
}

// EstimateTrustParallel runs the global half of fusion — the TruthFinder
// trust fixpoint over the full claim set, its group preparation fanned
// out over workers goroutines (byte-identical at any count) — and
// returns options with the estimated per-source trust filled in (for
// other policies it only fills defaults) plus the component shape of the
// estimation. The returned options are ready for FuseResolved over any
// partition of the same claims: trust estimation is the only stage of
// fusion that couples (entity, attribute) groups to each other, so once
// it has run, disjoint claim subsets fuse independently. It is the
// prev == nil case of EstimateTrustWarmParallel.
func EstimateTrustParallel(claims []Claim, opts Options, workers int) (Options, TrustStats) {
	opts, _, st := EstimateTrustWarmParallel(GroupClaims(claims), opts, nil, workers)
	return opts, st
}

// FuseResolved groups and prepares claims, and fuses them all under the
// trust opts already carries (ClaimGroups.Fuse with no filter).
func FuseResolved(claims []Claim, opts Options) []Result {
	g := GroupClaims(claims)
	g.prepare(1)
	return g.Fuse(opts)
}

// MergeResults merges per-shard result slices (each sorted, with disjoint
// (entity, attribute) sets) into the single sorted order Fuse produces.
// The merge is stable under any permutation of parts — shard or provider
// order cannot leak into the output. A single part is already in that
// order and is returned as is.
func MergeResults(parts ...[]Result) []Result {
	if len(parts) == 1 {
		return parts[0]
	}
	n := 0
	for _, p := range parts {
		n += len(p)
	}
	out := make([]Result, 0, n)
	for _, p := range parts {
		out = append(out, p...)
	}
	// The group order, so the merge equals an unsharded fuse byte for byte.
	slices.SortFunc(out, CompareResults)
	return out
}

// CompareResults orders two results by entity, then attribute — the group
// order Fuse returns its results in.
func CompareResults(a, b Result) int {
	return compareKey(a.Entity, a.Attribute, b.Entity, b.Attribute)
}

// groupPrep is one (entity, attribute) group prepared for voting:
// everything the trust fixpoint and the fuse would recompute that reads
// claim values and sources only — never trust, freshness or the policy —
// so both add vote weights into buckets and order them, with no value
// comparison left to make. Its layout is indexed by non-null claim, in
// claim order. Every claim sames its own bucket, so each credits exactly
// once per fixpoint iteration: the one bucket it sames when there is one
// (credit), else the first bucket in vote order its match row marks. It
// also keeps, per fuse bucket, the sources backing the bucket's
// representative (Supporters' rule), so a published report reads the
// winner's supporters instead of scanning the group: the lists are built
// once, with the group, and every reaction that keeps the group — and
// every report line that names them — shares them read-only.
type groupPrep struct {
	valueBuckets               // over the claimed values
	match        [][]bool      // per non-null claim: which buckets it sames
	credit       []int32       // per non-null claim: the one bucket it sames, -1 when it sames several
	reconciled   *valueBuckets // over the values after reconcileUnits; nil unless it rewrote one
	supporters   [][]string    // per fuse bucket: its representative's supporters, nil when none
}

// valueBuckets is one formation of a group's value buckets.
type valueBuckets struct {
	claimBucket []int32         // per non-null claim: its bucket, in creation order
	reps        []dataset.Value // per bucket: its first member's value
	norms       []string        // per bucket: the representative, normalised — bucketBefore's tie-break, so "" for a number that is its group's only bucket
	counts      []int           // per bucket: member claims
}

// prepareGroup forms a group's buckets over its claimed values, and its
// match matrix against the final bucket set — in the fixpoint a claim
// credits the first *sorted* bucket it matches, which can be a bucket
// created after it — with each claim's crediting bucket where the choice
// is no choice: it sames one bucket only, its own. Only where
// reconcileUnits rewrote a value does it form the buckets a second time,
// over the reconciled values, for the fuse. Last, it lists each fuse
// bucket's supporters over the claimed values. buf is a buffer the
// caller reuses across the groups it prepares, for the claims' compare
// forms.
func prepareGroup(claims []Claim, buf *[]normVal) *groupPrep {
	p := &groupPrep{}
	nv := appendNormVals((*buf)[:0], claims)
	*buf = nv
	var repBuf [8]int
	reps := repBuf[:0]
	p.valueBuckets, reps = formBuckets(nv, reps)
	// A claim's credit is its own bucket unless it sames several, so the
	// credits share the claim buckets until one does.
	p.credit = p.claimBucket
	if len(reps) == 1 && len(nv) <= len(oneBucket) {
		p.match = oneBucket[:len(nv):len(nv)]
	} else {
		// One flat slab for the match matrix instead of a row per claim.
		slab := make([]bool, len(nv)*len(reps))
		p.match = make([][]bool, len(nv))
		for ci := range nv {
			row := slab[ci*len(reps) : (ci+1)*len(reps)]
			matched := 0
			for i, ri := range reps {
				if row[i] = nv[ri].same(&nv[ci]); row[i] {
					matched++
				}
			}
			p.match[ci] = row
			if matched > 1 {
				if &p.credit[0] == &p.claimBucket[0] {
					p.credit = slices.Clone(p.claimBucket)
				}
				p.credit[ci] = -1
			}
		}
	}
	if rc, rewrote := reconcileUnits(claims); rewrote {
		b, _ := formBuckets(appendNormVals(nil, rc), reps[:0])
		p.reconciled = &b
	}
	p.supporters = bucketSupporters(claims, p.fuseBuckets().reps, len(nv))
	return p
}

// oneBucket is the match matrix of a group of up to 64 non-null claims
// and one bucket, each of which sames it. Such groups share it, read-only.
var oneBucket = func() [][]bool {
	rows := make([][]bool, 64)
	row := []bool{true}
	for i := range rows {
		rows[i] = row[:1:1]
	}
	return rows
}()

// bucketSupporters lists the supporters of each representative, out of
// one slab presized to the group's non-null claim count, which the lists
// rarely exceed between them (a claim mostly backs its own bucket alone).
// Each list is capped at its own length, and the slab is only appended to
// past the lists already taken from it, so no append reaches a list.
func bucketSupporters(claims []Claim, reps []dataset.Value, nonNull int) [][]string {
	if len(reps) == 0 {
		return nil
	}
	out := make([][]string, len(reps))
	slab := make([]string, 0, nonNull)
	for bi, rep := range reps {
		start := len(slab)
		slab = appendSupporters(slab, claims, rep)
		if end := len(slab); end > start {
			out[bi] = slab[start:end:end]
		}
	}
	return out
}

// fuseBuckets is the bucket set the fuse votes into: the reconciled
// buckets where there are any, the claimed-value buckets otherwise.
func (p *groupPrep) fuseBuckets() *valueBuckets {
	if p.reconciled != nil {
		return p.reconciled
	}
	return &p.valueBuckets
}

// appendNormVals appends to nv the compare form of every non-null claim
// value, in claim order. The forms point into claims.
func appendNormVals(nv []normVal, claims []Claim) []normVal {
	for i := range claims {
		if v := &claims[i].Value; !v.IsNull() {
			nv = append(nv, newNormVal(v))
		}
	}
	return nv
}

// formBuckets is the one bucket formation: each value, in order, joins the
// first bucket (in creation order) whose representative it sames, or
// opens a new one. It also returns each bucket's representative as an
// index into nv, appended to reps.
func formBuckets(nv []normVal, reps []int) (b valueBuckets, _ []int) {
	b.claimBucket = make([]int32, len(nv))
	for ci := range nv {
		v := &nv[ci]
		bi := slices.IndexFunc(reps, func(ri int) bool { return nv[ri].same(v) })
		if bi < 0 {
			bi = len(reps)
			reps = append(reps, ci)
		}
		b.claimBucket[ci] = int32(bi)
	}
	b.reps, b.norms, b.counts = make([]dataset.Value, len(reps)), make([]string, len(reps)), make([]int, len(reps))
	for bi, ri := range reps {
		b.reps[bi], b.norms[bi] = *nv[ri].v, nv[ri].norm
		if len(reps) > 1 {
			b.norms[bi] = nv[ri].normalized()
		}
	}
	for _, bi := range b.claimBucket {
		b.counts[bi]++
	}
	return b, reps
}

// fuseScratch is the per-bucket scratch one FuseInto call reuses across
// its groups.
type fuseScratch struct {
	w     []float64
	order []int
}

// result fuses the group under opts, voting into the reconciled buckets
// where there are any and the claimed-value buckets otherwise: per-bucket
// vote weights summed in claim order, buckets ordered heaviest first (ties
// by normalised representative), and the winner's share of the total
// summed in that order. A group with one bucket takes, when free (see
// ClaimGroups.TrustFree), the result that vote would give — Confidence
// w/w, exactly 1.0 — without summing a weight.
func (p *groupPrep) result(claims []Claim, opts Options, free bool, sc *fuseScratch) Result {
	res := Result{Entity: claims[0].Entity, Attribute: claims[0].Attribute}
	b := p.fuseBuckets()
	nb := len(b.reps)
	if nb == 0 {
		res.Value = dataset.Null()
		return res
	}
	if nb == 1 && free {
		res.Value, res.Support, res.Confidence = b.reps[0], b.counts[0], 1
		return res
	}
	if cap(sc.w) < nb {
		sc.w, sc.order = make([]float64, nb), make([]int, nb)
	}
	w, order := sc.w[:nb], sc.order[:nb]
	for i := range w {
		w[i], order[i] = 0, i
	}
	k := 0 // non-null claims so far: the index into b.claimBucket
	for i := range claims {
		if c := &claims[i]; !c.Value.IsNull() {
			w[b.claimBucket[k]] += voteWeight(c, opts)
			k++
		}
	}
	// sort.Slice's order over the buckets in creation order, not a stable
	// sort's: of two buckets tied on weight and norm, the winner is the one
	// sort.Slice puts first, and fused results are pinned to it.
	// slices.SortFunc runs the same pdqsort, generated from one template,
	// and reads its cmp only for the sign below zero, as sort.Slice reads
	// less — without sort.Slice's reflection.
	slices.SortFunc(order, func(x, y int) int {
		if bucketBefore(w, b.norms, x, y) {
			return -1
		}
		return 1
	})
	total := 0.0
	for _, bi := range order {
		total += w[bi]
	}
	best := order[0]
	res.Value = b.reps[best]
	res.Support = b.counts[best]
	res.Conflict = nb > 1
	if total > 0 {
		res.Confidence = w[best] / total
	}
	return res
}

// bucketBefore is the one bucket order: heavier first, ties by normalised
// representative.
func bucketBefore(w []float64, norms []string, a, b int) bool {
	if w[a] != w[b] {
		return w[a] > w[b]
	}
	return norms[a] < norms[b]
}

// normVal is a claim value beside the form voting compares it in.
// Caching it normalises each value once instead of on both sides of every
// compare. A number compares as a float, so its normalised string is left
// unbuilt: only the representatives of a group with more than one bucket
// (valueBuckets.norms, which order tied buckets) and a compare against a
// non-number read it, and those build it on demand.
type normVal struct {
	v    *dataset.Value
	num  bool
	f    float64
	norm string // text.Normalize(v.String()); "" for a number
}

func newNormVal(v *dataset.Value) normVal {
	n := normVal{v: v, num: v.IsNumeric()}
	if n.num {
		n.f = v.FloatVal()
	} else {
		n.norm = text.Normalize(v.String())
	}
	return n
}

// normalized returns the value's normalised string, a number's included.
func (a *normVal) normalized() string {
	if a.num {
		return text.Normalize(a.v.String())
	}
	return a.norm
}

// same is the one value agreement rule of voting: numbers within
// numericTolerance of each other, NaN with NaN (as Value.Equal has it),
// everything else by normalised string. Every value sames itself.
func (a *normVal) same(b *normVal) bool {
	switch {
	case a.num && b.num:
		if a.f == b.f || math.IsNaN(a.f) && math.IsNaN(b.f) {
			return true
		}
		den := math.Max(math.Abs(a.f), math.Abs(b.f))
		return den > 0 && math.Abs(a.f-b.f)/den <= numericTolerance
	case a.num || b.num:
		return a.normalized() == b.normalized()
	}
	return a.norm == b.norm
}

// reconcileUnits normalises numeric claims that sit ~100× above the
// group's median — sources reporting cents instead of dollars. The unit
// error is syntactic, not a genuine conflict, so it is repaired before
// voting rather than outvoted. It returns claims itself, and rewrote
// false, when no value needed repairing.
func reconcileUnits(claims []Claim) (out []Claim, rewrote bool) {
	var nums []float64
	for _, c := range claims {
		if c.Value.IsNumeric() {
			nums = append(nums, c.Value.FloatVal())
		}
	}
	if len(nums) < 2 {
		return claims, false
	}
	sort.Float64s(nums)
	median := nums[len(nums)/2]
	if median <= 0 {
		return claims, false
	}
	out = claims
	for i, c := range claims {
		if !c.Value.IsNumeric() {
			continue
		}
		if ratio := c.Value.FloatVal() / median; ratio > 95 && ratio < 105 {
			if !rewrote {
				out, rewrote = slices.Clone(claims), true
			}
			out[i].Value = dataset.Float(c.Value.FloatVal() / 100)
		}
	}
	return out, rewrote
}

func voteWeight(c *Claim, opts Options) float64 {
	switch opts.Policy {
	case MajorityVote:
		return 1
	case WeightedVote, TruthFinder:
		return trustOf(c.SourceID, opts)
	case FreshnessWeighted:
		w := trustOf(c.SourceID, opts)
		if !opts.Now.IsZero() && !c.AsOf.IsZero() && opts.HalfLife > 0 {
			age := opts.Now.Sub(c.AsOf)
			if age > 0 {
				w *= math.Pow(0.5, float64(age)/float64(opts.HalfLife))
			}
		}
		return w
	default:
		return 1
	}
}

// weightsBounded reports whether no vote weight drawn from trust and
// defaultTrust exceeds MaxFloat64 / (2 · maxClaims) — a NaN default does
// not pass, a NaN or non-positive trust weighs the default. Then any
// group of at most maxClaims claims sums its weights to a finite total: n
// such weights sum below MaxFloat64/2 · (1+2⁻⁵³)ⁿ⁺¹, which the rounding
// of n additions cannot carry to +Inf (without the 2 it can: three claims
// at MaxFloat64/3, rounded up, sum to exactly the halfway point to 2¹⁰²⁴,
// which rounds to +Inf).
func weightsBounded(trust iter.Seq[float64], defaultTrust float64, maxClaims int) bool {
	limit := math.MaxFloat64 / float64(2*max(maxClaims, 1))
	if !(defaultTrust <= limit) {
		return false
	}
	for t := range trust {
		if t > limit {
			return false
		}
	}
	return true
}

// trustOf is the one trust lookup rule every fusion stage applies: a
// positive entry wins, anything else falls back to the default.
func trustOf(sourceID string, opts Options) float64 {
	if t, ok := opts.Trust[sourceID]; ok && t > 0 {
		return t
	}
	return opts.DefaultTrust
}

// Accuracy scores fused results against a truth lookup: the fraction of
// results whose value agrees with truth(entity, attribute). Entities or
// attributes with no truth entry are skipped; ok reports whether anything
// was scored.
func Accuracy(results []Result, truth func(entity, attribute string) (dataset.Value, bool)) (float64, bool) {
	agree, total := 0, 0
	for _, r := range results {
		want, has := truth(r.Entity, r.Attribute)
		if !has {
			continue
		}
		total++
		if a, b := newNormVal(&r.Value), newNormVal(&want); a.same(&b) {
			agree++
		}
	}
	if total == 0 {
		return 0, false
	}
	return float64(agree) / float64(total), true
}
