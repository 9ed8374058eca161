package fusion

import (
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/internal/text"
)

// This file holds the oracles the prepared paths are pinned to: fuseGroup
// re-buckets a group from its claims with text.Normalize on both sides of
// every compare and sorts its buckets, and oracleFixpoint re-votes every
// group, sorting its buckets with sort.Slice, on every iteration. The
// fuzzers below compare the prepared paths against them.

// bucket groups equivalent claimed values.
type bucket struct {
	rep    dataset.Value
	norm   string
	weight float64
	count  int
}

func fuseGroup(claims []Claim, opts Options) Result {
	res := Result{Entity: claims[0].Entity, Attribute: claims[0].Attribute}
	claims, _ = reconcileUnits(claims)
	buckets := bucketize(claims, opts, func(c Claim) float64 { return voteWeight(&c, opts) })
	if len(buckets) == 0 {
		res.Value = dataset.Null()
		return res
	}
	total := 0.0
	for _, b := range buckets {
		total += b.weight
	}
	best := buckets[0]
	res.Value = best.rep
	res.Support = best.count
	res.Conflict = len(buckets) > 1
	if total > 0 {
		res.Confidence = best.weight / total
	}
	return res
}

// bucketize groups claims into equivalent-value buckets, weighting each
// claim by weightFn, and returns buckets sorted by descending weight (ties
// by normalised value for determinism). Null values are ignored.
func bucketize(claims []Claim, opts Options, weightFn func(Claim) float64) []bucket {
	var buckets []bucket
	for _, c := range claims {
		if c.Value.IsNull() {
			continue
		}
		w := weightFn(c)
		placed := false
		for i := range buckets {
			if sameValue(buckets[i].rep, c.Value) {
				buckets[i].weight += w
				buckets[i].count++
				placed = true
				break
			}
		}
		if !placed {
			buckets = append(buckets, bucket{rep: c.Value, norm: text.Normalize(c.Value.String()), weight: w, count: 1})
		}
	}
	sort.Slice(buckets, func(i, j int) bool {
		if buckets[i].weight != buckets[j].weight {
			return buckets[i].weight > buckets[j].weight
		}
		return buckets[i].norm < buckets[j].norm
	})
	return buckets
}

// sameValue is the oracle's own value agreement rule, over raw values:
// numbers within numericTolerance of each other, NaN with NaN, everything
// else by normalised string — normVal.same without the cached forms.
func sameValue(a, b dataset.Value) bool {
	if a.IsNumeric() && b.IsNumeric() {
		x, y := a.FloatVal(), b.FloatVal()
		if x == y || math.IsNaN(x) && math.IsNaN(y) {
			return true
		}
		den := math.Max(math.Abs(x), math.Abs(y))
		return den > 0 && math.Abs(x-y)/den <= numericTolerance
	}
	return text.Normalize(a.String()) == text.Normalize(b.String())
}

// oracleFixpoint is the per-group fixpoint runComponentFixpoint
// replaces: every group of the component re-votes on every iteration,
// sorts its buckets with sort.Slice, and adds each claim's credit to its
// source's sum and count on the spot. It reads the component's member
// groups and sorted sources, and derives each claim's local source index
// from the group's own non-null claims (claimsOf) — nothing of the flat
// layout.
func oracleFixpoint(c *trustComponent, claimsOf map[*groupPrep][]Claim, seed []float64, pinned []bool, defaultTrust float64, maxIters int) (cur []float64, iters int) {
	cur = slices.Clone(seed)
	local := make(map[string]int32, len(c.sources))
	for i, s := range c.sources {
		local[s] = int32(i)
	}
	srcIdx := make([][]int32, len(c.groups))
	maxBuckets := 0
	for gi, g := range c.groups {
		for _, cl := range claimsOf[g] {
			if !cl.Value.IsNull() {
				srcIdx[gi] = append(srcIdx[gi], local[cl.SourceID])
			}
		}
		maxBuckets = max(maxBuckets, len(g.norms))
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
			idx := srcIdx[gi]
			for ci, si := range idx {
				if t := cur[si]; t > 0 {
					w[g.claimBucket[ci]] += t
				} else {
					w[g.claimBucket[ci]] += defaultTrust
				}
			}
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
			if counts[i] == 0 || pinned[i] {
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

// checkOracleTrust pins one estimation over g to the oracle: from base,
// with every claim source seeded to the default (read off the claims, not
// the layout), each of g's components iterated by oracleFixpoint must
// take the iterations st reports and reach the trust got holds, bit for
// bit, for every source.
func checkOracleTrust(t *testing.T, label string, g *ClaimGroups, base Options, got Options, st TrustStats) {
	t.Helper()
	opts := cloneOpts(base).normalized()
	for _, cs := range g.claims {
		for _, c := range cs {
			if _, ok := opts.Trust[c.SourceID]; !ok {
				opts.Trust[c.SourceID] = opts.DefaultTrust
			}
		}
	}
	if len(st.Iterations) != len(g.layout.comps) {
		t.Fatalf("%s: %d iteration counts for %d components", label, len(st.Iterations), len(g.layout.comps))
	}
	claimsOf := make(map[*groupPrep][]Claim, len(g.prep))
	for i, p := range g.prep {
		claimsOf[p] = g.claims[i]
	}
	for i, c := range g.layout.comps {
		seed, pinned := c.seeds(&opts)
		want, iters := oracleFixpoint(c, claimsOf, seed, pinned, opts.DefaultTrust, opts.Iterations)
		if st.Iterations[i] != iters {
			t.Fatalf("%s: component %s: %d iterations, the oracle %d", label, c.key, st.Iterations[i], iters)
		}
		for j, s := range c.sources {
			opts.Trust[s] = want[j]
		}
	}
	requireBitEqualTrust(t, label, opts.Trust, got.Trust)
}

// requireBitEqualTrust requires two trust maps to hold the same sources
// at the same floats, bit for bit (NaN included).
func requireBitEqualTrust(t *testing.T, label string, want, got map[string]float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d trust entries, want %d", label, len(got), len(want))
	}
	for s, w := range want {
		if g, ok := got[s]; !ok || math.Float64bits(g) != math.Float64bits(w) {
			t.Fatalf("%s: trust[%s] = %v, the oracle %v", label, s, g, w)
		}
	}
}

// sameResult is Result equality with a NaN value equal to itself: the
// value compares by Equal and by its printed form (which tells -0 from
// 0), the confidence bit for bit.
func sameResult(a, b Result) bool {
	return a.Entity == b.Entity && a.Attribute == b.Attribute &&
		a.Value.Equal(b.Value) && a.Value.String() == b.Value.String() &&
		math.Float64bits(a.Confidence) == math.Float64bits(b.Confidence) &&
		a.Support == b.Support && a.Conflict == b.Conflict
}

// fuseValues is the fuzzers' value alphabet for voting: numerics at the
// tolerance edge (100 and 101 share a bucket, 100 and 102 do not), the
// same amounts ×100 that reconcileUnits rewrites, ints beside equal
// floats, strings that differ only by case or punctuation, signed zeros,
// NaN (which sames only NaN), the infinities and nulls.
var fuseValues = []dataset.Value{
	dataset.Null(),
	dataset.Float(100), dataset.Float(101), dataset.Float(101.0101), dataset.Float(99), dataset.Float(102), dataset.Float(100.5),
	dataset.Float(10000), dataset.Float(10100), dataset.Float(9900), dataset.Float(10050),
	dataset.Int(100), dataset.Int(101), dataset.Int(10000),
	dataset.String("Acme"), dataset.String("acme"), dataset.String("ACME!"), dataset.String("a.c.m.e"),
	dataset.String("Acme Inc"), dataset.String("acme-inc"), dataset.String("Globex"),
	dataset.Float(0), dataset.Float(math.Copysign(0, -1)), dataset.String("100"),
	dataset.Float(math.NaN()), dataset.Float(math.Inf(1)), dataset.Float(math.Inf(-1)),
}

// tieValues is the alphabet for the trust kernel, heavy with buckets that
// tie on norm: x and -x normalise alike yet never share a bucket, "1 5"
// matches both 1.5 and -1.5, and 1e21 and 1e-21 normalise alike. There
// are more than twelve distinct buckets, so the oracle's sort.Slice
// leaves its insertion-sort range. NaN, the infinities (which normalise
// alike) and the signed zeros (which share a bucket) ride along.
var tieValues = []dataset.Value{
	dataset.Null(),
	dataset.Float(1.5), dataset.Float(-1.5), dataset.Float(2.5), dataset.Float(-2.5),
	dataset.Float(100), dataset.Float(-100), dataset.Float(102), dataset.Float(-102),
	dataset.Float(7), dataset.Float(-7), dataset.Float(50), dataset.Float(-50),
	dataset.Float(1e21), dataset.Float(1e-21), dataset.Int(7), dataset.Int(-7),
	dataset.String("1 5"), dataset.String("2.5"), dataset.String("acme"), dataset.String("ACME"),
	dataset.Float(math.NaN()), dataset.Float(math.Inf(1)), dataset.Float(math.Inf(-1)),
	dataset.Float(0), dataset.Float(math.Copysign(0, -1)),
}

// fuzzClaims decodes three bytes per claim: the entity, attribute and
// source from the first, the value from the second, AsOf from the third.
func fuzzClaims(data []byte, values []dataset.Value, entities int) []Claim {
	base := time.Date(2026, 7, 1, 0, 0, 0, 0, time.UTC)
	var claims []Claim
	for i := 0; i+2 < len(data) && len(claims) < 300; i += 3 {
		b := data[i]
		claims = append(claims, Claim{
			Entity:    string(rune('a' + int(b)%entities)),
			Attribute: []string{"price", "brand"}[int(b>>2)%2],
			SourceID:  string(rune('p' + int(b>>3)%5)),
			Value:     values[int(data[i+1])%len(values)],
			AsOf:      base.Add(-time.Duration(data[i+2]) * time.Hour),
		})
	}
	return claims
}

// fuzzOptions draws a policy and a trust map from a seed: sources with
// no entry, with a non-positive one (the default applies), with shared
// values (so weights tie), some pinned.
func fuzzOptions(policy Policy, seed int64) Options {
	rng := rand.New(rand.NewSource(seed))
	opts := DefaultOptions(policy)
	opts.Now = time.Date(2026, 7, 2, 0, 0, 0, 0, time.UTC)
	opts.Pinned = map[string]bool{}
	for s := 0; s < 5; s++ {
		id := string(rune('p' + s))
		switch rng.Intn(4) {
		case 0:
		case 1:
			opts.Trust[id] = 0
		case 2:
			opts.Trust[id] = []float64{0.5, 0.8}[rng.Intn(2)]
		default:
			opts.Trust[id] = 0.1 + 0.9*rng.Float64()
		}
		opts.Pinned[id] = rng.Intn(3) == 0
	}
	return opts
}

func fuzzSeeds(f *testing.F) {
	f.Add([]byte{}, uint8(0), int64(0))
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		data := make([]byte, 3*(5+rng.Intn(60)))
		rng.Read(data)
		f.Add(data, uint8(seed), seed)
	}
}

// FuzzFusePrepared pins the prepared fuse to the oracle: under every
// policy and a random trust map, a fuse from freshly prepared groups; one
// over regrouped claims whose AsOf all moved and one value changed —
// adopting every held group's state from the first, fused part by part
// into a group-indexed slab; and a second fuse over the first groups
// estimated again under other trust, the fuse-only reaction's shape — all
// equal fuseGroup over each group's claims, field for field. A group with
// one bucket fuses without a vote only where that cannot move its result,
// so the options (fuseOptions) reach for the guard's edges: seeds at or
// near MaxFloat64 on a pinned source, whose one-bucket groups sum to +Inf,
// and a 1 ns half-life, under which every freshness weight underflows to
// 0. The second fuse also runs from the first one's slab, the fuse-only
// reaction's hand-on, with source p pinned, by seed, around the TrustFree
// bound: wherever it may hand on it equals the fuse without the slab bit
// for bit and reports exactly the groups whose result moved. The corpus is
// seeded with mostly uncontested groups, where those edges show.
func FuzzFusePrepared(f *testing.F) {
	fuzzSeeds(f)
	// Mostly uncontested: most claims say 100, under a huge trust on source
	// p (TruthFinder and WeightedVote) or the 1 ns half-life.
	for i, mode := range []uint8{2 + 5*1, 2 + 5*2, 1 + 5*3, 2 + 5*4, 4, 4 + 5*2} {
		rng := rand.New(rand.NewSource(200 + int64(i)))
		data := make([]byte, 3*(20+rng.Intn(60)))
		rng.Read(data)
		for k := 0; k+2 < len(data); k += 3 {
			if rng.Intn(5) != 0 {
				data[k+1] = 1
			}
		}
		f.Add(data, mode, int64(i))
	}
	// One group of three claims by source p, all 100: at MaxFloat64/3 on p
	// they sum to +Inf.
	f.Add([]byte{0, 1, 0, 0, 1, 0, 0, 1, 0, 1, 2, 0}, uint8(2+5*2), int64(9))
	// Mostly uncontested again, the second fuse with p's trust just under,
	// at and just over the TrustFree bound (seed%4 = 1, 2, 3), under
	// TruthFinder and WeightedVote, with and without a huge first trust.
	for i, mode := range []uint8{2, 1, 2 + 5*3, 1 + 5*1} {
		rng := rand.New(rand.NewSource(300 + int64(i)))
		data := make([]byte, 3*(20+rng.Intn(60)))
		rng.Read(data)
		for k := 0; k+2 < len(data); k += 3 {
			if rng.Intn(4) != 0 {
				data[k+1] = 1
			}
		}
		for edge := int64(1); edge <= 3; edge++ {
			f.Add(data, mode, 4*int64(i)+edge)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte, mode uint8, seed int64) {
		claims := fuzzClaims(data, fuseValues, 3)
		if len(claims) == 0 {
			return
		}
		base := fuseOptions(mode, seed)
		check := func(label string, g *ClaimGroups, opts Options, got []Result) {
			t.Helper()
			for i, cs := range g.claims {
				if want := fuseGroup(cs, opts); !sameResult(got[i], want) {
					t.Fatalf("%s: group %q = %+v, the oracle %+v", label, groupKey(g, i), got[i], want)
				}
				if sup, want := g.Supporters(i, got[i].Value), appendSupporters(nil, cs, got[i].Value); !reflect.DeepEqual(sup, want) {
					t.Fatalf("%s: group %q supporters %#v, the scan %#v", label, groupKey(g, i), sup, want)
				}
			}
		}
		// fuseParts fuses g part by part, in two entity ranges, into a
		// group-indexed slab.
		fuseParts := func(g *ClaimGroups, opts Options) []Result {
			slab := make([]Result, g.Len())
			var parts []Result
			for part := range 2 {
				span, _ := g.FuseInto(slab, nil, nil, opts, part, 2)
				parts = append(parts, span...)
			}
			if len(parts) != len(slab) {
				t.Fatalf("parts fused %d results, want %d", len(parts), len(slab))
			}
			return slab
		}
		g := GroupClaims(claims)
		opts, _, _ := EstimateTrustWarmParallel(g, cloneOpts(base), nil, 1)
		first := g.Fuse(opts)
		check("fresh", g, opts, first)

		moved := slices.Clone(claims)
		for i := range moved {
			moved[i].AsOf = moved[i].AsOf.Add(time.Duration(i%7) * time.Hour)
		}
		moved[int(data[0])%len(moved)].Value = fuseValues[int(data[len(data)-1])%len(fuseValues)]
		g2 := GroupClaims(moved)
		opts2, _, st := EstimateTrustWarmParallel(g2, cloneOpts(base), g, 1)
		if st.GroupsKept+st.GroupsPrepared != g2.Len() || st.GroupsKept < g2.Len()-1 {
			t.Fatalf("adoption: %+v over %d groups, one value moved", st, g2.Len())
		}
		check("adopted", g2, opts2, fuseParts(g2, opts2))

		// The same policy under another draw of trust and huge seeds, and,
		// by seed, source p pinned just under, at or just over the bound
		// TrustFree holds under.
		next := fuseOptions(mode%5+5*(mode/25), ^seed)
		if edge := []float64{0, 0.999, 1, 1.001}[uint64(seed)%4]; edge != 0 {
			next.Trust["p"], next.Pinned["p"] = edge*math.MaxFloat64/float64(2*max(g.maxClaims, 1)), true
		}
		opts3, _, _ := EstimateTrustWarmParallel(g, cloneOpts(next), g, 1)
		again := fuseParts(g, opts3)
		check("again", g, opts3, again)

		// Again from the first fuse's slab, as a fuse-only reaction hands
		// its results on: where the first fuse was trust-free, or this one
		// is not, it equals the fuse without one and reports exactly the
		// groups whose result differs from the first.
		if g.TrustFree(opts) || !g.TrustFree(opts3) {
			handed := make([]Result, g.Len())
			var moved, want []int
			for part := range 2 {
				_, m := g.FuseInto(handed, first, g.EntityStarts(), opts3, part, 2)
				moved = append(moved, m...)
			}
			for i := range again {
				if !sameResult(handed[i], again[i]) {
					t.Fatalf("handed on: group %q = %+v, without the first slab %+v", groupKey(g, i), handed[i], again[i])
				}
				if !again[i].Same(&first[i]) {
					want = append(want, i)
				}
			}
			if !slices.Equal(moved, want) {
				t.Fatalf("handed on: moved %v, want %v", moved, want)
			}
		}
	})
}

// fuseOptions draws FuzzFusePrepared's options from its mode byte:
// mode%5 picks the policy, where 4 is FreshnessWeighted with a 1 ns
// half-life, and mode/5 a huge trust (hugeTrust), pinned so that
// TruthFinder keeps it.
func fuseOptions(mode uint8, seed int64) Options {
	opts := fuzzOptions(Policy(min(mode%5, 3)), seed)
	if mode%5 == 4 {
		opts.HalfLife = time.Nanosecond
	}
	if src := hugeTrust(opts, mode/5); src != "" {
		opts.Pinned[src] = true
	}
	return opts
}

// hugeTrust gives one of the fuzzers' sources, picked by mode, a seed at
// or near math.MaxFloat64 — or none, when mode%5 is 0 — and returns the
// source it gave one, "" for none. Where a group's vote total could
// overflow, the fixpoint must re-vote every group and the fuse must vote
// every group, as the oracles do; MaxFloat64/3 is the edge where three
// claims of one source in one bucket sum, by rounding, to +Inf.
func hugeTrust(opts Options, mode uint8) string {
	v := []float64{0, math.MaxFloat64, math.MaxFloat64 / 3, math.MaxFloat64 / 64, math.Inf(1)}[mode%5]
	if v == 0 {
		return ""
	}
	src := string(rune('p' + int(mode/5)%5))
	opts.Trust[src] = v
	return src
}

// FuzzTrustKernel pins the fixpoint to the per-group oracle over claim
// groups heavy with buckets that tie on both weight and norm, and over
// groups that mostly hold one bucket, whose credits the fixpoint never
// recomputes: every component reaches the same per-source floats, bit for
// bit, in the same number of iterations, also where a seed near
// math.MaxFloat64 could overflow a vote total. A second estimation over
// the same ClaimGroups, under other seeds and pinned flags, reuses the
// carried layout and equals an estimation over a fresh grouping bit for
// bit.
func FuzzTrustKernel(f *testing.F) {
	fuzzSeeds(f)
	// Mostly uncontested: entity b's groups all say 1.5, and a few of
	// entity a's claims say something else.
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(100 + seed))
		data := make([]byte, 3*(20+rng.Intn(60)))
		rng.Read(data)
		for i := 0; i+2 < len(data); i += 3 {
			if data[i]%2 == 1 || rng.Intn(6) != 0 {
				data[i+1] = 1
			}
		}
		f.Add(data, uint8(5*seed), seed)
	}
	// Every group uncontested, and three of source p's claims in one of
	// them: at MaxFloat64/3 they sum to +Inf, at MaxFloat64 already two do.
	threeOfP := []byte{0, 1, 0, 2, 1, 0, 40, 1, 0, 1, 1, 0, 5, 1, 0}
	f.Add(threeOfP, uint8(2), int64(3))
	f.Add(threeOfP, uint8(1), int64(4))
	f.Fuzz(func(t *testing.T, data []byte, mode uint8, seed int64) {
		claims := fuzzClaims(data, tieValues, 2)
		if len(claims) == 0 {
			return
		}
		base := fuzzOptions(TruthFinder, seed)
		hugeTrust(base, mode)
		g := GroupClaims(claims)
		got, _, st := EstimateTrustWarmParallel(g, cloneOpts(base), nil, 1)
		if !st.LayoutBuilt {
			t.Fatal("a fresh grouping's estimation built no layout")
		}
		checkOracleTrust(t, "fresh", g, base, got, st)

		next := fuzzOptions(TruthFinder, ^seed)
		hugeTrust(next, mode/3)
		again, _, st2 := EstimateTrustWarmParallel(g, cloneOpts(next), g, 1)
		fresh := GroupClaims(claims)
		want, _, fst := EstimateTrustWarmParallel(fresh, cloneOpts(next), nil, 1)
		if st2.LayoutBuilt || !fst.LayoutBuilt {
			t.Fatalf("layout built: carried %v, fresh %v; want false, true", st2.LayoutBuilt, fst.LayoutBuilt)
		}
		if !slices.Equal(st2.Iterations, fst.Iterations) || st2.Contested != fst.Contested {
			t.Fatalf("carried layout: %+v, a fresh one %+v", st2, fst)
		}
		requireBitEqualTrust(t, "carried layout", want.Trust, again.Trust)
		checkOracleTrust(t, "carried", g, next, again, st2)
	})
}
