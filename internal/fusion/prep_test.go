package fusion

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/dataset"
)

// TestPrepareGroupReconciledBuckets pins where the second bucket formation
// runs: only in a group where reconcileUnits rewrote a value. There the
// cents claim joins the dollar bucket the fuse votes into, while the
// fixpoint's buckets over the claimed values keep it apart. Whichever
// buckets a group carries, its fuse equals fuseGroup under every policy
// and its fixpoint equals oracleFixpoint.
func TestPrepareGroupReconciledBuckets(t *testing.T) {
	c := func(src string, v dataset.Value) Claim {
		return Claim{Entity: "e", Attribute: "price", SourceID: src, Value: v}
	}
	cases := []struct {
		name            string
		claims          []Claim
		raw, reconciled []int32 // per non-null claim: its bucket; reconciled nil when not formed
	}{
		{
			name:       "cents claim",
			claims:     []Claim{c("s0", dataset.Null()), c("s1", dataset.Float(1000)), c("s2", dataset.Float(10)), c("s3", dataset.Float(10.05))},
			raw:        []int32{0, 1, 1},
			reconciled: []int32{0, 0, 0},
		},
		{
			name:   "all null",
			claims: []Claim{c("s0", dataset.Null()), c("s1", dataset.Null())},
			raw:    []int32{},
		},
		{
			name:   "single claim",
			claims: []Claim{c("s0", dataset.Float(1000))},
			raw:    []int32{0},
		},
		{
			name:   "strings only",
			claims: []Claim{c("s0", dataset.String("Acme")), c("s1", dataset.String("acme")), c("s2", dataset.String("Globex"))},
			raw:    []int32{0, 0, 1},
		},
		{
			name:   "median not positive",
			claims: []Claim{c("s0", dataset.Float(-100)), c("s1", dataset.Float(-1)), c("s2", dataset.Float(-1))},
			raw:    []int32{0, 1, 1},
		},
	}
	for _, tc := range cases {
		p := prepareGroup(tc.claims, new([]normVal))
		if !slices.Equal(p.claimBucket, tc.raw) {
			t.Errorf("%s: raw buckets %v, want %v", tc.name, p.claimBucket, tc.raw)
		}
		switch {
		case tc.reconciled == nil && p.reconciled != nil:
			t.Errorf("%s: reconciled buckets %v formed, want none", tc.name, p.reconciled.claimBucket)
		case tc.reconciled != nil && (p.reconciled == nil || !slices.Equal(p.reconciled.claimBucket, tc.reconciled)):
			t.Errorf("%s: reconciled buckets %+v, want %v", tc.name, p.reconciled, tc.reconciled)
		}
		for _, policy := range []Policy{MajorityVote, WeightedVote, TruthFinder, FreshnessWeighted} {
			opts := DefaultOptions(policy).normalized()
			opts.Trust = map[string]float64{"s0": 0.9, "s1": 0.3, "s2": 0.6, "s3": 0.6}
			var sc fuseScratch
			// Voted, and without a vote where one bucket allows it.
			for _, free := range []bool{false, GroupedClaims([][]Claim{tc.claims}, []int32{0, 1}).TrustFree(opts)} {
				if got, want := p.result(tc.claims, opts, free, &sc), fuseGroup(tc.claims, opts); got != want {
					t.Errorf("%s %s (free %v): fused %+v, the oracle %+v", tc.name, policy, free, got, want)
				}
			}
		}
		opts := DefaultOptions(TruthFinder).normalized()
		for _, comp := range buildTrustLayout([][]Claim{tc.claims}, []*groupPrep{p}).comps {
			seed, pinned := comp.seeds(&opts)
			got, gotIters, _ := runComponentFixpoint(comp, seed, pinned, opts.DefaultTrust, opts.Iterations)
			want, wantIters := oracleFixpoint(comp, map[*groupPrep][]Claim{p: tc.claims}, seed, pinned, opts.DefaultTrust, opts.Iterations)
			if gotIters != wantIters || !reflect.DeepEqual(got, want) {
				t.Errorf("%s: fixpoint %v in %d iterations, the oracle %v in %d", tc.name, got, gotIters, want, wantIters)
			}
		}
	}
}

// TestTrustPreparedGroupsFuseConcurrently pins that fusing only reads:
// once an estimation has run, under any policy, two goroutines fusing the
// same entities into slabs of their own both equal one sequential fuse.
// Run under the race detector it also shows that no fuse writes prepared
// state.
func TestTrustPreparedGroupsFuseConcurrently(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	claims := randomClaims(rng, 200)
	// A few cents claims, so some groups vote into reconciled buckets.
	for i := 0; i < 4; i++ {
		claims = append(claims, Claim{Entity: fmt.Sprintf("entity-%02d", i), Attribute: "price",
			Value: dataset.Float(1100), SourceID: "src9"})
	}
	for _, policy := range []Policy{MajorityVote, WeightedVote, TruthFinder, FreshnessWeighted} {
		mk := func() Options {
			o := DefaultOptions(policy)
			o.Now = time.Date(2026, 7, 2, 0, 0, 0, 0, time.UTC)
			return o
		}
		want := Fuse(claims, mk())
		g := GroupClaims(claims)
		opts, _, _ := EstimateTrustWarmParallel(g, mk(), nil, 2)
		if !slices.ContainsFunc(g.prep, func(p *groupPrep) bool { return p.reconciled != nil }) {
			t.Fatal("no group votes into reconciled buckets")
		}
		slabs := [2][]Result{make([]Result, g.Len()), make([]Result, g.Len())}
		var wg sync.WaitGroup
		for _, slab := range slabs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				g.FuseInto(slab, nil, nil, opts, 0, 2)
				g.FuseInto(slab, nil, nil, opts, 1, 2)
			}()
		}
		wg.Wait()
		for k, slab := range slabs {
			resultsEqual(t, fmt.Sprintf("%s slab %d", policy, k), want, slab)
		}
	}
}

// TestPreparedSupportersMatchScan pins the supporter lists a prepared
// group keeps, one per fuse bucket, to the claim scan: each equals
// Supporters over the unprepared group at the bucket's representative,
// nil included, and the prepared group answers Supporters at its fused
// value with its winner's list.
func TestPreparedSupportersMatchScan(t *testing.T) {
	c := func(src string, v dataset.Value) Claim {
		return Claim{Entity: "e", Attribute: "price", SourceID: src, Value: v}
	}
	cases := []struct {
		name   string
		claims []Claim
		want   [][]string // per fuse bucket
	}{
		{
			name:   "single bucket",
			claims: []Claim{c("s2", dataset.Float(10)), c("s1", dataset.Float(10.05)), c("s2", dataset.Int(10)), c("s0", dataset.Null())},
			want:   [][]string{{"s1", "s2"}},
		},
		{
			name:   "conflicted",
			claims: []Claim{c("s0", dataset.Float(10)), c("s1", dataset.Float(20)), c("s2", dataset.Float(10.09)), c("s3", dataset.Float(20))},
			want:   [][]string{{"s0", "s2"}, {"s1", "s3"}},
		},
		{
			// The cents claim joins the dollar bucket, but its claimed value
			// is 100× the representative, so it backs nothing.
			name:   "reconciled",
			claims: []Claim{c("s0", dataset.Null()), c("s1", dataset.Float(1000)), c("s2", dataset.Float(10)), c("s3", dataset.Float(10.05))},
			want:   [][]string{{"s2", "s3"}},
		},
		{
			name:   "all null",
			claims: []Claim{c("s0", dataset.Null()), c("s1", dataset.Null())},
			want:   nil,
		},
		{
			// Buckets compare normalised strings, supporters exact ones.
			name:   "strings",
			claims: []Claim{c("s0", dataset.String("Acme")), c("s1", dataset.String("acme")), c("s2", dataset.String("Globex")), c("s3", dataset.String("Acme"))},
			want:   [][]string{{"s0", "s3"}, {"s2"}},
		},
	}
	for _, tc := range cases {
		prepared, scanned := GroupClaims(tc.claims), GroupClaims(tc.claims)
		opts, _, _ := EstimateTrustWarmParallel(prepared, DefaultOptions(TruthFinder), nil, 1)
		p := prepared.prep[0]
		reps := p.fuseBuckets().reps
		if len(p.supporters) != len(reps) {
			t.Fatalf("%s: %d supporter lists for %d fuse buckets", tc.name, len(p.supporters), len(reps))
		}
		var got [][]string
		for bi, rep := range reps {
			if want := scanned.Supporters(0, rep); !reflect.DeepEqual(p.supporters[bi], want) {
				t.Errorf("%s: bucket %d (%v) supporters %#v, the scan %#v", tc.name, bi, rep, p.supporters[bi], want)
			}
			got = append(got, p.supporters[bi])
		}
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s: supporter lists %v, want %v", tc.name, got, tc.want)
		}
		v := prepared.Fuse(opts)[0].Value
		if got, want := prepared.Supporters(0, v), scanned.Supporters(0, v); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: supporters of the fused %v: %#v, the scan %#v", tc.name, v, got, want)
		}
	}
}
