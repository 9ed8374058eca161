package fusion

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/dataset"
)

// randomClaims builds a claim set with conflicts, numeric jitter, nulls
// and staleness across several entities, attributes and sources.
func randomClaims(rng *rand.Rand, n int) []Claim {
	now := time.Date(2026, 7, 1, 0, 0, 0, 0, time.UTC)
	var out []Claim
	for i := 0; i < n; i++ {
		e := fmt.Sprintf("entity-%02d", rng.Intn(8))
		attr := []string{"name", "price", "brand"}[rng.Intn(3)]
		src := fmt.Sprintf("src%d", rng.Intn(5))
		var v dataset.Value
		switch {
		case rng.Intn(10) == 0:
			v = dataset.Null()
		case attr == "price":
			v = dataset.Float(10 + float64(rng.Intn(4)) + rng.Float64()*0.001)
		default:
			v = dataset.String(fmt.Sprintf("value-%d", rng.Intn(3)))
		}
		out = append(out, Claim{
			Entity: e, Attribute: attr, Value: v, SourceID: src,
			AsOf: now.Add(-time.Duration(rng.Intn(72)) * time.Hour),
		})
	}
	return out
}

// partitionByEntity splits claims into k parts keyed by entity (never
// splitting one entity across parts), preserving claim order — the way
// the sharded tail partitions claims.
func partitionByEntity(claims []Claim, k int) [][]Claim {
	parts := make([][]Claim, k)
	shardOf := map[string]int{}
	for _, c := range claims {
		s, ok := shardOf[c.Entity]
		if !ok {
			s = len(shardOf) % k
			shardOf[c.Entity] = s
		}
		parts[s] = append(parts[s], c)
	}
	return parts
}

// entityNames lists g's distinct entities in ordinal order, the order
// FuseInto's ranges count them in.
func entityNames(g *ClaimGroups) []string {
	var names []string
	for _, start := range g.entityStart[:len(g.entityStart)-1] {
		names = append(names, g.claims[start][0].Entity)
	}
	return names
}

// groupKey names group i for test maps and messages.
func groupKey(g *ClaimGroups, i int) string {
	return g.claims[i][0].Entity + "\x1f" + g.claims[i][0].Attribute
}

func resultsEqual(t *testing.T, label string, want, got []Result) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: %d results, want %d", label, len(got), len(want))
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("%s: result %d = %+v, want %+v", label, i, got[i], want[i])
		}
	}
}

// TestFuseResolvedPartitionMatchesFuse is the fusion half of the sharding
// contract: one global trust estimation followed by FuseResolved over any
// entity partition, merged with MergeResults, must equal a single Fuse
// call bit for bit — for every policy, over randomized claim sets.
func TestFuseResolvedPartitionMatchesFuse(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		claims := randomClaims(rng, 30+rng.Intn(120))
		for _, policy := range []Policy{MajorityVote, WeightedVote, TruthFinder, FreshnessWeighted} {
			mk := func() Options {
				o := DefaultOptions(policy)
				o.Now = time.Date(2026, 7, 2, 0, 0, 0, 0, time.UTC)
				o.Trust["src0"] = 0.95
				o.Pinned = map[string]bool{"src0": true}
				return o
			}
			want := Fuse(claims, mk())
			for _, k := range []int{1, 2, 4, 8} {
				opts := coldTrust(claims, mk())
				var parts [][]Result
				for _, p := range partitionByEntity(claims, k) {
					parts = append(parts, FuseResolved(p, opts))
				}
				resultsEqual(t, fmt.Sprintf("seed=%d policy=%s k=%d", seed, policy, k),
					want, MergeResults(parts...))
			}
		}
	}
}

// TestClaimGroupsFuseByOwnerMatchesPartition pins the grouped half of
// the sharding contract: claims grouped once, trust estimated over the
// groups, and each part fusing only the groups of the entity range it
// owns, merges to exactly what partitioning the claims by those ranges
// and fusing every part on its own yields — and to one Fuse over
// everything.
func TestClaimGroupsFuseByOwnerMatchesPartition(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		claims := randomClaims(rng, 30+rng.Intn(120))
		for _, policy := range []Policy{MajorityVote, TruthFinder, FreshnessWeighted} {
			mk := func() Options {
				o := DefaultOptions(policy)
				o.Now = time.Date(2026, 7, 2, 0, 0, 0, 0, time.UTC)
				return o
			}
			want := Fuse(claims, mk())
			g := GroupClaims(claims)
			opts, _, _ := EstimateTrustWarmParallel(g, mk(), nil, 2)
			names := entityNames(g)
			for _, k := range []int{1, 3} {
				owner := map[string]int{}
				for e, name := range names {
					s := 0
					for e >= (s+1)*len(names)/k {
						s++
					}
					owner[name] = s
				}
				slab := make([]Result, g.Len())
				var grouped, split [][]Result
				for s := 0; s < k; s++ {
					span, _ := g.FuseInto(slab, nil, nil, opts, s, k)
					grouped = append(grouped, span)
					var part []Claim
					for _, c := range claims {
						if owner[c.Entity] == s {
							part = append(part, c)
						}
					}
					split = append(split, FuseResolved(part, opts))
				}
				label := fmt.Sprintf("seed=%d policy=%s k=%d", seed, policy, k)
				for s := range grouped {
					resultsEqual(t, label+" part", split[s], grouped[s])
				}
				resultsEqual(t, label, want, MergeResults(grouped...))
			}
		}
	}
}

// TestEstimateTrustDeterministic pins the map-iteration fix: trust
// estimation over the same claims must land on identical floats every
// run (the fixpoint sums are order-sensitive, so sorted traversal is
// load-bearing).
func TestEstimateTrustDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	claims := randomClaims(rng, 200)
	first := coldTrust(claims, DefaultOptions(TruthFinder)).Trust
	for i := 0; i < 5; i++ {
		again := coldTrust(claims, DefaultOptions(TruthFinder)).Trust
		if len(again) != len(first) {
			t.Fatalf("run %d: %d sources, want %d", i, len(again), len(first))
		}
		for src, tr := range first {
			if again[src] != tr {
				t.Fatalf("run %d: trust[%s] = %v, want %v (nondeterministic fixpoint)", i, src, again[src], tr)
			}
		}
	}
}

// TestMergeResultsOrderIndependent pins the stable merge: any permutation
// of the parts merges to the same output.
func TestMergeResultsOrderIndependent(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	claims := randomClaims(rng, 80)
	opts := coldTrust(claims, DefaultOptions(TruthFinder))
	parts := partitionByEntity(claims, 4)
	var a, b []Result
	for _, p := range parts {
		a = append(a, FuseResolved(p, opts)...)
	}
	merged := MergeResults(FuseResolved(parts[0], opts), FuseResolved(parts[1], opts),
		FuseResolved(parts[2], opts), FuseResolved(parts[3], opts))
	reversed := MergeResults(FuseResolved(parts[3], opts), FuseResolved(parts[2], opts),
		FuseResolved(parts[1], opts), FuseResolved(parts[0], opts))
	resultsEqual(t, "permuted parts", merged, reversed)
	if len(merged) != len(a) {
		t.Fatalf("merge dropped results: %d vs %d", len(merged), len(a))
	}
	b = append(b, merged...)
	for i := 1; i < len(b); i++ {
		if CompareResults(b[i-1], b[i]) >= 0 {
			t.Fatalf("merged results not strictly sorted at %d", i)
		}
	}
}

// TestFuseIntoPartsTileTheSlab pins FuseInto's ranges: for k parts,
// some of them empty once k exceeds the entity count, each part's slice
// aliases the slab at its first group, has len == cap == its group count,
// and the parts, concatenated in order, are the slab and equal Fuse bit
// for bit. It covers every policy, a single-entity claim set and all-null
// groups, which fuse to Null with Confidence 0 under every policy.
func TestFuseIntoPartsTileTheSlab(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	mixed := randomClaims(rng, 120)
	// Entity entity-99 claims nothing but nulls, on two attributes.
	for _, attr := range []string{"brand", "price"} {
		for _, src := range []string{"src0", "src3"} {
			mixed = append(mixed, Claim{Entity: "entity-99", Attribute: attr, Value: dataset.Null(), SourceID: src})
		}
	}
	var single []Claim
	for _, c := range randomClaims(rng, 30) {
		c.Entity = "solo"
		single = append(single, c)
	}
	for _, tc := range []struct {
		name   string
		claims []Claim
	}{{"mixed", mixed}, {"single entity", single}} {
		for _, policy := range []Policy{MajorityVote, WeightedVote, TruthFinder, FreshnessWeighted} {
			o := DefaultOptions(policy)
			o.Now = time.Date(2026, 7, 2, 0, 0, 0, 0, time.UTC)
			g := GroupClaims(tc.claims)
			opts, _, _ := EstimateTrustWarmParallel(g, o, nil, 1)
			all := g.Fuse(opts)
			entities := len(g.entityStart) - 1
			for _, k := range []int{1, 2, 3, entities + 2} {
				label := fmt.Sprintf("%s %s k=%d", tc.name, policy, k)
				slab := make([]Result, g.Len())
				var tiled []Result
				empty := 0
				for s := 0; s < k; s++ {
					got, _ := g.FuseInto(slab, nil, nil, opts, s, k)
					first := len(tiled)
					if n := len(got); n != cap(got) {
						t.Fatalf("%s part %d: len %d, cap %d", label, s, n, cap(got))
					}
					if len(got) == 0 {
						empty++
					} else if &got[0] != &slab[first] {
						t.Fatalf("%s part %d: does not alias the slab at group %d", label, s, first)
					}
					tiled = append(tiled, got...)
				}
				if k > entities && empty != k-entities {
					t.Fatalf("%s: %d empty parts, want %d", label, empty, k-entities)
				}
				resultsEqual(t, label+" parts", all, tiled)
				resultsEqual(t, label+" slab", all, slab)
			}
			if tc.name == "single entity" && entities != 1 {
				t.Fatalf("%s: %d entities", tc.name, entities)
			}
			nulls := 0
			for i, r := range all {
				if g.claims[i][0].Entity != "entity-99" {
					continue
				}
				nulls++
				if !r.Value.IsNull() || r.Confidence != 0 || r.Support != 0 || r.Conflict {
					t.Fatalf("%s %s: all-null group %q fused to %+v", tc.name, policy, groupKey(g, i), r)
				}
			}
			if want := map[string]int{"mixed": 2}[tc.name]; nulls != want {
				t.Fatalf("%s: %d all-null groups fused, want %d", tc.name, nulls, want)
			}
		}
	}
}
