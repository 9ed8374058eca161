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
// groups, and each part fusing only the groups whose entity it owns,
// merges to exactly what partitioning the claims and fusing every part
// on its own yields — and to one Fuse over everything. The filter is
// asked once per entity.
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
			for _, k := range []int{1, 3} {
				owner := map[string]int{}
				for _, c := range claims {
					if _, ok := owner[c.Entity]; !ok {
						owner[c.Entity] = len(owner) % k
					}
				}
				var grouped, split [][]Result
				for s := 0; s < k; s++ {
					asked := map[string]int{}
					grouped = append(grouped, g.Fuse(opts, func(e string) bool {
						asked[e]++
						return owner[e] == s
					}))
					for e, n := range asked {
						if n != 1 {
							t.Fatalf("seed=%d k=%d: entity %q asked %d times", seed, k, e, n)
						}
					}
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
		if b[i-1].Entity+"\x1f"+b[i-1].Attribute >= b[i].Entity+"\x1f"+b[i].Attribute {
			t.Fatalf("merged results not strictly sorted at %d", i)
		}
	}
}
