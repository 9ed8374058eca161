package fusion

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/dataset"
)

// componentTestClaims builds one trust-coupled component: its own sources
// (prefixed so components stay disjoint) conflicting over its own
// entities. Values overlap across sources so the fixpoint has something
// to iterate on.
func componentTestClaims(prefix string, sources, entities int) []Claim {
	var claims []Claim
	for e := 0; e < entities; e++ {
		for s := 0; s < sources; s++ {
			claims = append(claims, Claim{
				Entity:    fmt.Sprintf("%s-e%d", prefix, e),
				Attribute: "price",
				Value:     dataset.Float(float64(100 + 10*((s+e)%3))),
				SourceID:  fmt.Sprintf("%s-s%d", prefix, s),
				AsOf:      time.Unix(int64(e), 0),
			})
		}
	}
	return claims
}

// TestTrustComponentPartition pins the component decomposition itself:
// two disjoint source sets never couple (each converges exactly as it
// would alone), and a single shared claim group glues them into one
// component.
func TestTrustComponentPartition(t *testing.T) {
	a := componentTestClaims("a", 3, 4)
	b := componentTestClaims("b", 4, 3)
	both := append(append([]Claim(nil), a...), b...)

	_, st := EstimateTrustParallel(both, DefaultOptions(TruthFinder), 2)
	if st.Components != 2 || len(st.Iterations) != 2 {
		t.Fatalf("disjoint source sets: components=%d iterations=%v, want 2 of each", st.Components, st.Iterations)
	}

	// Isolation: a component's trust must be identical whether or not the
	// other component is present in the claim set — they provably exchange
	// no information, and the per-component convergence break makes that
	// independence exact.
	alone := coldTrust(a, DefaultOptions(TruthFinder))
	joint := coldTrust(both, DefaultOptions(TruthFinder))
	for src, want := range alone.Trust {
		if got := joint.Trust[src]; got != want {
			t.Fatalf("trust[%s] = %v with b present, %v alone — disjoint components coupled", src, got, want)
		}
	}

	// A claim group where one source from each set claims the same
	// (entity, attribute) glues the two sets into one component.
	glue := []Claim{
		{Entity: "shared-e", Attribute: "price", Value: dataset.Float(100), SourceID: "a-s0"},
		{Entity: "shared-e", Attribute: "price", Value: dataset.Float(110), SourceID: "b-s0"},
	}
	glued := append(append([]Claim(nil), both...), glue...)
	_, st = EstimateTrustParallel(glued, DefaultOptions(TruthFinder), 2)
	if st.Components != 1 {
		t.Fatalf("shared claim group: components=%d, want 1", st.Components)
	}
}

// TestParallelTrustMatchesSequential pins that the estimation is
// byte-identical to the workers = 1 reference at every worker count, cold
// and through the warm entry point, over randomized claim sets.
func TestParallelTrustMatchesSequential(t *testing.T) {
	workerCounts := []int{1, 2, 4, 8}
	for seed := int64(0); seed < 30; seed++ {
		rng := rand.New(rand.NewSource(seed))
		claims := randomTrustClaims(rng, 10+rng.Intn(120))
		// Append disjoint component blocks so the partition has more than
		// one big component to order.
		claims = append(claims, componentTestClaims(fmt.Sprintf("p%d", seed%3), 3, 2)...)
		claims = append(claims, componentTestClaims("q", 2, 2)...)

		ref := coldTrust(claims, randomTrustOpts(rand.New(rand.NewSource(seed))))
		for _, wk := range workerCounts {
			got, st := EstimateTrustParallel(claims, randomTrustOpts(rand.New(rand.NewSource(seed))), wk)
			requireSameTrust(t, ref.Trust, got.Trust, fmt.Sprintf("seed %d cold workers=%d", seed, wk))
			if st.Components < 3 {
				t.Fatalf("seed %d: components=%d, want >= 3 (claim set was built with disjoint blocks)", seed, st.Components)
			}
			if len(st.Iterations) != st.Components {
				t.Fatalf("seed %d: cold stats %+v inconsistent", seed, st)
			}

			warm, _, wst := EstimateTrustWarmParallel(GroupClaims(claims), randomTrustOpts(rand.New(rand.NewSource(seed))), nil, wk)
			requireSameTrust(t, ref.Trust, warm.Trust, fmt.Sprintf("seed %d warm workers=%d", seed, wk))
			// Cold is the prev == nil case of warm: same stats, not just
			// the same trust.
			if !reflect.DeepEqual(wst, st) {
				t.Fatalf("seed %d workers=%d: warm(prev=nil) stats %+v, cold stats %+v", seed, wk, wst, st)
			}
		}
	}
}

// TestStreamingTrustWarmKeepsPreparedGroups pins the one grain of reuse:
// a warm estimation over churned claims keeps the previous prepared group
// for every (entity, attribute) whose claims held and prepares the others
// afresh, every component iterates, and the result stays float-exact with
// a cold estimation over the churned claim set.
func TestStreamingTrustWarmKeepsPreparedGroups(t *testing.T) {
	var claims []Claim
	for c := 0; c < 5; c++ {
		claims = append(claims, componentTestClaims(fmt.Sprintf("c%d", c), 3, 4)...)
	}
	memo := GroupClaims(claims)
	_, _, st := EstimateTrustWarmParallel(memo, DefaultOptions(TruthFinder), nil, 2)
	if st.Components != 5 {
		t.Fatalf("cold: components=%d, want 5", st.Components)
	}

	// Churn one source's claim on two of component c2's four entities: the
	// values move, every group keeps its members.
	churned := append([]Claim(nil), claims...)
	moved := map[string]bool{}
	for i := range churned {
		if c := &churned[i]; c.SourceID == "c2-s1" && (c.Entity == "c2-e0" || c.Entity == "c2-e3") {
			c.Value = dataset.Float(999)
			moved[c.Entity+"\x1f"+c.Attribute] = true
		}
	}
	cold := coldTrust(churned, DefaultOptions(TruthFinder))
	memo2 := GroupClaims(churned)
	warm, _, st2 := EstimateTrustWarmParallel(memo2, DefaultOptions(TruthFinder), memo, 2)
	if st2.Components != 5 || len(st2.Iterations) != 5 {
		t.Fatalf("1-source churn: stats %+v, want 5 components, all iterated", st2)
	}
	requireSameTrust(t, cold.Trust, warm.Trust, "warm over churned claims")
	if len(moved) != 2 || memo2.Len() != memo.Len() {
		t.Fatalf("churn moved %d groups (want 2); memo holds %d groups, had %d", len(moved), memo2.Len(), memo.Len())
	}
	if st2.GroupsKept != memo.Len()-2 || st2.GroupsPrepared != 2 {
		t.Fatalf("stats %+v: want %d groups kept, 2 prepared", st2, memo.Len()-2)
	}
	for i, p := range memo2.prep {
		k := groupKey(memo2, i)
		if was := groupKey(memo, i); k != was {
			t.Fatalf("group %d: key %q, was %q", i, k, was)
		}
		if kept := p == memo.prep[i]; kept == moved[k] {
			t.Fatalf("group %q: prepared state kept=%v, claims moved=%v", k, kept, moved[k])
		}
	}
}

// TestTrustComponentSeedChangeStaysInComponent pins that a changed seed
// moves the trust of its own component only, warm exactly as cold: the
// other components provably read nothing it wrote.
func TestTrustComponentSeedChangeStaysInComponent(t *testing.T) {
	var claims []Claim
	for c := 0; c < 4; c++ {
		claims = append(claims, componentTestClaims(fmt.Sprintf("k%d", c), 3, 3)...)
	}
	memo := GroupClaims(claims)
	base, _, _ := EstimateTrustWarmParallel(memo, DefaultOptions(TruthFinder), nil, 1)

	seeded := DefaultOptions(TruthFinder)
	seeded.Trust["k1-s0"] = 0.37
	seeded.Pinned = map[string]bool{}
	cold := coldTrust(claims, cloneOpts(seeded))
	warm, _, st := EstimateTrustWarmParallel(GroupClaims(claims), cloneOpts(seeded), memo, 1)
	if st.Components != 4 {
		t.Fatalf("seed change: components=%d, want 4", st.Components)
	}
	requireSameTrust(t, cold.Trust, warm.Trust, "seed change")
	movedInK1 := false
	for src, got := range warm.Trust {
		if strings.HasPrefix(src, "k1-") {
			movedInK1 = movedInK1 || got != base.Trust[src]
		} else if got != base.Trust[src] {
			t.Fatalf("trust[%s] = %v after seeding k1-s0, %v before — the seed crossed components", src, got, base.Trust[src])
		}
	}
	if !movedInK1 {
		t.Fatal("the seeded component's trust did not move")
	}
}
