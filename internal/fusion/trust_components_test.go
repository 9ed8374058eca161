package fusion

import (
	"fmt"
	"math/rand"
	"reflect"
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
	if st.Components != 2 || st.Recomputed != 2 {
		t.Fatalf("disjoint source sets: components=%d recomputed=%d, want 2/2", st.Components, st.Recomputed)
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

// TestParallelTrustMatchesSequential pins tentpole layer (b): the
// component fan-out must be byte-identical to the sequential
// per-component reference at every worker count, cold and warm, over
// randomized claim sets.
func TestParallelTrustMatchesSequential(t *testing.T) {
	workerCounts := []int{1, 2, 4, 8}
	for seed := int64(0); seed < 30; seed++ {
		rng := rand.New(rand.NewSource(seed))
		claims := randomTrustClaims(rng, 10+rng.Intn(120))
		// Append disjoint component blocks so the fan-out has real
		// partitions to distribute, not just one big component.
		claims = append(claims, componentTestClaims(fmt.Sprintf("p%d", seed%3), 3, 2)...)
		claims = append(claims, componentTestClaims("q", 2, 2)...)

		ref := coldTrust(claims, randomTrustOpts(rand.New(rand.NewSource(seed))))
		for _, wk := range workerCounts {
			got, st := EstimateTrustParallel(claims, randomTrustOpts(rand.New(rand.NewSource(seed))), wk)
			requireSameTrust(t, ref.Trust, got.Trust, fmt.Sprintf("seed %d cold workers=%d", seed, wk))
			if st.Components < 3 {
				t.Fatalf("seed %d: components=%d, want >= 3 (claim set was built with disjoint blocks)", seed, st.Components)
			}
			if st.Recomputed != st.Components || len(st.Iterations) != st.Components {
				t.Fatalf("seed %d: cold stats %+v inconsistent", seed, st)
			}

			warm, _, skipped, wst := EstimateTrustWarmParallel(claims, randomTrustOpts(rand.New(rand.NewSource(seed))), nil, wk)
			if skipped {
				t.Fatalf("seed %d: fresh warm estimation reported a short-circuit", seed)
			}
			requireSameTrust(t, ref.Trust, warm.Trust, fmt.Sprintf("seed %d warm workers=%d", seed, wk))
			// Cold is the prev == nil case of warm: same stats, not just
			// the same trust.
			if !reflect.DeepEqual(wst, st) {
				t.Fatalf("seed %d workers=%d: warm(prev=nil) stats %+v, cold stats %+v", seed, wk, wst, st)
			}
		}
	}
}

// TestStreamingTrustWarmComponentShortCircuit pins the per-component warm
// path: churning one component's claims re-iterates that component only —
// the others adopt their memoized trust — and the result stays float-exact
// with a cold estimation over the churned claim set.
func TestStreamingTrustWarmComponentShortCircuit(t *testing.T) {
	var claims []Claim
	for c := 0; c < 5; c++ {
		claims = append(claims, componentTestClaims(fmt.Sprintf("c%d", c), 3, 4)...)
	}
	_, memo, _, st := EstimateTrustWarmParallel(claims, DefaultOptions(TruthFinder), nil, 2)
	if st.Components != 5 || st.Recomputed != 5 {
		t.Fatalf("cold: components=%d recomputed=%d, want 5/5", st.Components, st.Recomputed)
	}

	// Churn every claim of one source in component c2: values move, the
	// component's group membership stays the same.
	churned := append([]Claim(nil), claims...)
	for i := range churned {
		if churned[i].SourceID == "c2-s1" {
			churned[i].Value = dataset.Float(999)
		}
	}
	cold := coldTrust(churned, DefaultOptions(TruthFinder))
	warm, memo2, skipped, st2 := EstimateTrustWarmParallel(churned, DefaultOptions(TruthFinder), memo, 2)
	if skipped {
		t.Fatal("churned claims must not short-circuit outright")
	}
	if st2.Components != 5 || st2.Recomputed != 1 {
		t.Fatalf("1-source churn: components=%d recomputed=%d, want 5/1", st2.Components, st2.Recomputed)
	}
	requireSameTrust(t, cold.Trust, warm.Trust, "component short-circuit")

	// The full short-circuit still works on top of the component memo and
	// reports zero recomputed components.
	again, _, skipped, st3 := EstimateTrustWarmParallel(churned, DefaultOptions(TruthFinder), memo2, 2)
	if !skipped {
		t.Fatal("unchanged inputs did not short-circuit")
	}
	if st3.Components != 5 || st3.Recomputed != 0 {
		t.Fatalf("short-circuit: components=%d recomputed=%d, want 5/0", st3.Components, st3.Recomputed)
	}
	requireSameTrust(t, cold.Trust, again.Trust, "full short-circuit")
}

// TestTrustComponentSeedChangeScopesRerun pins that a changed pinned seed
// dirties only the components the seeded source belongs to.
func TestTrustComponentSeedChangeScopesRerun(t *testing.T) {
	var claims []Claim
	for c := 0; c < 4; c++ {
		claims = append(claims, componentTestClaims(fmt.Sprintf("k%d", c), 3, 3)...)
	}
	_, memo, _, _ := EstimateTrustWarmParallel(claims, DefaultOptions(TruthFinder), nil, 1)

	seeded := DefaultOptions(TruthFinder)
	seeded.Trust["k1-s0"] = 0.37
	seeded.Pinned = map[string]bool{}
	cold := coldTrust(claims, cloneOpts(seeded))
	warm, _, skipped, st := EstimateTrustWarmParallel(claims, cloneOpts(seeded), memo, 1)
	if skipped {
		t.Fatal("changed seed must defeat the global short-circuit")
	}
	if st.Components != 4 || st.Recomputed != 1 {
		t.Fatalf("seed change: components=%d recomputed=%d, want 4/1", st.Components, st.Recomputed)
	}
	requireSameTrust(t, cold.Trust, warm.Trust, "scoped seed change")
}
