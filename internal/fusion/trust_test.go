package fusion

import (
	"fmt"
	"maps"
	"math/rand"
	"testing"
	"time"

	"repro/internal/dataset"
)

// randomTrustClaims draws a claim set shaped to stress the trust fixpoint:
// several entities and attributes, overlapping numeric values near the
// bucketing tolerance (so a claim can match more than one bucket and the
// weight-sorted first-match ordering matters), string values with
// normalisation collisions, and occasional nulls.
func randomTrustClaims(rng *rand.Rand, n int) []Claim {
	var claims []Claim
	for i := 0; i < n; i++ {
		entity := fmt.Sprintf("e%d", rng.Intn(5))
		attr := []string{"price", "name", "brand"}[rng.Intn(3)]
		src := fmt.Sprintf("s%d", rng.Intn(6))
		var v dataset.Value
		switch rng.Intn(6) {
		case 0:
			v = dataset.Null()
		case 1, 2:
			// Cluster around a base with sub- and super-tolerance jitter.
			base := 100 * float64(1+rng.Intn(3))
			v = dataset.Float(base * (1 + (rng.Float64()-0.5)*0.04))
		case 3:
			v = dataset.String([]string{"Acme", "acme ", "Globex", "Umbra"}[rng.Intn(4)])
		default:
			v = dataset.Float(float64(rng.Intn(5)) * 10)
		}
		claims = append(claims, Claim{
			Entity: entity, Attribute: attr, Value: v, SourceID: src,
			AsOf: time.Unix(int64(rng.Intn(1000)), 0),
		})
	}
	return claims
}

func randomTrustOpts(rng *rand.Rand) Options {
	opts := DefaultOptions(TruthFinder)
	opts.Pinned = map[string]bool{}
	for s := 0; s < 6; s++ {
		if rng.Intn(3) == 0 {
			id := fmt.Sprintf("s%d", s)
			opts.Trust[id] = 0.2 + 0.6*rng.Float64()
			opts.Pinned[id] = true
		}
	}
	return opts
}

// coldTrust and warmTrust are the sequential (workers = 1) forms the
// float-exactness tests pin against.
func coldTrust(claims []Claim, opts Options) Options {
	opts, _ = EstimateTrustParallel(claims, opts, 1)
	return opts
}

func warmTrust(claims []Claim, opts Options, prev *TrustMemo) (Options, *TrustMemo) {
	opts, memo, _ := EstimateTrustWarmParallel(GroupClaims(claims), opts, prev, 1)
	return opts, memo
}

func requireSameTrust(t *testing.T, want, got map[string]float64, label string) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: %d trust entries, want %d", label, len(got), len(want))
	}
	for src, w := range want {
		if g, ok := got[src]; !ok || g != w {
			t.Fatalf("%s: trust[%s] = %v, want %v (must be float-exact)", label, src, g, w)
		}
	}
}

// TestStreamingTrustWarmMatchesEstimate pins the float-exactness contract
// of the warm path: from scratch, over unchanged claims (every group
// reused) and after a delta (groups partially reused), the warm
// estimation must reproduce the cold estimation's trust map bit for bit.
func TestStreamingTrustWarmMatchesEstimate(t *testing.T) {
	for seed := int64(0); seed < 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		claims := randomTrustClaims(rng, 10+rng.Intn(120))

		cold := coldTrust(claims, randomTrustOpts(rand.New(rand.NewSource(seed))))
		warm, memo := warmTrust(claims, randomTrustOpts(rand.New(rand.NewSource(seed))), nil)
		requireSameTrust(t, cold.Trust, warm.Trust, fmt.Sprintf("seed %d cold-vs-warm", seed))

		again, memo2 := warmTrust(claims, randomTrustOpts(rand.New(rand.NewSource(seed))), memo)
		requireSameTrust(t, cold.Trust, again.Trust, fmt.Sprintf("seed %d unchanged claims", seed))

		// Delta: mutate a subset of claims, keep the rest — the warm path
		// reuses the untouched groups' prepared state.
		mutated := append([]Claim(nil), claims...)
		for k := 0; k < 1+rng.Intn(5); k++ {
			i := rng.Intn(len(mutated))
			mutated[i].Value = dataset.Float(500 + float64(rng.Intn(50)))
		}
		coldM := coldTrust(mutated, randomTrustOpts(rand.New(rand.NewSource(seed))))
		warmM, _ := warmTrust(mutated, randomTrustOpts(rand.New(rand.NewSource(seed))), memo2)
		requireSameTrust(t, coldM.Trust, warmM.Trust, fmt.Sprintf("seed %d delta", seed))
	}
}

// TestStreamingTrustWarmSeedChangeReruns pins that a changed feedback
// seed (new pinned trust) reaches the warm estimation: it matches the
// cold estimate under the new seeds although every claim group held.
func TestStreamingTrustWarmSeedChangeReruns(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	claims := randomTrustClaims(rng, 80)
	base := DefaultOptions(TruthFinder)
	_, memo := warmTrust(claims, base, nil)

	seeded := DefaultOptions(TruthFinder)
	seeded.Trust["s1"] = 0.31
	seeded.Pinned = map[string]bool{"s1": true}
	cold := coldTrust(claims, cloneOpts(seeded))
	warm, _ := warmTrust(claims, cloneOpts(seeded), memo)
	requireSameTrust(t, cold.Trust, warm.Trust, "seed change")
}

func cloneOpts(o Options) Options {
	o.Trust = maps.Clone(o.Trust)
	o.Pinned = maps.Clone(o.Pinned)
	return o
}

// TestStreamingTrustWarmNonTruthFinder pins that non-TruthFinder policies
// never iterate: the warm path reports no components and leaves trust
// exactly as the cold estimation would (seeds only).
func TestStreamingTrustWarmNonTruthFinder(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	claims := randomTrustClaims(rng, 40)
	opts := DefaultOptions(FreshnessWeighted)
	opts.Trust["s2"] = 0.5
	cold := coldTrust(claims, cloneOpts(opts))
	warm, _, st := EstimateTrustWarmParallel(GroupClaims(claims), cloneOpts(opts), nil, 1)
	if st.Components != 0 || len(st.Iterations) != 0 {
		t.Fatalf("freshness policy has no fixpoint to run, got %+v", st)
	}
	requireSameTrust(t, cold.Trust, warm.Trust, "freshness")
}
