package wrangletest

import (
	"fmt"
	"math/rand"
	"testing"
)

// shardCounts is the matrix the er-layer properties sweep: a degenerate
// single shard, and 2/4/8-way fan-outs.
var shardCounts = []int{1, 2, 4, 8}

// TestShardedPipelineMatchesSequential is the acceptance property: for
// randomized universes and randomized feedback/refresh interleavings,
// the integration tail — which re-resolves only the shards each reaction
// dirtied — is byte-identical to its run at one shard and one worker
// (table, fused results, report, trust, clustering and provenance) at
// workers 1/2/4/8 × shards 1/4, after the initial run and after every
// reaction. The reuse total must be positive for every seed: a partial
// tail that silently fell back to full recompute would pass the identity
// check without testing anything.
func TestShardedPipelineMatchesSequential(t *testing.T) {
	if testing.Short() {
		t.Skip("full pipeline determinism sweep is not -short")
	}
	for _, seed := range []int64{3, 17, 23} {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			t.Parallel()
			if reused := CheckDeterminism(t, seed, 6, 5, []int{1, 2, 4, 8}, []int{1, 4}); reused == 0 {
				t.Error("sweep never reused a shard — the partial tail did not engage")
			}
		})
	}
}

// TestStreamingSharesEveryUnchangedRecord pins the merge's record
// adoption at every step of randomized scripts (CheckDeterminism's
// CheckSharing): at every shard count, exactly the entities whose record
// is Same as before share it with the predecessor version, and a delta
// lists exactly the others as changed.
func TestStreamingSharesEveryUnchangedRecord(t *testing.T) {
	for _, seed := range []int64{5, 29} {
		CheckDeterminism(t, seed, 4, 6, []int{2}, []int{1, 4})
	}
}

// TestStreamingRePlanMatchesFresh drives the er-layer streaming property
// over many seeded random tables and mutation scripts: memoize a
// resolved plan, mutate the table, and the incremental re-plan (dirty
// rows re-blocked, untouched shards' clusters translated by reference)
// must reproduce the fresh plan + full resolve exactly.
func TestStreamingRePlanMatchesFresh(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(seed * 31))
		rows := 2 + rng.Intn(120)
		for _, n := range shardCounts {
			if err := CheckStreamingRePlan(rng, rows, n); err != nil {
				t.Fatalf("seed %d rows %d shards %d: %v", seed, rows, n, err)
			}
		}
	}
}

// TestShardedResolveMatchesSequential drives the er-layer property over
// many seeded random tables and constraint sets: plan + per-shard
// resolve + merge reproduces the sequential constrained clustering
// exactly. This is the fast inner loop of the harness (no pipeline, no
// universe), so it can afford hundreds of cases per run.
func TestShardedResolveMatchesSequential(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		tab := RandomTable(rng, 2+rng.Intn(150))
		must, cannot := RandomConstraints(rng, tab.Len())
		for _, n := range shardCounts {
			if err := CheckShardedResolve(tab, n, must, cannot); err != nil {
				t.Fatalf("seed %d rows %d: %v", seed, tab.Len(), err)
			}
		}
	}
}

// TestShardedResolveEmptyAndTiny pins the degenerate shapes: an empty
// table, a single row, fewer rows than shards.
func TestShardedResolveEmptyAndTiny(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for _, rows := range []int{0, 1, 2, 3} {
		tab := RandomTable(rng, rows)
		for _, n := range shardCounts {
			if rows == 0 {
				continue // ResolveConstrained short-circuits; nothing to shard
			}
			if err := CheckShardedResolve(tab, n, nil, nil); err != nil {
				t.Fatalf("rows=%d shards=%d: %v", rows, n, err)
			}
		}
	}
}
