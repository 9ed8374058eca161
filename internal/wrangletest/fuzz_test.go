package wrangletest

import (
	"math/rand"
	"testing"
)

// FuzzStreamingRefreshMatchesFullTail fuzzes the end-to-end tail
// contract: every input derives a small universe, a shard count, a
// worker count and a randomized feedback/refresh script, and the
// session's artefact fingerprints must stay byte-identical to the
// one-shard, one-worker baseline after every step (so the fuzzer
// exercises the warm short-circuit, the recompute path and the trust
// fan-out at workers 1/2/4/8). Runs as a short CI smoke
// (-fuzz=FuzzStreamingRefresh -fuzztime=10s); the corpus executes as
// ordinary seed cases under plain `go test`.
func FuzzStreamingRefreshMatchesFullTail(f *testing.F) {
	f.Add(int64(3), uint8(4), uint8(2), uint8(1))
	f.Add(int64(17), uint8(1), uint8(1), uint8(0))
	f.Add(int64(-9), uint8(8), uint8(3), uint8(3))
	f.Add(int64(11), uint8(7), uint8(2), uint8(2))
	f.Fuzz(func(t *testing.T, seed int64, shards, steps, workers uint8) {
		n := int(shards)%8 + 1
		st := int(steps)%3 + 1
		wk := []int{1, 2, 4, 8}[int(workers)%4]
		CheckDeterminism(t, seed, 4, st, []int{wk}, []int{n})
	})
}

// FuzzShardedResolveMatchesSequential fuzzes the er-layer equivalence:
// every input derives a random table, random must/cannot constraints and
// a shard count, and the sharded plan/resolve/merge must reproduce the
// sequential constrained clustering exactly. The seed corpus covers the
// shard counts the property tests sweep; the fuzzer then mutates its way
// into table shapes and constraint sets we did not think of. CI runs it
// as a short smoke (-fuzz=FuzzSharded -fuzztime=10s); the corpus also
// executes as ordinary seed cases under plain `go test`.
func FuzzShardedResolveMatchesSequential(f *testing.F) {
	f.Add(int64(1), uint8(2), uint8(40))
	f.Add(int64(7), uint8(1), uint8(3))
	f.Add(int64(23), uint8(8), uint8(120))
	f.Add(int64(-5), uint8(4), uint8(77))
	f.Fuzz(func(t *testing.T, seed int64, shards, rows uint8) {
		n := int(shards)%8 + 1
		nRows := 1 + int(rows)%160
		rng := rand.New(rand.NewSource(seed))
		tab := RandomTable(rng, nRows)
		must, cannot := RandomConstraints(rng, tab.Len())
		if err := CheckShardedResolve(tab, n, must, cannot); err != nil {
			t.Fatalf("seed=%d shards=%d rows=%d: %v", seed, n, nRows, err)
		}
	})
}
