package main

import (
	"fmt"
	"hash/fnv"
	"io"

	"repro/wrangle"
	"repro/wrangle/synth"
)

// tier is one universe size. The program never sees these numbers, only
// the synth.Universe generated from them.
type tier struct {
	products, evolves, sources int
	minRecords, maxRecords     int // 0 keeps synth.DefaultConfig's range
}

var tiers = map[string]tier{
	// ~10³ union rows: the scale of every BENCH_PR* baseline.
	"1k": {products: 200, evolves: 12, sources: 24},
	// ~10⁴ union rows, ~3 200 entities.
	"10k": {products: 2000, evolves: 12, sources: 100, minRecords: 80, maxRecords: 120},
	// What `cmd/wrangle -sources 24` generates for itself (minus its
	// master data): the in-process twin of serve.sse.1k's child.
	"serve": {products: 300, evolves: 24, sources: 24},
}

// datasetSeed generates every tier's catalogue and sources. It is fixed:
// two universes of one tier generated from different seeds differ by a
// tenth and more in candidate pairs and reaction cost at equal row
// counts, which is wider than any bound the benchmark could then hold.
// The run's -seed drives what happens to the dataset instead — see
// universe.
const datasetSeed = 1

// universe generates the tier's dataset and hands its future to seed:
// the world's churn (which prices move on each Evolve) is drawn from
// seed from here on, every source is re-snapshotted after three such
// steps — so which products each source lists is fixed while the prices
// it lists come from the seed — and each script starts its round robin
// where the seed says. shrink > 1 divides the tier's size for the smoke
// test; the benchmark proper always passes 1.
func (t tier) universe(seed int64, shrink int) *synth.Universe {
	w := synth.NewWorld(datasetSeed, max(t.products/shrink, 40), 0)
	for i := 0; i < t.evolves; i++ {
		w.Evolve(0.15)
	}
	cfg := synth.DefaultConfig(datasetSeed, max(t.sources/shrink, 6))
	if t.minRecords > 0 {
		cfg.MinRecords, cfg.MaxRecords = t.minRecords, t.maxRecords
	}
	u := synth.Generate(w, cfg)
	w.Rand().Seed(seed)
	for i := 0; i < 3; i++ {
		w.Evolve(0.15)
	}
	for _, src := range u.Sources {
		u.Refresh(src.ID)
	}
	return u
}

const fullShards = 4

// defaultOpts is what a new user gets: sequential tail, in-memory, full
// frames.
func defaultOpts(u *synth.Universe) []wrangle.Option {
	return []wrangle.Option{wrangle.WithProvider(u)}
}

// fullOpts is the README / watchload serving shape, durable in dir.
func fullOpts(u *synth.Universe, dir string) []wrangle.Option {
	return []wrangle.Option{
		wrangle.WithProvider(u),
		wrangle.WithIntegrationShards(fullShards),
		wrangle.WithStreamingRefresh(),
		wrangle.WithDurableLog(dir),
		wrangle.WithRetainVersions(8),
		wrangle.WithWatchBuffer(64),
	}
}

// fingerprint digests a version's table, row order and entity index: the
// reader-visible state (cmd/watchload's viewHash recipe).
func fingerprint(v *wrangle.View) string {
	h := fnv.New64a()
	t := v.Table()
	io.WriteString(h, t.Schema().String())
	for i := 0; i < t.Len(); i++ {
		for _, val := range t.Row(i) {
			io.WriteString(h, val.Key())
			io.WriteString(h, "|")
		}
		io.WriteString(h, "\n")
	}
	for _, e := range v.Entities() {
		io.WriteString(h, e)
		io.WriteString(h, ",")
	}
	return fmt.Sprintf("%016x", h.Sum64())
}
