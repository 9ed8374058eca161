package er

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/dataset"
)

// benchUnion builds a union of `sources` sources of `rows` records each,
// over a catalogue of entities most sources list: every entity name
// shares stop-gram blocks (brand and noun) with thousands of rows and a
// few rarer grams (its made-up model word) with a handful, so blocks fall
// on both sides of MaxBlockSize as in a real product union. It also
// returns the record generator, for edits.
func benchUnion(sources, rows int) (t *dataset.Table, keys []string, record func(*rand.Rand) dataset.Record) {
	brands := []string{"Anker", "Belkin", "Logi", "Voltix", "Acme", "Globex", "Initech", "Umbrella"}
	nouns := []string{"Cable", "Mouse", "Keyboard", "Lamp", "Kettle", "Router", "Blender", "Charger", "Speaker", "Monitor"}
	syllables := []string{"ka", "zo", "ri", "mu", "te", "vo", "la", "xi", "no", "pe", "su", "di", "fa", "go", "hu", "je", "wy", "qa", "bo", "ce"}
	entities := sources * rows / 3
	record = func(rng *rand.Rand) dataset.Record {
		e := rng.Intn(entities)
		word := syllables[e%20] + syllables[e/20%20] + syllables[e/400%20]
		name := fmt.Sprintf("%s %s %s %d", brands[e%8], word, nouns[e/7%10], e%13)
		if rng.Intn(4) == 0 { // a typo
			r := []byte(name)
			i := 1 + rng.Intn(len(r)-2)
			r[i], r[i-1] = r[i-1], r[i]
			name = string(r)
		}
		sku := dataset.String(fmt.Sprintf("SKU-%05d", e))
		if rng.Intn(3) == 0 {
			sku = dataset.Null()
		}
		return dataset.Record{sku, dataset.String(name), dataset.String(brands[e%8]),
			dataset.Float(5 + float64(e%200) + rng.Float64())}
	}
	t = dataset.NewTable(carrySchema.Clone())
	rng := rand.New(rand.NewSource(1))
	for s := 0; s < sources; s++ {
		for i := 0; i < rows; i++ {
			t.Append(record(rng))
			keys = append(keys, fmt.Sprintf("src-%d#%d", s, i))
		}
	}
	return t, keys, record
}

// BenchmarkRePlan is the incremental re-plan of a one-source refresh of a
// 10⁴-row union at 4 shards: the previous round is planned, resolved and
// committed once; each op re-plans, against that memo, the union after
// source 0 refreshed — a tenth of its rows replaced by other listings (re-
// blocked), another tenth repriced (dirty, same blocks). The table is
// prepared before the clock starts, so the op is RePlan alone — block
// edits, pair emission, the pair-list merge, shard routing and the clean
// clusters' translation.
func BenchmarkRePlan(b *testing.B) {
	const shards = 4
	const sources, rows = 20, 500
	prevTab, keys, record := benchUnion(sources, rows)
	r := NewResolver("sku", "name", "brand", "price")
	rp, err := r.RePlan(prevTab, shards, nil, nil, keys, nil, nil)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := resolveAll(r, prevTab, rp, nil, nil); err != nil {
		b.Fatal(err)
	}
	state, err := rp.Commit(r, keys, nil, nil)
	if err != nil {
		b.Fatal(err)
	}
	tab := dataset.NewTable(carrySchema.Clone())
	for _, rec := range prevTab.Rows() {
		tab.Append(rec)
	}
	rng := rand.New(rand.NewSource(2))
	var dirty []int
	for i := 0; i < rows; i += 5 {
		rec := record(rng)
		if i%10 != 0 {
			rec = prevTab.Row(i).Clone()
			rec[3] = dataset.Float(rec[3].FloatVal() + 1)
		}
		tab.ReplaceRow(i, rec)
		dirty = append(dirty, i)
	}
	next := NewResolver("sku", "name", "brand", "price")
	next.Carry(r)
	next.Prepare(tab)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := next.RePlan(tab, shards, nil, nil, keys, dirty, state); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(dirty)), "dirty_rows")
}
