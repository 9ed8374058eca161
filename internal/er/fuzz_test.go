package er

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/dataset"
	"repro/internal/text"
)

// FuzzPrepareCarry pins the carried front half against the cold one. A
// union of a few "sources" is planned and resolved; then, twice over, the
// fuzz input refreshes some sources (edited, dropped and added rows —
// every later source's rows shift), leaves the others' records in place,
// clones a few kept rows the way FD repair does, and moves the
// constraints. The next round's resolver Carries its predecessor's
// registries, is Seeded with the per-source derivations (stale ones
// included) and RePlans against the memoized PlanState; a fresh resolver
// plans the same table from nothing. They must agree on every row's block
// keys, the candidate pair list, shard routing, clusters and — bit for
// bit — every score the carried round cached or computed.

type byteReader struct{ data []byte }

// next returns the next input byte, 0 once the input is exhausted.
func (b *byteReader) next() int {
	if len(b.data) == 0 {
		return 0
	}
	v := b.data[0]
	b.data = b.data[1:]
	return int(v)
}

var carrySchema = dataset.MustSchema(
	dataset.Field{Name: "sku", Kind: dataset.KindString},
	dataset.Field{Name: "name", Kind: dataset.KindString},
	dataset.Field{Name: "brand", Kind: dataset.KindString},
	dataset.Field{Name: "price", Kind: dataset.KindFloat},
)

// carryRecord draws one record over small alphabets: a dozen entities,
// typo'd and token-swapped name variants (same grams, different name),
// missing keys, two brand spellings.
func carryRecord(in *byteReader) dataset.Record {
	e, v := in.next()%12, in.next()
	adj := []string{"Turbo", "Ultra", "Compact"}[e%3]
	noun := []string{"Blender", "Kettle", "Lamp", "Router"}[e%4]
	name := fmt.Sprintf("%s %s %d", adj, noun, e)
	switch v % 5 {
	case 1:
		name = name[:2] + name[3:] // typo
	case 2:
		name = fmt.Sprintf("%s %s %d", noun, adj, e) // reordered tokens
	case 3:
		name = "Edited Widget " + fmt.Sprint(v%7)
	}
	rec := dataset.Record{dataset.String(fmt.Sprintf("SKU-%02d", e)), dataset.String(name),
		dataset.String([]string{"Acme", "Globex", "acme!"}[(e+v/5)%3]), dataset.Float(10 + float64(e)*3.5 + float64(v%3))}
	if v%7 == 0 {
		rec[0] = dataset.Null()
	}
	if v%11 == 0 {
		rec[1] = dataset.Null()
	}
	return rec
}

// carrySource is one part of the union: a table whose records the union
// shares, its derivation, and the generation its row keys carry.
type carrySource struct {
	id   int
	tab  *dataset.Table
	feat *Derived
}

func newCarrySource(r *Resolver, id, rows int, in *byteReader) *carrySource {
	s := &carrySource{id: id, tab: dataset.NewTable(carrySchema.Clone())}
	for i := 0; i < rows; i++ {
		s.tab.Append(carryRecord(in))
	}
	s.feat = r.Derive(s.tab)
	return s
}

// carryUnion concatenates the sources; clones lists union rows to replace
// by a clone, content kept (even) or brand rewritten (odd) — FD repair.
func carryUnion(srcs []*carrySource, clones []int) (t *dataset.Table, keys []string, seeds []*Derived) {
	t = dataset.NewTable(carrySchema.Clone())
	for _, s := range srcs {
		for i, rec := range s.tab.Rows() {
			t.Append(rec)
			keys = append(keys, fmt.Sprintf("src-%d#%d", s.id, i))
		}
		seeds = append(seeds, s.feat)
	}
	for k, c := range clones {
		if t.Len() == 0 {
			break
		}
		row := c % t.Len()
		rec := t.Row(row).Clone()
		if k%2 == 1 {
			rec[2] = dataset.String("Initech")
		}
		t.ReplaceRow(row, rec)
	}
	return t, keys, seeds
}

func carryConstraints(in *byteReader, rows int) (must, cannot []Pair) {
	if rows < 2 {
		return nil, nil
	}
	for k := in.next() % 3; k > 0; k-- {
		if a, b := in.next()%rows, in.next()%rows; a != b {
			must = append(must, Pair{I: min(a, b), J: max(a, b)})
		}
	}
	for k := in.next() % 3; k > 0; k-- {
		if a, b := in.next()%rows, in.next()%rows; a != b {
			cannot = append(cannot, Pair{I: min(a, b), J: max(a, b)})
		}
	}
	return must, cannot
}

// blockKeysOf renders a plan's block index by key string — registries
// number blocks differently, the keys must agree.
func blockKeysOf(plan *ShardPlan) map[string][]int32 {
	out := map[string][]int32{}
	name := func(prefix string, m map[string]int32) {
		for k, b := range m {
			if rows := plan.idx.of(b); len(rows) > 0 {
				out[prefix+k] = rows
			}
		}
	}
	name("k:", plan.idx.reg.keyBlocks)
	name("g:", plan.idx.reg.gramBlocks)
	return out
}

// resolveAll completes a re-planned round and returns its clustering.
func resolveAll(r *Resolver, t *dataset.Table, rp *RePlanned, must, cannot []Pair) (*Clustering, error) {
	for s, reused := range rp.Reused {
		if reused {
			continue
		}
		if _, err := rp.ResolveDirty(r, t, s, must, cannot); err != nil {
			return nil, err
		}
	}
	return rp.Clustering()
}

// carryCoverage reports which carried paths an input drove: previous
// clusters adopted beside freshly resolved ones, adopted across a row-count
// shift, and adopted while the pair list moved; and which shapes of
// touched block an incremental re-plan met — one usable before and after
// that a surviving row left or a row joined (it emits only those rows'
// pairs), one that became usable and one that stopped being usable (each
// emits whole).
type carryCoverage struct {
	mixed, shifted, reblocked   bool
	edited, crossedIn, crossOut bool
}

// or merges two coverages.
func (c carryCoverage) or(o carryCoverage) carryCoverage {
	return carryCoverage{c.mixed || o.mixed, c.shifted || o.shifted, c.reblocked || o.reblocked,
		c.edited || o.edited, c.crossedIn || o.crossedIn, c.crossOut || o.crossOut}
}

// checkCarried holds an incremental re-plan, before any resolve, to the
// round it carried from: every pair the previous round scored that is
// still a candidate, with both endpoints clean and the rule held, carries
// its score bit for bit. It also records the shapes of touched block the
// re-plan met. A re-plan that fell back to a fresh plan (the rows cannot
// be aligned, or the registry was not carried) is not checked.
func checkCarried(r *Resolver, rp *RePlanned, prev *PlanState, keys []string, dirty []int, cov *carryCoverage) error {
	old2new, _, ok := alignRows(prev.rowKeys, keys)
	if !ok || prev.idx.reg != rp.Plan.idx.reg {
		return nil
	}
	if prev.threshold == r.Threshold && slices.Equal(prev.weights, r.Weights) {
		for k, v := range prev.pairs {
			pr := unpackPair(v)
			i, j := old2new[pr.I], old2new[pr.J]
			if prev.scores[k] == unscored || i < 0 || j < 0 || slices.Contains(dirty, int(i)) || slices.Contains(dirty, int(j)) {
				continue
			}
			if at, found := slices.BinarySearch(rp.Plan.pairs, packPair(i, j)); found && rp.scores[at] != prev.scores[k] {
				return fmt.Errorf("pair %v lost its carried score %v (has %v)", Pair{I: int(i), J: int(j)}, prev.scores[k], rp.scores[at])
			}
		}
	}
	for b := range rp.Plan.idx.members {
		old, cur := prev.idx.of(int32(b)), rp.Plan.idx.of(int32(b))
		var stayed []int32
		for _, j := range old {
			if i := old2new[j]; i >= 0 {
				stayed = append(stayed, i)
			}
		}
		was, is := usableBlock(len(old), prev.maxBlock), usableBlock(len(cur), prev.maxBlock)
		cov.edited = cov.edited || was && is && !slices.Equal(stayed, cur)
		cov.crossedIn = cov.crossedIn || !was && is
		cov.crossOut = cov.crossOut || was && !is
	}
	return nil
}

func checkPrepareCarry(data []byte) (cov carryCoverage, err error) {
	in := &byteReader{data: data}
	shards := 1 + in.next()%4
	r := NewResolver("sku", "name", "brand", "price")
	r.MaxBlockSize = 4 + in.next()%8 // small, so blocks cross the usable line
	maxBlock := r.MaxBlockSize
	srcs := make([]*carrySource, 1+in.next()%4)
	for i := range srcs {
		srcs[i] = newCarrySource(r, i, 2+in.next()%7, in)
	}
	var state *PlanState
	var prevTab *dataset.Table
	var prevKeys []string
	for round := 0; round < 3; round++ {
		if round > 0 {
			// Refresh some sources: a new generation of records, some rows
			// carried over by value, some edited, the count free to move.
			for i, s := range srcs {
				switch in.next() % 4 {
				case 1, 2:
					ns := &carrySource{id: s.id, tab: dataset.NewTable(carrySchema.Clone())}
					for k, n := 0, max(0, s.tab.Len()+(in.next()+1)%3-1); k < n; k++ {
						if k < s.tab.Len() && in.next()%2 == 0 {
							ns.tab.Append(s.tab.Row(k).Clone())
						} else {
							ns.tab.Append(carryRecord(in))
						}
					}
					ns.feat = r.Derive(ns.tab)
					srcs[i] = ns
				case 3:
					switch in.next() % 8 {
					case 0: // deselected, and a source never seen selected
						srcs[i] = newCarrySource(r, s.id+10*(round+1), 1+in.next()%5, in)
					case 1: // surviving rows change their relative order
						j := (i + 1) % len(srcs)
						srcs[i], srcs[j] = srcs[j], srcs[i]
					}
				}
			}
		}
		var clones []int
		for k := in.next() % 4; k > 0; k-- {
			clones = append(clones, in.next())
		}
		tab, keys, seeds := carryUnion(srcs, clones)
		if tab.Len() == 0 {
			continue
		}
		must, cannot := carryConstraints(in, tab.Len())
		if in.next()%16 == 15 {
			r.Threshold -= 0.05 // the rule moved: nothing is reusable
		}

		// The carried round.
		next := NewResolver("sku", "name", "brand", "price")
		next.MaxBlockSize, next.Threshold, next.Weights = maxBlock, r.Threshold, r.Weights
		next.Carry(r)
		next.Seed(seeds...)
		next.Prepare(tab)
		var dirty []int
		if state != nil {
			oldRow := map[string]int{}
			for j, k := range prevKeys {
				oldRow[k] = j
			}
			for i, k := range keys {
				if j, ok := oldRow[k]; ok && !tab.Row(i).Equal(prevTab.Row(j)) {
					dirty = append(dirty, i)
				}
			}
		}
		rp, err := next.RePlan(tab, shards, must, cannot, keys, dirty, state)
		if err != nil {
			return cov, fmt.Errorf("round %d: replan: %w", round, err)
		}
		if state != nil {
			if err := checkCarried(next, rp, state, keys, dirty, &cov); err != nil {
				return cov, fmt.Errorf("round %d: %w", round, err)
			}
			clean, resolved := 0, 0
			for _, root := range rp.Roots {
				if root >= 0 {
					clean++
				}
			}
			for _, rows := range rp.DirtyRows {
				resolved += len(rows)
			}
			cov.mixed = cov.mixed || clean > 0 && resolved > 0
			cov.shifted = cov.shifted || clean > 0 && len(keys) != len(prevKeys)
			cov.reblocked = cov.reblocked || clean > 0 && !slices.Equal(rp.Plan.pairs, state.pairs)
		}
		got, err := resolveAll(next, tab, rp, must, cannot)
		if err != nil {
			return cov, fmt.Errorf("round %d: resolve: %w", round, err)
		}

		// The cold round.
		cold := NewResolver("sku", "name", "brand", "price")
		cold.MaxBlockSize, cold.Threshold, cold.Weights = maxBlock, r.Threshold, r.Weights
		plan, err := cold.PlanShards(tab, shards, must, keys)
		if err != nil {
			return cov, fmt.Errorf("round %d: fresh plan: %w", round, err)
		}
		coldRoots := make([]map[int]int, shards)
		for s := range coldRoots {
			if coldRoots[s], _, err = cold.ResolveShard(tab, plan, s, must, cannot); err != nil {
				return cov, err
			}
		}
		want, err := plan.MergeRoots(coldRoots)
		if err != nil {
			return cov, err
		}

		gotBlocks, wantBlocks := blockKeysOf(rp.Plan), blockKeysOf(plan)
		if len(gotBlocks) != len(wantBlocks) {
			return cov, fmt.Errorf("round %d: %d blocks, fresh index has %d", round, len(gotBlocks), len(wantBlocks))
		}
		for k, rows := range wantBlocks {
			if !slices.Equal(gotBlocks[k], rows) {
				return cov, fmt.Errorf("round %d: block %q = %v, fresh index says %v", round, k, gotBlocks[k], rows)
			}
		}
		if !slices.Equal(rp.Plan.pairs, plan.pairs) {
			return cov, fmt.Errorf("round %d: pairs %v, fresh plan says %v", round, unpackPairs(rp.Plan.pairs), unpackPairs(plan.pairs))
		}
		if !slices.Equal(rp.Plan.RowShard, plan.RowShard) {
			return cov, fmt.Errorf("round %d: routing %v, fresh plan says %v", round, rp.Plan.RowShard, plan.RowShard)
		}
		if !slices.Equal(got.Assign, want.Assign) {
			return cov, fmt.Errorf("round %d: clusters %v, fresh resolve says %v", round, got.Assign, want.Assign)
		}
		var sc text.Scratch
		f := make([]float64, len(FeatureNames))
		for k, v := range rp.Plan.pairs {
			if rp.scores[k] == unscored {
				continue
			}
			p := unpackPair(v)
			cold.featuresInto(tab, p.I, p.J, f, &sc)
			if s := cold.Score(f); s != rp.scores[k] {
				return cov, fmt.Errorf("round %d: pair %v cached score %v, fresh score %v", round, p, rp.scores[k], s)
			}
		}
		if state, err = rp.Commit(next, keys, must, cannot); err != nil {
			return cov, fmt.Errorf("round %d: commit: %w", round, err)
		}
		r, prevTab, prevKeys = next, tab, keys
	}
	return cov, nil
}

// carrySeeds were picked from a fuzzing session's corpus for driving the
// carried paths hardest (TestPrepareCarrySeedsCarry holds them to it).
var carrySeeds = []string{
	"0011100000009000000000000201100000100110010210$18210b0200000721101",
	"000C020002000000000002",
	"001C0000000\x0000011010100201010100001170000011",
	"011C0\x00100Y0\x00c80910\a0)000011000000071001",
	"",
	// A clean pair a crossing block drops or re-emits whole, still a
	// candidate through another block, keeps its carried score.
	"0022000001100011017100001010100000",
	"0122000000000100101010110011010110000101",
}

// TestPrepareCarrySeedsCarry keeps the fuzz seeds honest: together they
// must actually reuse previous clusters in each of the shapes the fuzzer
// is there to check, and re-plan each shape of touched block, or the
// equivalence would hold vacuously.
func TestPrepareCarrySeedsCarry(t *testing.T) {
	var all carryCoverage
	for _, seed := range carrySeeds {
		cov, err := checkPrepareCarry([]byte(seed))
		if err != nil {
			t.Fatal(err)
		}
		all = all.or(cov)
	}
	if all != (carryCoverage{true, true, true, true, true, true}) {
		t.Fatalf("seed corpus reuses nothing in some shape: %+v", all)
	}
}

func FuzzPrepareCarry(f *testing.F) {
	for _, seed := range carrySeeds {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if _, err := checkPrepareCarry(data); err != nil {
			t.Fatal(err)
		}
	})
}
