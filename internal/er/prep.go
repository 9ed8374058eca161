package er

import (
	"strings"
	"sync"

	"repro/internal/dataset"
	"repro/internal/text"
)

// This file is the matcher's precompute, split along what each piece is a
// function of — which is also where it is cached:
//
//   - A row's derivation (rowFeatures) is a pure function of one record:
//     its normalised key, name and secondary strings and its numeric
//     value. Derive computes it per table, so a caller whose tables are
//     long-lived (core: one mapped table per source generation) derives
//     each record once, concurrently, where the record is produced, and
//     seeds the resolver with the result. Record identity (&row[0]) is
//     the cache key: union records are immutable once shared, so the same
//     record is the same content.
//   - Everything derived from a distinct value rather than a row — name
//     runes and tokens (the form the similarity fast paths consume), the
//     q-gram block ids of a name, the similarity of two distinct values —
//     lives in a registry of dense ids. Registries only grow, so a round
//     that takes over its predecessor's (Carry) finds every unchanged
//     row's ids still valid and re-interns only new records.
//
// Prepare joins the two for one table: row by row it takes the seeded
// derivation when the record matches, derives otherwise, and interns
// whatever the registry has not seen. A scored pair then compares ids and
// looks up memoised floats; it touches no string machinery at all. Every
// value is derived by the exact deterministic functions the per-pair path
// applies, so scores are bit-identical — pinned by the equivalence test,
// FuzzPrepareCarry and the wrangletest fingerprint harness. Prepare is
// single-threaded (the plan stage / resolve entry points); the state is
// read-only during the shard fan-out except for the similarity memos,
// which are mutex-guarded.

// rowFeatures is one record's matcher state: the derivation, and its ids
// under the registry that last interned it.
type rowFeatures struct {
	rec *dataset.Value // &record[0] the features were derived from; nil for an empty record

	keyOK, nameOK, secOK, numOK bool
	key, name, sec              string // text.Normalize of the key, name and secondary values
	num                         float64

	reg      *registry
	keyBlock int32 // block id of the key, -1 without one
	nameID   int32 // distinct-name id (its gram blocks are reg.nameBlocks[nameID]), -1 without a name
	secID    int32 // distinct-secondary id, -1 without one
}

// Derived holds the row derivations of one table under one column
// configuration. It is what Seed takes. Preparing interns its rows in
// place, so a Derived belongs to one chain of resolvers (each Carrying its
// predecessor), not to several independent ones at once.
type Derived struct {
	keyCol, nameCol, secCol, numCol string
	rows                            []rowFeatures
}

// Len returns the number of rows derived.
func (d *Derived) Len() int { return len(d.rows) }

// colIndex resolves a configured column to its schema index, -1 when the
// column is unset or absent (the per-pair path treated both as null).
func colIndex(s dataset.Schema, name string) int {
	if name == "" {
		return -1
	}
	return s.Index(name)
}

// featureColumns are the resolver's four evidence columns resolved
// against a schema.
type featureColumns struct{ key, name, sec, num int }

func (r *Resolver) columns(s dataset.Schema) featureColumns {
	return featureColumns{
		key:  colIndex(s, r.KeyColumn),
		name: colIndex(s, r.NameColumn),
		sec:  colIndex(s, r.SecondaryColumn),
		num:  colIndex(s, r.NumericColumn),
	}
}

// derive fills rf from one record.
func (c featureColumns) derive(row dataset.Record, rf *rowFeatures) {
	if len(row) > 0 {
		rf.rec = &row[0]
	}
	if c.key >= 0 && !row[c.key].IsNull() {
		rf.keyOK, rf.key = true, text.Normalize(row[c.key].String())
	}
	if c.name >= 0 && !row[c.name].IsNull() {
		rf.nameOK, rf.name = true, text.Normalize(row[c.name].String())
	}
	if c.sec >= 0 && !row[c.sec].IsNull() {
		rf.secOK, rf.sec = true, text.Normalize(row[c.sec].String())
	}
	if c.num >= 0 && row[c.num].IsNumeric() {
		rf.numOK, rf.num = true, row[c.num].FloatVal()
	}
}

// Derive computes the row derivations of t under the resolver's column
// configuration. It reads only t and the four column names, so any
// resolver with the same columns may be seeded with the result, and many
// tables may be derived concurrently.
func (r *Resolver) Derive(t *dataset.Table) *Derived {
	d := &Derived{keyCol: r.KeyColumn, nameCol: r.NameColumn, secCol: r.SecondaryColumn, numCol: r.NumericColumn,
		rows: make([]rowFeatures, t.Len())}
	cols := r.columns(t.Schema())
	for i, row := range t.Rows() {
		cols.derive(row, &d.rows[i])
	}
	return d
}

// Seed offers derivations for the table the next Prepare will see: the
// table's rows are expected to be the parts' rows concatenated in order.
// Nothing is trusted beyond that hint — a seeded row is used only when its
// record is the very record at that position (a row FD repair replaced by
// a clone, or any misalignment, is derived afresh), and parts derived
// under other columns are ignored.
func (r *Resolver) Seed(parts ...*Derived) { r.seeds = parts }

// Carry hands prev's registries — distinct names and secondaries, block
// ids, similarity memos — to r's next Prepare, so records prev already
// interned cost nothing and block ids stay comparable with a PlanState
// memoized under prev. A nil or unprepared prev is a no-op.
func (r *Resolver) Carry(prev *Resolver) {
	if prev != nil && prev.prep != nil {
		r.carry = prev.prep.reg
	}
}

// registry interns the distinct values rows share. Ids are dense and
// stable for the registry's lifetime.
type registry struct {
	gram int

	nameIDs    map[string]int32
	names      [][]rune   // Normalize(name), as runes
	nameToks   [][][]rune // its tokens, as runes
	nameBlocks [][]int32  // its distinct q-gram block ids, in first-occurrence order

	secIDs   map[string]int32
	secRunes [][]rune

	// Block ids: one id space over exact keys and name q-grams.
	keyBlocks, gramBlocks map[string]int32
	nBlocks               int32

	nameMemo, secMemo simMemo

	// What the last Prepare referenced, for mostlyDead.
	liveNames, liveSecs, liveBlocks int
}

func newRegistry(gram int) *registry {
	return &registry{gram: gram, nameIDs: map[string]int32{}, secIDs: map[string]int32{},
		keyBlocks: map[string]int32{}, gramBlocks: map[string]int32{}}
}

// mostlyDead reports whether more than half of some id space went
// unreferenced by the last Prepare — churn has filled the registry with
// values no row carries any more, and carrying it further would only
// carry garbage. Small registries are left alone.
func (g *registry) mostlyDead() bool {
	const slack = 1024
	return len(g.names) > 2*g.liveNames+slack || len(g.secRunes) > 2*g.liveSecs+slack ||
		int(g.nBlocks) > 2*g.liveBlocks+slack
}

func (g *registry) block(m map[string]int32, k string) int32 {
	id, ok := m[k]
	if !ok {
		id = g.nBlocks
		g.nBlocks++
		m[k] = id
	}
	return id
}

// intern assigns rf its ids, registering values seen for the first time:
// tokenization, rune conversion and q-gram block ids are computed once
// per distinct normalised name.
func (g *registry) intern(rf *rowFeatures) {
	rf.reg, rf.keyBlock, rf.nameID, rf.secID = g, -1, -1, -1
	if rf.keyOK {
		rf.keyBlock = g.block(g.keyBlocks, rf.key)
	}
	if rf.nameOK {
		id, ok := g.nameIDs[rf.name]
		if !ok {
			id = int32(len(g.names))
			g.nameIDs[rf.name] = id
			// Normalize is Tokenize rejoined on single spaces, so the tokens
			// fall back out of the normalised string.
			toks := strings.Fields(rf.name)
			g.names = append(g.names, []rune(rf.name))
			g.nameToks = append(g.nameToks, text.TokenRunes(toks))
			var blocks []int32
			for _, tok := range toks {
				for _, gram := range text.QGrams(tok, g.gram) {
					b := g.block(g.gramBlocks, gram)
					if !containsBlock(blocks, b) {
						blocks = append(blocks, b)
					}
				}
			}
			g.nameBlocks = append(g.nameBlocks, blocks)
		}
		rf.nameID = id
	}
	if rf.secOK {
		id, ok := g.secIDs[rf.sec]
		if !ok {
			id = int32(len(g.secRunes))
			g.secIDs[rf.sec] = id
			g.secRunes = append(g.secRunes, []rune(rf.sec))
		}
		rf.secID = id
	}
}

func containsBlock(bs []int32, b int32) bool {
	for _, x := range bs {
		if x == b {
			return true
		}
	}
	return false
}

// simMemo caches a similarity score per distinct-value id pair. Both
// JaroWinkler and the symmetrized Monge-Elkan blend are bit-exactly
// symmetric (their formulas combine the directional terms with
// commutative additions), so the pair is canonicalized to (lo, hi) and
// one cached float serves both call directions. The key packs lo<<32|hi:
// it must not depend on how many values the registry holds, because the
// memo outlives registry growth. Lookups happen inside the concurrent
// resolve fan-out, hence the mutex; the lock is released around the
// compute, so two goroutines may race to fill the same entry — they
// compute the identical float, and whichever store wins is
// indistinguishable.
type simMemo struct {
	mu sync.Mutex
	m  map[int64]float64
}

func (s *simMemo) get(ia, ib int32, sc *text.Scratch, compute func(lo, hi int32, sc *text.Scratch) float64) float64 {
	lo, hi := ia, ib
	if lo > hi {
		lo, hi = hi, lo
	}
	k := int64(lo)<<32 | int64(hi)
	s.mu.Lock()
	if v, ok := s.m[k]; ok {
		s.mu.Unlock()
		return v
	}
	s.mu.Unlock()
	v := compute(lo, hi, sc)
	s.mu.Lock()
	if s.m == nil {
		s.m = map[int64]float64{}
	}
	s.m[k] = v
	s.mu.Unlock()
	return v
}

// nameSim is the name feature for two distinct-name ids, memoized per
// pair: JaroWinkler, blended with symmetric Monge-Elkan only when the
// pair clears 0.5 (token alignment cannot rescue a pair more dissimilar
// than that, and blocking emits many such candidates).
func (g *registry) nameSim(ia, ib int32, sc *text.Scratch) float64 {
	return g.nameMemo.get(ia, ib, sc, func(lo, hi int32, sc *text.Scratch) float64 {
		jw := text.JaroWinklerRunes(g.names[lo], g.names[hi], sc)
		if jw < 0.5 {
			return jw
		}
		return 0.5*jw + 0.5*text.MongeElkanSymTokens(g.nameToks[lo], g.nameToks[hi], sc)
	})
}

// secSim is the secondary feature for two distinct, unequal secondary
// ids, memoized per pair.
func (g *registry) secSim(ia, ib int32, sc *text.Scratch) float64 {
	return g.secMemo.get(ia, ib, sc, func(lo, hi int32, sc *text.Scratch) float64 {
		return text.JaroWinklerRunes(g.secRunes[lo], g.secRunes[hi], sc)
	})
}

// tableFeatures is the prepared state of one table plus the resolver
// configuration it was derived under — Features and the blocking code use
// it only while both the table and the configuration still match, falling
// back to the per-pair path (or a throwaway preparation) otherwise.
type tableFeatures struct {
	t *dataset.Table

	keyCol, nameCol, secCol, numCol string

	reg  *registry
	rows []*rowFeatures // all interned under reg
}

// valid reports whether the prepared state may serve the resolver's
// current configuration over table t.
func (p *tableFeatures) valid(r *Resolver, t *dataset.Table) bool {
	return p != nil && p.t == t && len(p.rows) == t.Len() &&
		p.keyCol == r.KeyColumn && p.nameCol == r.NameColumn &&
		p.secCol == r.SecondaryColumn && p.numCol == r.NumericColumn &&
		p.reg.gram == r.BlockGramSize
}

// blocks returns the block ids row i is a member of: its key's, then its
// name's grams. The two id lists never overlap.
func (p *tableFeatures) blocks(i int) (key int32, grams []int32) {
	rf := p.rows[i]
	if rf.nameID >= 0 {
		grams = p.reg.nameBlocks[rf.nameID]
	}
	return rf.keyBlock, grams
}

// Prepare precomputes the feature state for t, replacing any previous
// state. It starts from the registries a Carry handed over (once; a
// resolver that was handed nothing starts cold) and the derivations a
// Seed offered. Resolve, ResolveConstrained and PlanShards call it on
// entry; callers driving Features or ResolveShard directly may call it
// themselves to get the allocation-free path. Prepare must not run
// concurrently with Features (the resolve fan-out reads the state it
// installs), which the pipeline's plan-stage/fan-out ordering guarantees.
func (r *Resolver) Prepare(t *dataset.Table) {
	r.prep = r.prepare(t, r.carry, r.seeds)
	r.carry = nil
}

// prepared returns the installed state when it serves t, a throwaway
// cold preparation otherwise.
func (r *Resolver) prepared(t *dataset.Table) *tableFeatures {
	if p := r.prep; p.valid(r, t) {
		return p
	}
	return r.prepare(t, nil, nil)
}

func (r *Resolver) prepare(t *dataset.Table, reg *registry, seeds []*Derived) *tableFeatures {
	if reg == nil || reg.gram != r.BlockGramSize || reg.mostlyDead() {
		reg = newRegistry(r.BlockGramSize)
	}
	p := &tableFeatures{
		t:       t,
		keyCol:  r.KeyColumn,
		nameCol: r.NameColumn,
		secCol:  r.SecondaryColumn,
		numCol:  r.NumericColumn,
		reg:     reg,
		rows:    make([]*rowFeatures, t.Len()),
	}
	// Lay the seeds out against the table's rows; a part derived under
	// other columns leaves its stretch unseeded.
	seeded := 0
	for _, d := range seeds {
		if seeded+len(d.rows) > len(p.rows) {
			break
		}
		if d.keyCol == r.KeyColumn && d.nameCol == r.NameColumn && d.secCol == r.SecondaryColumn && d.numCol == r.NumericColumn {
			for j := range d.rows {
				p.rows[seeded+j] = &d.rows[j]
			}
		}
		seeded += len(d.rows)
	}
	cols := r.columns(t.Schema())
	var fresh []rowFeatures // rows derived here, allocated in chunks
	for i, row := range t.Rows() {
		rf := p.rows[i]
		if rf == nil || len(row) == 0 || rf.rec != &row[0] {
			if len(fresh) == 0 {
				fresh = make([]rowFeatures, min(len(p.rows)-i, 256))
			}
			rf, fresh = &fresh[0], fresh[1:]
			cols.derive(row, rf)
			p.rows[i] = rf
		}
		if rf.reg != reg {
			reg.intern(rf)
		}
	}
	reg.countLive(p.rows)
	return p
}

// countLive records how much of the registry rows reference.
func (g *registry) countLive(rows []*rowFeatures) {
	names, secs, blocks := make([]bool, len(g.names)), make([]bool, len(g.secRunes)), make([]bool, g.nBlocks)
	g.liveNames, g.liveSecs, g.liveBlocks = 0, 0, 0
	mark := func(seen []bool, id int32, live *int) bool {
		if id < 0 || seen[id] {
			return false
		}
		seen[id] = true
		*live++
		return true
	}
	for _, rf := range rows {
		mark(blocks, rf.keyBlock, &g.liveBlocks)
		mark(secs, rf.secID, &g.liveSecs)
		if mark(names, rf.nameID, &g.liveNames) {
			for _, b := range g.nameBlocks[rf.nameID] {
				mark(blocks, b, &g.liveBlocks)
			}
		}
	}
}
