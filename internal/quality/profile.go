package quality

import (
	"fmt"
	"sort"

	"repro/internal/dataset"
	"repro/internal/text"
)

// This file adds data profiling: discovery of approximate functional
// dependencies from the data itself. The paper's wrangling process must
// "make use of all the available information" (§2.3) without a DBA who
// hand-writes integrity constraints; discovered dependencies feed the
// cost-based repair of Bohannon et al. [7] implemented in RepairProfile.
//
// Discovery and repair share one integer kernel. Every cell is encoded
// twice — the id of its group key (Value.Key, what a left-hand side
// partitions on) and the id of its normalised text (what a right-hand
// side votes on) — and dependencies are measured and violations found by
// counting ids; no string is hashed or normalised per dependency. The
// string work is split off into Cells, a pure function of one table that a
// caller with many long-lived tables (core: one per source generation)
// computes once per table, and a Dictionary that assigns the ids and
// remembers each Cells' translation, so assembling the profile of a union
// whose parts did not change is integer copying.

// DiscoveredFD is an approximate functional dependency LHS -> RHS with
// its measured confidence: the fraction of rows that agree with their LHS
// group's majority RHS value.
type DiscoveredFD struct {
	LHS        []string
	RHS        string
	Confidence float64
	Groups     int // number of distinct LHS groups observed
}

// CFD converts the discovered dependency into the repairable form.
func (d DiscoveredFD) CFD() CFD { return CFD{LHS: d.LHS, RHS: d.RHS} }

// String renders the dependency with its confidence.
func (d DiscoveredFD) String() string {
	return fmt.Sprintf("%v -> %s (%.3f over %d groups)", d.LHS, d.RHS, d.Confidence, d.Groups)
}

// Cells is the string half of a table's profile: per cell its group key
// (Value.Key) and its normalised text. It is a pure function of the
// table's content and holds no ids of its own — only the translation the
// last Dictionary to assemble it left behind — so it can be computed
// concurrently, one per table, and kept for as long as the table lives.
type Cells struct {
	rows int
	key  [][]string // [column][row]; "" marks a null cell
	norm [][]string // [column][row]; text.Normalize(String()), "" when null

	// The cells' ids under dict's generation epoch; stale otherwise.
	dict          *Dictionary
	epoch         int
	keyID, normID [][]int32 // [column][row]; -1 when null
}

// EncodeCells derives the profile strings of every cell of t.
func EncodeCells(t *dataset.Table) *Cells {
	n := len(t.Schema())
	c := &Cells{rows: t.Len(), key: make([][]string, n), norm: make([][]string, n)}
	for ci := 0; ci < n; ci++ {
		c.encodeColumn(t, ci)
	}
	return c
}

func (c *Cells) encodeColumn(t *dataset.Table, ci int) {
	key, norm := make([]string, c.rows), make([]string, c.rows)
	for i, r := range t.Rows() {
		if !r[ci].IsNull() {
			key[i] = r[ci].Key()
			norm[i] = text.Normalize(r[ci].String())
		}
	}
	c.key[ci], c.norm[ci] = key, norm
}

// Dictionary assigns dense per-column ids to group keys and normalised
// strings. It only grows while profiles are assembled from it, so ids
// stay valid — and the Cells translated against it stay translated —
// from one assembly to the next; when the last assembly referenced fewer
// than half of a column's entries the dictionary starts a new generation
// instead, which bounds it by the data it currently describes.
type Dictionary struct {
	epoch int
	cols  []dictColumn
}

type dictColumn struct {
	key, norm         map[string]int32
	liveKey, liveNorm int // distinct ids the last assembled profile referenced
}

// NewDictionary returns an empty dictionary for tables of the given arity.
func NewDictionary(columns int) *Dictionary {
	d := &Dictionary{cols: make([]dictColumn, columns)}
	d.reset()
	return d
}

func (d *Dictionary) reset() {
	d.epoch++
	for ci := range d.cols {
		d.cols[ci] = dictColumn{key: map[string]int32{}, norm: map[string]int32{}}
	}
}

// mostlyDead reports whether some column carries more than twice the
// entries the last profile used (small dictionaries are left alone).
func (d *Dictionary) mostlyDead() bool {
	const slack = 1024
	for ci := range d.cols {
		c := &d.cols[ci]
		if len(c.key) > 2*c.liveKey+slack || len(c.norm) > 2*c.liveNorm+slack {
			return true
		}
	}
	return false
}

func intern(m map[string]int32, s string) int32 {
	id, ok := m[s]
	if !ok {
		id = int32(len(m))
		m[s] = id
	}
	return id
}

// translate (re)computes c's ids under d's current generation.
func (c *Cells) translate(d *Dictionary) {
	c.dict, c.epoch = d, d.epoch
	c.keyID, c.normID = make([][]int32, len(c.key)), make([][]int32, len(c.key))
	for ci := range c.key {
		keyID, normID := make([]int32, c.rows), make([]int32, c.rows)
		col := &d.cols[ci]
		for i, k := range c.key[ci] {
			if k == "" {
				keyID[i], normID[i] = -1, -1
				continue
			}
			keyID[i] = intern(col.key, k)
			normID[i] = intern(col.norm, c.norm[ci][i])
		}
		c.keyID[ci], c.normID[ci] = keyID, normID
	}
}

// Profile is the dictionary-encoded form of a table: per column and row
// the group-key id and the normalised-value id, -1 for null. Discovery
// reads it; repair also writes it, so that later dependencies see
// earlier repairs exactly as a re-profile of the repaired table would.
type Profile struct {
	dict *Dictionary
	rows int
	cols []colProfile

	// Scratch shared by the dependency scans.
	order, start, cnt, first []int32
}

type colProfile struct {
	keyID, normID []int32
	nKeys, nNorms int // exclusive upper bounds of the ids above
}

// Profile assembles the profile of the table whose rows are parts'
// tables concatenated in order. Every part must have the dictionary's
// arity. Parts the dictionary already translated cost one integer copy.
// Not safe for concurrent use: it translates parts and grows d.
func (d *Dictionary) Profile(parts ...*Cells) *Profile {
	if d.mostlyDead() {
		d.reset()
	}
	rows := 0
	for _, c := range parts {
		rows += c.rows
	}
	p := &Profile{dict: d, rows: rows, cols: make([]colProfile, len(d.cols))}
	for _, c := range parts {
		if c.dict != d || c.epoch != d.epoch {
			c.translate(d)
		}
	}
	for ci := range p.cols {
		col := &p.cols[ci]
		col.keyID, col.normID = make([]int32, 0, rows), make([]int32, 0, rows)
		for _, c := range parts {
			col.keyID = append(col.keyID, c.keyID[ci]...)
			col.normID = append(col.normID, c.normID[ci]...)
		}
		dc := &d.cols[ci]
		col.nKeys, col.nNorms = len(dc.key), len(dc.norm)
		dc.liveKey, dc.liveNorm = distinct(col.keyID, col.nKeys), distinct(col.normID, col.nNorms)
	}
	return p
}

// distinct counts the distinct non-negative ids below n.
func distinct(ids []int32, n int) int {
	seen := make([]bool, n)
	live := 0
	for _, id := range ids {
		if id >= 0 && !seen[id] {
			seen[id] = true
			live++
		}
	}
	return live
}

// profileOf profiles t under a throwaway dictionary — the one-shot path of
// the table-level API.
func profileOf(t *dataset.Table) *Profile {
	return NewDictionary(len(t.Schema())).Profile(EncodeCells(t))
}

// scratch returns the shared buffers sized for a scan over nGroups groups
// voting on values below nValues; cnt comes back zeroed.
func (p *Profile) scratch(nGroups, nValues int) (order, start, cnt, first []int32) {
	grow := func(b []int32, n int) []int32 {
		if cap(b) < n {
			return make([]int32, n)
		}
		return b[:n]
	}
	p.order, p.start = grow(p.order, p.rows), grow(p.start, nGroups+1)
	p.cnt, p.first = grow(p.cnt, nValues), grow(p.first, nValues)
	clear(p.start)
	clear(p.cnt)
	return p.order, p.start, p.cnt, p.first
}

// groupRows counting-sorts the rows by group id (negative ids excluded):
// group g's rows, ascending, are order[start[g]:start[g+1]]. start must
// be zero on entry.
func groupRows(group []int32, order, start []int32) {
	for _, g := range group {
		if g >= 0 {
			start[g+1]++
		}
	}
	for g := 1; g < len(start); g++ {
		start[g] += start[g-1]
	}
	// start[g] begins group g; use it as the fill cursor, which leaves it
	// at the group's end — the next group's beginning — then shift back.
	for i, g := range group {
		if g >= 0 {
			order[start[g]] = int32(i)
			start[g]++
		}
	}
	copy(start[1:], start)
	start[0] = 0
}

// discover finds the approximate FDs with single-column left-hand sides
// (the shape repair consumes) with confidence >= minConf and at least
// minGroups distinct LHS groups (to exclude vacuous dependencies from
// near-key columns). Results are sorted by descending confidence, then
// LHS/RHS names.
func (p *Profile) discover(schema dataset.Schema, minConf float64, minGroups int) []DiscoveredFD {
	if minGroups < 1 {
		minGroups = 1
	}
	maxNorms := 0
	for _, c := range p.cols {
		maxNorms = max(maxNorms, c.nNorms)
	}
	var out []DiscoveredFD
	for li := range schema {
		// Continuous numeric columns make meaningless determinants: a
		// float that two rows happen to share is coincidence, not a key,
		// and repairing through it propagates values across entities.
		if schema[li].Kind == dataset.KindFloat {
			continue
		}
		order, start, cnt, _ := p.scratch(p.cols[li].nKeys, maxNorms)
		groupRows(p.cols[li].keyID, order, start)
		for ri := range schema {
			if li == ri {
				continue
			}
			conf, groups, ok := fdConfidence(order, start, p.cols[ri].normID, cnt)
			if !ok || groups < minGroups || conf < minConf {
				continue
			}
			// A dependency whose LHS is a key (every group size 1) is
			// trivially confident and useless for repair.
			if groups == p.rows {
				continue
			}
			out = append(out, DiscoveredFD{
				LHS:        []string{schema[li].Name},
				RHS:        schema[ri].Name,
				Confidence: conf,
				Groups:     groups,
			})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Confidence != out[j].Confidence {
			return out[i].Confidence > out[j].Confidence
		}
		if out[i].LHS[0] != out[j].LHS[0] {
			return out[i].LHS[0] < out[j].LHS[0]
		}
		return out[i].RHS < out[j].RHS
	})
	return out
}

// fdConfidence measures how functionally the grouping column determines
// the voting one: rows agreeing with their group majority / rows
// considered. Rows null on either side are skipped (groupRows dropped
// the null groups, value -1 is skipped here); ok is false when nothing
// could be measured. cnt must be zero on entry and is zero on return.
func fdConfidence(order, start, value, cnt []int32) (float64, int, bool) {
	agree, total, groups := 0, 0, 0
	for g := 0; g+1 < len(start); g++ {
		seg := order[start[g]:start[g+1]]
		n, best := 0, int32(0)
		for _, row := range seg {
			if v := value[row]; v >= 0 {
				n++
				cnt[v]++
				best = max(best, cnt[v])
			}
		}
		if n == 0 {
			continue
		}
		for _, row := range seg {
			if v := value[row]; v >= 0 {
				cnt[v] = 0
			}
		}
		groups++
		agree += int(best)
		total += n
	}
	if total == 0 {
		return 0, 0, false
	}
	return float64(agree) / float64(total), groups, true
}

// violator is one row dissenting from its group's strict-majority value;
// rep is the group's first row carrying that value — the cell a repair
// copies.
type violator struct{ row, rep int32 }

// violators finds the rows that break "group determines column rhs":
// within each group (negative group ids are outside the dependency's
// scope, rows null in rhs do not vote) the value held by a strict
// majority of at least two rows is expected, and every other row is
// reported, groups ascending, rows ascending within a group. A group
// without a strict majority reports nothing: a 1-1 tie (or any split
// without a dominant value) gives no basis to call either row the
// violator, and acting on it would corrupt data arbitrarily.
func (p *Profile) violators(group []int32, nGroups, rhs int) []violator {
	value := p.cols[rhs].normID
	order, start, cnt, first := p.scratch(nGroups, p.cols[rhs].nNorms)
	voting := make([]int32, len(group))
	for i, g := range group {
		if value[i] < 0 {
			g = -1
		}
		voting[i] = g
	}
	groupRows(voting, order, start)
	var out []violator
	for g := 0; g < nGroups; g++ {
		seg := order[start[g]:start[g+1]]
		if len(seg) < 3 {
			continue // a strict majority of two needs a third, dissenting row
		}
		best, bestN := int32(-1), int32(0)
		for _, row := range seg {
			v := value[row]
			if cnt[v] == 0 {
				first[v] = row
			}
			cnt[v]++
			if cnt[v] > bestN {
				best, bestN = v, cnt[v]
			}
		}
		for _, row := range seg {
			cnt[value[row]] = 0
		}
		if bestN < 2 || int(bestN)*2 <= len(seg) {
			continue
		}
		for _, row := range seg {
			if value[row] != best {
				out = append(out, violator{row: row, rep: first[best]})
			}
		}
	}
	return out
}

// keyGroups returns column ci's group-key ids as violators' grouping:
// null is a group of its own (id nKeys), as it is a key of its own.
func (p *Profile) keyGroups(ci int) (group []int32, nGroups int) {
	c := p.cols[ci]
	group = make([]int32, len(c.keyID))
	for i, id := range c.keyID {
		if id < 0 {
			id = int32(c.nKeys)
		}
		group[i] = id
	}
	return group, c.nKeys + 1
}

// repair overwrites each violator's rhs cell with its representative's,
// cloning the record before the first write to it (owned marks the rows
// this call already cloned): the table's records may be shared with
// other tables, and nothing is ever written through a shared record. The
// profile follows the table.
func (p *Profile) repair(t *dataset.Table, vs []violator, rhs int, owned []bool) {
	c := &p.cols[rhs]
	for _, v := range vs {
		if !owned[v.row] {
			t.ReplaceRow(int(v.row), t.Row(int(v.row)).Clone())
			owned[v.row] = true
		}
		t.Row(int(v.row))[rhs] = t.Row(int(v.rep))[rhs]
		c.keyID[v.row], c.normID[v.row] = c.keyID[v.rep], c.normID[v.rep]
	}
}

func ownedRows(owned []bool) []int {
	out := []int{}
	for i, o := range owned {
		if o {
			out = append(out, i)
		}
	}
	return out
}

// ProfileAndRepairRows discovers near-exact dependencies (confidence in
// [minConf, 1)) and repairs their violations, returning the dependencies
// used, the number of cells changed and the repaired row indices
// (ascending, deduplicated across dependencies). Exact dependencies
// (confidence 1) have nothing to repair; dependencies below minConf are
// too unreliable to act on — acting on weak evidence is exactly what §4.2
// warns against.
func ProfileAndRepairRows(t *dataset.Table, minConf float64) ([]DiscoveredFD, int, []int, error) {
	return RepairProfile(t, profileOf(t), minConf)
}

// RepairProfile is ProfileAndRepairRows over a profile the caller
// assembled (Dictionary.Profile) from the Cells of the tables t's rows
// came from. Repaired records are replaced by clones, never written
// through, so t may share its records with those tables.
func RepairProfile(t *dataset.Table, p *Profile, minConf float64) ([]DiscoveredFD, int, []int, error) {
	schema := t.Schema()
	if p.rows != t.Len() || len(p.cols) != len(schema) {
		return nil, 0, nil, fmt.Errorf("quality: profile of %d rows x %d columns for a %d x %d table",
			p.rows, len(p.cols), t.Len(), len(schema))
	}
	changed := 0
	owned := make([]bool, p.rows)
	var used []DiscoveredFD
	// Dependencies are discovered once, on the unrepaired data, and applied
	// in order; each scan reads the ids earlier repairs rewrote.
	for _, fd := range p.discover(schema, minConf, 2) {
		if fd.Confidence >= 1 {
			continue
		}
		n, err := p.repairCFD(t, fd.CFD(), owned)
		if err != nil {
			return used, changed, ownedRows(owned), err
		}
		if n > 0 {
			used = append(used, fd)
			changed += n
		}
	}
	return used, changed, ownedRows(owned), nil
}
