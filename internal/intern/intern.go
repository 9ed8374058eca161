// Package intern provides a per-run string interner for the stable
// identifiers the pipeline otherwise rebuilds ad hoc on every tail: the
// "source#idx" row keys that feedback addressing and shard routing share,
// and recurring id strings such as entity names. Interning keeps one
// canonical instance per distinct string across reactions, so a refresh
// that rebuilds the union re-uses last round's keys instead of
// re-formatting them.
package intern

import "strconv"

// Table interns strings for the lifetime of one run (a Wrangler session).
// It is not safe for concurrent use; the pipeline only touches it from
// single-threaded stages (union build, the cluster barrier).
//
// Str's entries are bounded by what is still in use: the caller ends a
// round with Sweep, and a sweep that finds more than half the entries
// unreferenced by the round drops them — the rule the resolver's
// registries follow. Ids derived from content (keyless entity names) are
// retired by churn, and would otherwise stay for the run's lifetime.
type Table struct {
	strs  map[string]int // string -> its entry in ents
	ents  []entry
	round uint32              // the current round, stamped on every entry Str returns
	live  int                 // entries stamped this round
	keys  map[string][]string // source id -> its "source#idx" keys, by idx
}

type entry struct {
	s     string
	round uint32
}

// New returns an empty intern table.
func New() *Table {
	return &Table{
		strs: map[string]int{},
		keys: map[string][]string{},
	}
}

// Str returns the canonical instance of s, registering it on first sight,
// and marks it referenced in the current round.
func (t *Table) Str(s string) string {
	i, ok := t.strs[s]
	if !ok {
		i = len(t.ents)
		t.strs[s] = i
		t.ents = append(t.ents, entry{s: s, round: t.round - 1})
	}
	e := &t.ents[i]
	if e.round != t.round {
		e.round = t.round
		t.live++
	}
	return e.s
}

// Sweep ends the current round. When more than half of Str's entries went
// unreferenced by it, it rebuilds them from the referenced ones, which
// keep their canonical instances. A rebuild costs what it keeps, and the
// next needs as many new entries again, so Str stays amortised O(1).
func (t *Table) Sweep() {
	if len(t.ents) > 2*t.live {
		kept := make([]entry, 0, 2*t.live)
		strs := make(map[string]int, 2*t.live)
		for _, e := range t.ents {
			if e.round == t.round {
				strs[e.s] = len(kept)
				kept = append(kept, e)
			}
		}
		t.ents, t.strs = kept, strs
	}
	t.round++
	t.live = 0
}

// Len returns how many strings Str holds.
func (t *Table) Len() int { return len(t.ents) }

// Key returns the interned "source#idx" row key, formatting each distinct
// key at most once for the table's lifetime. idx must be >= 0.
func (t *Table) Key(source string, idx int) string {
	ks := t.keys[source]
	for len(ks) <= idx {
		ks = append(ks, source+"#"+strconv.Itoa(len(ks)))
	}
	t.keys[source] = ks
	return ks[idx]
}
