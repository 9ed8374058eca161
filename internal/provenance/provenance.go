// Package provenance records where every working-data item came from and
// which components touched it. The paper (§4.2) calls for a uniform
// representation of diverse working data — extraction rules, mappings,
// feedback, quality annotations — "along with their associated quality
// annotations and uncertainties"; provenance records are that common
// spine. A durable session logs them per publish and restores them with
// the snapshot, so the derivation history survives a restart.
package provenance

import (
	"fmt"
	"sort"
	"strings"
	"sync"
)

// Kind classifies working-data artefacts.
type Kind string

// Artefact kinds found in the working-data store.
const (
	KindSource     Kind = "source"     // a raw data source
	KindExtraction Kind = "extraction" // the output of a wrapper on a source
	KindWrapper    Kind = "wrapper"    // an induced wrapper
	KindMatch      Kind = "match"      // a schema match
	KindMapping    Kind = "mapping"    // a generated mapping
	KindCluster    Kind = "cluster"    // an entity-resolution cluster set
	KindFusion     Kind = "fusion"     // a fused (wrangled) dataset
	KindQuality    Kind = "quality"    // a quality analysis result
	KindFeedback   Kind = "feedback"   // a user/crowd feedback item
)

// Ref identifies an artefact: kind plus a stable identifier.
type Ref struct {
	Kind Kind
	ID   string
}

// String renders the ref as "kind:id".
func (r Ref) String() string { return string(r.Kind) + ":" + r.ID }

// Record describes one derivation: an artefact, the component that produced
// it, its direct inputs, and an optional logical timestamp (monotonically
// assigned by the graph).
type Record struct {
	Artefact  Ref
	Component string // e.g. "extract.Induce", "fusion.Fuse"
	Inputs    []Ref
	Step      uint64 // logical time of derivation
	Note      string
}

// Graph is a thread-safe provenance store: one derivation record per
// artefact, pointing at its inputs. Re-registering an artefact replaces
// its derivation (the new record gets a later step).
type Graph struct {
	mu      sync.RWMutex
	records map[Ref]*Record
	step    uint64
}

// NewGraph returns an empty provenance graph.
func NewGraph() *Graph {
	return &Graph{records: make(map[Ref]*Record)}
}

// NewGraphFrom returns an empty graph whose logical clock resumes from
// step. Replacing a graph mid-lifecycle (FullRerun) must not rewind
// time: artefacts stamped with the old graph's steps — published
// snapshot versions in particular — stay strictly older than anything
// the new graph derives.
func NewGraphFrom(step uint64) *Graph {
	g := NewGraph()
	g.step = step
	return g
}

// Put registers (or replaces) the derivation of an artefact.
func (g *Graph) Put(artefact Ref, component string, inputs []Ref, note string) *Record {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.step++
	rec := &Record{Artefact: artefact, Component: component, Inputs: append([]Ref(nil), inputs...), Step: g.step, Note: note}
	g.records[artefact] = rec
	return rec
}

// Step returns the logical time of the most recent derivation — the
// graph's current clock. A served snapshot stamped with this value can be
// traced back to exactly the lineage state that produced it.
func (g *Graph) Step() uint64 {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return g.step
}

// Len returns the number of registered artefacts.
func (g *Graph) Len() int {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return len(g.records)
}

// RecordsSince returns a copy of every derivation record with Step >
// step, sorted by step ascending — the delta a durable log appends per
// publish. Steps are unique (one per Put), so the order is total, and a
// replayed Apply of successive deltas reconstructs the graph exactly:
// a record replaced after `step` shows up once, at its new step, and
// overwrites the stale derivation on apply.
func (g *Graph) RecordsSince(step uint64) []Record {
	g.mu.RLock()
	defer g.mu.RUnlock()
	var out []Record
	for _, rec := range g.records {
		if rec.Step > step {
			cp := *rec
			cp.Inputs = append([]Ref(nil), rec.Inputs...)
			out = append(out, cp)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Step < out[j].Step })
	return out
}

// Apply installs replayed records verbatim — each keeps its recorded
// step, unlike Put which stamps the clock — with the same replacement
// semantics as Put, and advances the clock to cover both the applied
// records and the given floor (the step a restored snapshot was
// published at; a graph reset by FullRerun can sit ahead of its newest
// record). Records must be applied in the order RecordsSince returned
// them so replacements land last.
func (g *Graph) Apply(recs []Record, step uint64) {
	g.mu.Lock()
	defer g.mu.Unlock()
	for _, r := range recs {
		cp := r
		cp.Inputs = append([]Ref(nil), r.Inputs...)
		g.records[r.Artefact] = &cp
		if cp.Step > g.step {
			g.step = cp.Step
		}
	}
	if step > g.step {
		g.step = step
	}
}

// Dump renders every derivation record — artefact, component, inputs,
// step and note — one line each, sorted by artefact ref. The rendering
// is stable: two graphs that recorded the same derivations in the same
// order dump identically, which is what the determinism harness uses to
// assert that a sharded integration derives exactly what a sequential
// one does.
func (g *Graph) Dump() string {
	g.mu.RLock()
	defer g.mu.RUnlock()
	set := make(map[Ref]bool, len(g.records))
	for r := range g.records {
		set[r] = true
	}
	var b strings.Builder
	for _, r := range sortRefs(set) {
		rec := g.records[r]
		ins := make([]string, len(rec.Inputs))
		for i, in := range rec.Inputs {
			ins[i] = in.String()
		}
		fmt.Fprintf(&b, "%s ← %s(%s) @%d %s\n", r, rec.Component, strings.Join(ins, ", "), rec.Step, rec.Note)
	}
	return b.String()
}

func sortRefs(set map[Ref]bool) []Ref {
	out := make([]Ref, 0, len(set))
	for r := range set {
		out = append(out, r)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Kind != out[j].Kind {
			return out[i].Kind < out[j].Kind
		}
		return out[i].ID < out[j].ID
	})
	return out
}
