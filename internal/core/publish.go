package core

import (
	"fmt"
	"maps"
	"math"
	"slices"
	"strings"
	"time"

	"repro/internal/dataset"
	"repro/internal/er"
	"repro/internal/fusion"
	"repro/internal/report"
	"repro/internal/serve"
)

// This file is the write side of the serving layer: at the end of every
// successful run, feedback reaction and refresh, the wrangler publishes a
// copy-on-write snapshot of its read-side artefacts into a versioned
// serve.Store. Publication reuses the pipeline's compute/install split —
// the reaction has already computed the new working data, so publishing
// is copying its small read-side maps, a fresh table header over the
// immutable page records, and one atomic swap. Readers (Session.View)
// hold the committed version without any lock and are never torn by the
// next reaction. The report is built fresh per publication, but each
// line's supporter list is the one its claim group prepared: shared with
// the working data and with every other version whose group held, so it is
// read-only for everyone.

// Published is the payload of one committed serve version: every
// read-side artefact of a wrangle, frozen at publication so no later
// reaction (or other reader) can mutate what a reader holds. The table
// is frozen by construction — its rows are immutable page records, each
// shared by pointer with neighbouring versions whose record for that
// entity is Same (the delta publication path); the other fields are
// copies.
// All fields are frozen once published; treat them as read-only.
type Published struct {
	// Table is the wrangled table, one row per entity.
	Table *dataset.Table
	// Report is the prebuilt Example-5 report over all attributes, with
	// supporters resolved against this version's fusion bookkeeping. Its
	// lines are this version's own; their Supporters slices are shared
	// with the prepared claim groups and with other versions.
	Report *report.Report
	// Stats reports what the last full run touched, including the
	// per-stage wall-clock attribution (RunStats.Stages).
	Stats RunStats
	// React is the incremental reaction that committed this version;
	// zero for run-origin versions.
	React ReactStats
	// Trust is the per-source trust map of the fusion behind Table.
	Trust map[string]float64
	// Sources is the per-source selection, utility and quality snapshot.
	Sources map[string]SourceReport
	// Selected is the sorted list of source ids integrated into Table.
	Selected []string
	// Entities holds, for each Table row, the entity id that row
	// describes, aligned by index. Rows are entity-sorted, so a
	// change-feed consumer can binary-search an entity id from a
	// version's ChangedRecords straight to its row. Nil when the
	// pipeline did not track entity ids (empty output).
	Entities []string
}

// VersionStore is the concrete serve store a wrangler publishes into.
type VersionStore = serve.Store[Published]

// PublishedVersion is one committed version of a wrangler's output.
type PublishedVersion = serve.Version[Published]

// NewVersionStore creates a snapshot store retaining the given number of
// versions (< 1 = serve.DefaultRetain).
func NewVersionStore(retain int) *VersionStore {
	return serve.NewStore[Published](retain)
}

// publish commits the current working data as a new serve version,
// stamped with the provenance step that produced it. The compute half
// already happened (the run or reaction that just finished); this is the
// install half: freeze the read-side artefacts, then one atomic swap
// makes them the latest version. Before the first successful run there is
// nothing to publish. The report is patched from the last publication's
// by the one diff a publication runs (diffPublication), which the durable
// log then writes as a patch against the version it logged last.
func (w *Wrangler) publish(origin serve.Origin, react ReactStats) {
	if w.Serve == nil || w.wrangled == nil {
		return
	}
	table := w.publishTable()
	start := time.Now()
	cur := &publication{
		results:  w.results,
		entities: append([]string(nil), w.rowEntities...),
		rows:     table.Rows(),
		clusters: w.clusters,
	}
	title := publishTitle(origin)
	var dt *delta
	cur.report, dt = diffPublication(w.lastPub, cur, title, w.Supporters)
	if cur.report == nil {
		cur.report = report.Build(w, title, nil)
	}
	w.observePublishPhase(phaseReport, time.Since(start))
	pub := Published{
		Table:    table,
		Report:   cur.report,
		Stats:    w.LastStats.Clone(),
		React:    react.Clone(),
		Trust:    maps.Clone(w.trust),
		Sources:  w.Snapshot(),
		Selected: slices.Clone(w.unionIDs), // what the tail integrated; collected once, by buildUnion
		Entities: cur.entities,
	}
	v := w.Serve.Publish(pub, w.Prov.Step(), origin, time.Now(), w.lastChange)
	cur.seq = v.Seq()
	w.observePublish(origin, react, v)
	if w.log != nil {
		// Durable sessions append the committed version (and everything it
		// changed) to the log; publish-then-append means the log tail is
		// always a coherent committed snapshot.
		w.log.appendVersion(w, v, w.lastPub, cur, dt)
	}
	w.lastPub = cur
}

// publication is what one publish committed, kept as the base the next
// publication diffs against: its seq, results slab, table rows with the
// entity of each, report and clustering. Everything in it is frozen. A
// restore sets it to the version it restored.
type publication struct {
	seq      uint64
	results  []fusion.Result
	entities []string
	rows     []dataset.Record
	report   *report.Report
	clusters *er.Clustering
}

// delta is what moved between two publications, as positions: in the
// current publication's rows and results the ones that are new or
// changed, in the previous one's the ones whose key is gone, and the
// current report lines whose supporters are new or differ from the
// previous line's. The rest of a line is its result's, so the lines need
// no list of their own.
type delta struct {
	rows, goneRows       []int
	results, goneResults []int
	supporters           []int
}

// diffPublication is the one diff a publication runs. It walks cur's
// results against prev's key by key — both in (entity, attribute) order —
// and builds cur's report on the way: a result that held (sameResult)
// whose supporter slice is the very slice the previous line holds keeps
// that line; every other non-null result gets a fresh one. It then walks
// the rows entity by entity. The delta lists the results that did not
// hold, the records that are not Same, the lines whose supporters moved,
// and what is gone. Without a previous publication, or when its report
// does not line up with its results, it returns a nil report and delta,
// and the caller builds the report whole.
func diffPublication(prev, cur *publication, title string, supporters func(int) []string) (*report.Report, *delta) {
	if prev == nil || prev.report == nil {
		return nil, nil
	}
	dt := &delta{}
	P, C, L := prev.results, cur.results, prev.report.Lines
	lines := make([]report.Line, 0, len(L))
	pl := 0 // the previous line of the next non-null previous result
	for i, j := 0, 0; i < len(C) || j < len(P); {
		c := -1 // C[i] against P[j]: below 0 a new key, above 0 a gone one
		switch {
		case i == len(C):
			c = 1
		case j < len(P):
			c = compareKeys(C[i].Entity, C[i].Attribute, P[j].Entity, P[j].Attribute)
		}
		var old *report.Line
		if c >= 0 && !P[j].Value.IsNull() {
			if pl == len(L) || L[pl].Entity != P[j].Entity || L[pl].Attribute != P[j].Attribute {
				return nil, nil
			}
			old = &L[pl]
			pl++
		}
		if c > 0 {
			dt.goneResults = append(dt.goneResults, j)
			j++
			continue
		}
		held := c == 0 && sameResult(&C[i], &P[j])
		if !held {
			dt.results = append(dt.results, i)
		}
		if res := &C[i]; !res.Value.IsNull() {
			sup := supporters(i)
			switch {
			case held && sameSlice(old.Supporters, sup):
				lines = append(lines, *old)
			case old == nil || !slices.Equal(old.Supporters, sup):
				dt.supporters = append(dt.supporters, len(lines))
				fallthrough
			default:
				lines = append(lines, resultLine(res, sup))
			}
		}
		i++
		if c == 0 {
			j++
		}
	}
	if pl != len(L) {
		return nil, nil
	}
	if len(lines) == 0 {
		lines = nil // as report.Build leaves an empty report
	}

	E, R, ce, cr := prev.entities, prev.rows, cur.entities, cur.rows
	for i, j := 0, 0; i < len(ce) || j < len(E); {
		switch {
		case i == len(ce) || j < len(E) && E[j] < ce[i]:
			dt.goneRows = append(dt.goneRows, j)
			j++
		case j == len(E) || ce[i] < E[j]:
			dt.rows = append(dt.rows, i)
			i++
		default:
			if !sameRecord(cr[i], R[j]) {
				dt.rows = append(dt.rows, i)
			}
			i++
			j++
		}
	}
	return &report.Report{Title: title, Lines: lines}, dt
}

// resultLine is a result's report line, as report.Build writes it.
func resultLine(res *fusion.Result, supporters []string) report.Line {
	return report.Line{Entity: res.Entity, Attribute: res.Attribute, Value: res.Value.String(),
		Confidence: res.Confidence, Conflict: res.Conflict, Supporters: supporters}
}

// compareKeys orders (entity, attribute) keys: results, report lines and
// their patches all follow it.
func compareKeys(entityA, attrA, entityB, attrB string) int {
	if c := strings.Compare(entityA, entityB); c != 0 {
		return c
	}
	return strings.Compare(attrA, attrB)
}

// sameResult is the rule that decides a result unchanged: the same value
// (dataset.Value.Same), the same Confidence bits, Support and Conflict.
func sameResult(a, b *fusion.Result) bool {
	return math.Float64bits(a.Confidence) == math.Float64bits(b.Confidence) && a.Support == b.Support &&
		a.Conflict == b.Conflict && a.Value.Same(b.Value)
}

// sameRecord is dataset.Record.Same, answered at once for a record the
// merge adopted from the predecessor.
func sameRecord(a, b dataset.Record) bool {
	return len(a) > 0 && len(a) == len(b) && &a[0] == &b[0] || a.Same(b)
}

// sameSlice reports whether a and b are one slice: the same length over
// the same backing array, or both nil.
func sameSlice(a, b []string) bool {
	if len(a) != len(b) || (a == nil) != (b == nil) {
		return false
	}
	return len(a) == 0 || &a[0] == &b[0]
}

// publishTitles precomputes the report title per known origin: publish is
// on the per-reaction hot path (counted by the wrangle_publish metrics),
// and the origin set is three values — formatting the same title on every
// publish was pure churn.
var publishTitles = map[serve.Origin]string{
	serve.OriginRun:      "wrangled (" + string(serve.OriginRun) + ")",
	serve.OriginFeedback: "wrangled (" + string(serve.OriginFeedback) + ")",
	serve.OriginRefresh:  "wrangled (" + string(serve.OriginRefresh) + ")",
}

// publishTitle returns the precomputed title for a known origin, falling
// back to formatting for any future origin value.
func publishTitle(origin serve.Origin) string {
	if t, ok := publishTitles[origin]; ok {
		return t
	}
	return fmt.Sprintf("wrangled (%s)", origin)
}

// publishTable hands the next version its table. The wrangled table's
// rows are immutable page records — never written once the
// merge has adopted, record by record, every predecessor whose entity
// fused to the Same record — so it publishes a fresh table header whose
// rows point at those shared records: a version shares every unchanged
// record with its predecessor, making retention O(changed record)
// instead of O(table). The header copy keeps the published object
// distinct from the live w.wrangled, so even an in-place reorder of the
// live table could not disturb committed versions.
func (w *Wrangler) publishTable() *dataset.Table {
	out := dataset.NewTable(w.wrangled.Schema().Clone())
	for _, r := range w.wrangled.Rows() {
		out.Append(r) // pointer-shared immutable page records
	}
	return out
}

// Clone deep-copies the stats' reference fields, insulating the copy
// from later runs mutating the originals in place (published versions
// and API callers both rely on this).
func (s RunStats) Clone() RunStats {
	s.Reextracted = append([]string(nil), s.Reextracted...)
	s.Failures = maps.Clone(s.Failures)
	s.Stages = maps.Clone(s.Stages)
	return s
}

// Clone deep-copies the reaction stats' reference fields.
func (s ReactStats) Clone() ReactStats {
	s.Stages = maps.Clone(s.Stages)
	return s
}
