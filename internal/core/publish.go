package core

import (
	"fmt"
	"maps"
	"slices"
	"sort"
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
// is one diff against the last publication, copying the small read-side
// maps and a fresh table header, and one atomic swap. The diff is the
// only place that knows what a version changed: it adopts the
// predecessor's record for every entity whose record is Same, lists what
// moved for the change feed (changes) and for the durable log's patch,
// and patches the report. A reaction whose tail handed results on — a
// fuse-only one, every entity kept, or a full one, the entities whose
// groups it took whole — pays only for what it moved here too: the kept
// entities' records not moved are the previous version's already, so the
// row diff finds them shared and writes nothing for them, and the report
// is the kept entities' previous lines, fresh lines for the moved results
// and the new entities, less the gone entities' lines (patchReport).
// Readers (Session.View) hold the committed
// version without any lock and are never torn by the next reaction. Each
// report line's supporter list is the one its claim group prepared:
// shared with the working data and with every other version whose group
// held, so it is read-only for everyone.

// Published is the payload of one committed serve version: every
// read-side artefact of a wrangle, frozen at publication so no later
// reaction (or other reader) can mutate what a reader holds. The table
// is frozen by construction — its rows are immutable records, each
// shared by pointer with neighbouring versions whose record for that
// entity is Same (the delta publication path); the other fields are
// copies, but for Entities, which aliases the working data's immutable
// entity list.
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
// stamped with the provenance step that produced it: the install half of
// the run or reaction that just finished. It diffs against the last
// publication — the rows (diffRows, whose list is the change set) whenever
// there is one, then the report (diffReport), which the durable log writes
// with the rows as a patch — freezes the read-side artefacts, and makes
// them the latest version in one atomic swap. Before the first successful
// run there is nothing to publish.
func (w *Wrangler) publish(origin serve.Origin, react ReactStats) {
	if w.Serve == nil || w.wrangled == nil {
		return
	}
	start := time.Now()
	prev := w.lastPub
	cur := &publication{
		results:  w.results,
		entities: w.rowEntities,
		rows:     w.wrangled.Rows(),
		clusters: w.clusters,
	}
	var dt *delta
	if prev != nil {
		dt = diffRows(prev, cur)
	}
	changes := w.changes(prev, cur, dt)
	table := w.publishTable()
	cur.rows = table.Rows()
	title := publishTitle(origin)
	if cur.report = diffReport(prev, cur, dt, title, w.handed, w.Supporters); cur.report == nil {
		cur.report, dt = report.Build(w, title, nil), nil
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
	v := w.Serve.Publish(pub, w.Prov.Step(), origin, time.Now(), changes)
	cur.seq = v.Seq()
	w.observePublish(origin, react, v)
	if w.log != nil {
		// Durable sessions append the committed version (and everything it
		// changed) to the log; publish-then-append means the log tail is
		// always a coherent committed snapshot.
		w.log.appendVersion(w, v, prev, cur, dt)
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

// diffRows is the row half of the one diff a publication runs. It walks
// cur's rows against prev's entity by entity — both entity-sorted — and
// lists, as positions, cur's rows that are new or not Same and prev's rows
// whose entity is gone. Every other row of cur takes prev's record: cur's
// rows are the live table's fresh slab, which no version holds yet, and a
// record already identical is not written, so a diff against the version
// this slab was published as writes nothing.
func diffRows(prev, cur *publication) *delta {
	dt := &delta{}
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
			switch a, b := cr[i], R[j]; {
			case len(a) > 0 && len(a) == len(b) && &a[0] == &b[0]: // already shared
			case a.Same(b):
				cr[i] = b
			default:
				dt.rows = append(dt.rows, i)
			}
			i++
			j++
		}
	}
	return dt
}

// changes is the version's change set, read off the row half of the
// diff; this is the one statement of its rule. A version is Full, listing
// nothing, when IntegrationShards is 0 (its watchers expect every row),
// when there is no last publication, and when either output is empty.
// Otherwise it lists the entities of dt.rows as changed and of
// dt.goneRows as removed, each on a page: the pages are the n fuse parts'
// entity ranges (fusion.FuseInto), so row i of E is on the page p with
// p·E/n ≤ i < (p+1)·E/n, and a gone entity is on the page of the first
// entity above it, or on the last page. A page nothing is listed on is
// shared.
func (w *Wrangler) changes(prev, cur *publication, dt *delta) serve.ChangeSet {
	if w.IntegrationShards == 0 || prev == nil || len(prev.entities) == 0 || len(cur.entities) == 0 {
		return serve.ChangeSet{Full: true}
	}
	n, e := w.shards(), len(cur.entities)
	changed := make([]bool, n)
	page := func(i int) int { return min(((i+1)*n-1)/e, n-1) } // the largest p with p·E/n ≤ i
	cs := serve.ChangeSet{}
	for _, i := range dt.rows {
		cs.ChangedRecords = append(cs.ChangedRecords, cur.entities[i])
		changed[page(i)] = true
	}
	for _, j := range dt.goneRows {
		i, _ := slices.BinarySearch(cur.entities, prev.entities[j])
		cs.RemovedRecords = append(cs.RemovedRecords, prev.entities[j])
		changed[page(i)] = true
	}
	for p, c := range changed {
		if c {
			cs.ChangedShards = append(cs.ChangedShards, p)
		}
	}
	cs.ChangedPages, cs.SharedPages = len(cs.ChangedShards), n-len(cs.ChangedShards)
	return cs
}

// handOff is what the last merge's fuse parts handed on: the results
// slab they copied from — nil when they fused every group — the spans of
// the merge's results they handed on from it, ascending, and the indices,
// ascending, of handed-on results that moved against it.
type handOff struct {
	from  []fusion.Result
	spans []handSpan
	moved []int
}

// handSpan is a run of n results handed on: the merge's results at, at+1,
// … are from's results from, from+1, ….
type handSpan struct{ at, from, n int }

// handOnSpans joins the entities' handed-on result ranges into spans:
// entity e's results [starts[e], starts[e+1]) are handed on from from[e]
// on, unless from[e] is -1.
func handOnSpans(starts, from []int32) []handSpan {
	var spans []handSpan
	for e := range len(starts) - 1 {
		at, n := int(starts[e]), int(starts[e+1]-starts[e])
		if from[e] < 0 || n == 0 {
			continue
		}
		if k := len(spans) - 1; k >= 0 && spans[k].at+spans[k].n == at && spans[k].from+spans[k].n == int(from[e]) {
			spans[k].n += n
			continue
		}
		spans = append(spans, handSpan{at: at, from: int(from[e]), n: n})
	}
	return spans
}

// diffReport is the report half of the one diff a publication runs: the
// walk of patchReport over prev's report and results against cur's
// results, which adds to dt what it finds. The tail's hand-on (handed)
// counts only where it handed on from prev's very slab. Without a previous
// publication, or when its report does not line up with its results, it
// returns nil, and the caller builds the report whole.
func diffReport(prev, cur *publication, dt *delta, title string, handed handOff, supporters func(int) []string) *report.Report {
	if prev == nil || prev.report == nil {
		return nil
	}
	if P := prev.results; len(P) == 0 || len(handed.from) != len(P) || &handed.from[0] != &P[0] {
		handed = handOff{}
	}
	return patchReport(prev, cur.results, dt, title, handed, supporters)
}

// patchReport walks the results C against prev's key by key — both in
// (entity, attribute) order — and builds C's report on the way. A result
// that held (fusion.Result.Same) whose supporter slice is the very slice
// the previous line holds keeps that line; every other non-null result
// gets a fresh one. It adds to dt the results that did not hold, the lines
// whose supporters moved, and the results that are gone.
//
// A run of results the tail handed on from prev's (handed.spans) that did
// not move keeps its previous lines whole, with no key compared and no
// supporter looked up: each held, and its prepared group — and so its
// supporter slice — is the very one the previous line was written from.
// For the same reason a handed-on result that moved but kept its value (a
// re-voted confidence) takes the previous line's supporters.
// So the report costs what the tail moved: the previous lines of the
// kept entities, fresh lines for the moved results and the new entities,
// less the gone entities' lines. A fuse-only tail, which keeps every
// entity, patches the moved lines into the previous report. It returns
// nil when prev's report does not line up with its results.
func patchReport(prev *publication, C []fusion.Result, dt *delta, title string, handed handOff, supporters func(int) []string) *report.Report {
	P, L := prev.results, prev.report.Lines
	lines := make([]report.Line, 0, len(L))
	spans, moved := handed.spans, handed.moved
	pl := 0 // the previous line of the next non-null previous result
	for i, j := 0, 0; i < len(C) || j < len(P); {
		for len(spans) > 0 && spans[0].at+spans[0].n <= i {
			spans = spans[1:]
		}
		for len(moved) > 0 && moved[0] < i {
			moved = moved[1:]
		}
		// Whether C[i] is the result of P[j]'s very group, handed on.
		handedOn := len(spans) > 0 && spans[0].at <= i && spans[0].from+i-spans[0].at == j
		if handedOn {
			end := spans[0].at + spans[0].n
			if len(moved) > 0 {
				end = min(end, moved[0])
			}
			if end > i {
				// The lines of P[j:k] are those up to P[k-1]'s key, at most
				// one per result.
				k := j + end - i
				last := &P[k-1]
				n := pl + sort.Search(min(k-j, len(L)-pl), func(x int) bool {
					l := &L[pl+x]
					return compareKeys(l.Entity, l.Attribute, last.Entity, last.Attribute) > 0
				})
				lines = append(lines, L[pl:n]...)
				pl, j, i = n, k, end
				continue
			}
		}
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
				return nil
			}
			old = &L[pl]
			pl++
		}
		if c > 0 {
			dt.goneResults = append(dt.goneResults, j)
			j++
			continue
		}
		held := c == 0 && C[i].Same(&P[j])
		if !held {
			dt.results = append(dt.results, i)
		}
		if res := &C[i]; !res.Value.IsNull() {
			var sup []string
			if handedOn && old != nil && res.Value.Same(P[j].Value) {
				// Its group's bucket of the same value: the previous line's.
				sup = old.Supporters
			} else {
				sup = supporters(i)
			}
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
		return nil
	}
	if len(lines) == 0 {
		lines = nil // as report.Build leaves an empty report
	}
	return &report.Report{Title: title, Lines: lines}
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

// sameRecord is dataset.Record.Same, answered at once for one record.
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
// rows are immutable records, and diffRows has just adopted every
// predecessor whose entity fused to the Same record, so it publishes a
// fresh table header whose rows point at those shared records: a version
// shares every unchanged record with its predecessor, making retention
// O(changed record) instead of O(table). The header copy keeps the
// published object distinct from the live w.wrangled, whose slab the
// next diff may write.
func (w *Wrangler) publishTable() *dataset.Table {
	out := dataset.NewTableCap(w.wrangled.Schema().Clone(), w.wrangled.Len())
	for _, r := range w.wrangled.Rows() {
		out.Append(r) // pointer-shared immutable records
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
