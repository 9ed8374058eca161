package core

import (
	"fmt"
	"maps"
	"slices"
	"time"

	"repro/internal/dataset"
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
// nothing to publish.
func (w *Wrangler) publish(origin serve.Origin, react ReactStats) {
	if w.Serve == nil || w.wrangled == nil {
		return
	}
	start := time.Now()
	rep := report.Build(w, publishTitle(origin), nil)
	w.observePublishPhase(phaseReport, time.Since(start))
	pub := Published{
		Table:    w.publishTable(),
		Report:   rep,
		Stats:    w.LastStats.Clone(),
		React:    react.Clone(),
		Trust:    maps.Clone(w.trust),
		Sources:  w.Snapshot(),
		Selected: slices.Clone(w.unionIDs), // what the tail integrated; collected once, by buildUnion
		Entities: append([]string(nil), w.rowEntities...),
	}
	v := w.Serve.Publish(pub, w.Prov.Step(), origin, time.Now(), w.lastChange)
	w.observePublish(origin, react, v)
	if w.log != nil {
		// Durable sessions append the committed version (and everything it
		// changed) to the log; publish-then-append means the log tail is
		// always a coherent committed snapshot.
		w.log.appendVersion(w, v)
	}
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
