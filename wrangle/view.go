package wrangle

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/serve"
)

// Origin says which reaction path committed a served version.
type Origin = serve.Origin

// The publication origins.
const (
	// OriginRun is a full pipeline run.
	OriginRun = serve.OriginRun
	// OriginFeedback is an incremental feedback reaction.
	OriginFeedback = serve.OriginFeedback
	// OriginRefresh is a source-churn refresh.
	OriginRefresh = serve.OriginRefresh
)

// View is a pinned read handle onto one committed version of the
// session's output: the wrangled table, its report, run/reaction stats,
// per-source snapshot and trust map, all from the same atomic commit.
//
// Obtaining a view is one atomic pointer load — it never takes the
// session lock, so heavy read traffic proceeds full-speed while
// ApplyFeedback or Refresh recompute in the background. Every accessor
// reads the pinned version, so a reader that got a view mid-reaction sees
// a complete, mutually consistent snapshot: the table, stats and trust it
// observes all belong to the same version, never a mixture of old and
// new. The pinned data is copy-on-write — no later reaction mutates it —
// and shared between every reader of that version: treat it as read-only.
type View struct {
	store *core.VersionStore
	v     *core.PublishedVersion
}

// View returns a read handle pinned to the latest committed version. It
// errors only before the first successful Run (nothing has been published
// yet). Call it again (or use Latest) to observe newer versions.
func (s *Session) View() (*View, error) {
	// Lock-free by construction: the store pointer is fixed when the
	// session is built, and Latest is a single atomic load.
	v := s.w.Serve.Latest()
	if v == nil {
		return nil, fmt.Errorf("wrangle: no version published yet — call Run first")
	}
	return &View{store: s.w.Serve, v: v}, nil
}

// Version returns the pinned version's sequence number (1 = first run).
func (v *View) Version() uint64 { return v.v.Seq() }

// Step returns the provenance step that produced the pinned version,
// linking the served snapshot to the lineage that explains it.
func (v *View) Step() uint64 { return v.v.Step() }

// Origin returns which reaction path committed the pinned version.
func (v *View) Origin() Origin { return v.v.Origin() }

// PublishedAt returns the pinned version's commit time.
func (v *View) PublishedAt() time.Time { return v.v.At() }

// Table returns the pinned version's wrangled table (one row per
// entity). The table was frozen at publication and is never mutated
// afterwards; it is shared by every reader of this version, and its rows
// may additionally be shared by pointer with neighbouring versions whose
// shard did not change — treat it as strictly read-only.
func (v *View) Table() *Table { return v.v.Data().Table }

// Report returns the pinned version's prebuilt report over all
// attributes, with supporters resolved against this version's fusion.
func (v *View) Report() *Report { return v.v.Data().Report }

// Stats returns the run statistics stamped onto the pinned version,
// including the per-stage wall-clock attribution (Stats().Stages).
func (v *View) Stats() RunStats { return v.v.Data().Stats }

// React returns the incremental reaction that committed the pinned
// version (zero for run-origin versions).
func (v *View) React() ReactStats { return v.v.Data().React }

// Trust returns the pinned version's per-source trust map (read-only).
func (v *View) Trust() map[string]float64 { return v.v.Data().Trust }

// Sources returns the pinned version's per-source selection, utility and
// quality snapshot (read-only).
func (v *View) Sources() map[string]SourceReport { return v.v.Data().Sources }

// Selected returns the sorted ids of the sources integrated into the
// pinned version's table (read-only).
func (v *View) Selected() []string { return v.v.Data().Selected }

// Changes returns the publisher's summary of what the pinned version
// changed relative to its predecessor — the same ChangeSet the change
// feed (Session.Watch) delivers, retained so a late reader can still
// see the delta. Full when the session could not bound it.
func (v *View) Changes() ChangeSet { return v.v.Changes() }

// Entities returns, for each Table row, the entity id that row
// describes, aligned by index and sorted ascending (rows are
// entity-sorted) — binary-search an id from Changes().ChangedRecords
// straight to its row. Read-only; nil for empty outputs.
func (v *View) Entities() []string { return v.v.Data().Entities }

// At returns a view pinned to the given version number, if it is still
// inside the store's retention window. Pruned or never-published versions
// error.
func (v *View) At(version uint64) (*View, error) {
	pv, err := v.store.At(version)
	if err != nil {
		return nil, fmt.Errorf("wrangle: %w", err)
	}
	return &View{store: v.store, v: pv}, nil
}

// Latest returns a new view pinned to the newest committed version —
// the lock-free way for a long-lived reader to follow publications.
func (v *View) Latest() *View {
	return &View{store: v.store, v: v.store.Latest()}
}

// Versions returns the version numbers currently retained, oldest first.
func (v *View) Versions() []uint64 { return v.store.Versions() }
