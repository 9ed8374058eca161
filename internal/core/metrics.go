package core

import (
	"errors"
	"time"

	"repro/internal/engine"
	"repro/internal/fusion"
	"repro/internal/obs"
	"repro/internal/serve"
)

// Metric name catalogue (core pipeline). Everything below the facade
// shares one registry; the serve store and WAL register their own
// families (see serve.Store.Instrument, wal.Log.Instrument).
const (
	mReactions      = "wrangle_reactions_total"
	mStageSeconds   = "wrangle_stage_seconds"
	mReactSeconds   = "wrangle_reaction_seconds"
	mTaskSeconds    = "wrangle_task_seconds"
	mTasks          = "wrangle_engine_tasks_total"
	mTaskPanics     = "wrangle_engine_task_panics_total"
	mSourceFailures = "wrangle_source_failures_total"
	mShardsResolved = "wrangle_shards_resolved_total"
	mShardsReused   = "wrangle_shards_reused_total"
	mReuseRatio     = "wrangle_shard_reuse_ratio"
	mPublishFull    = "wrangle_publish_full_total"
	mPublishDelta   = "wrangle_publish_delta_total"
	mChangedPages   = "wrangle_publish_changed_pages_total"
	mSharedPages    = "wrangle_publish_shared_pages_total"
	mChangedRecords = "wrangle_publish_changed_records_total"
	mRemovedRecords = "wrangle_publish_removed_records_total"
	mPublishSeconds = "wrangle_publish_seconds"
	mRows           = "wrangle_rows"
	mVersion        = "wrangle_version"
	mReplayTrunc    = "wrangle_wal_replay_truncations_total"
	mWALVersions    = "wrangle_wal_versions_total"
	mWALChain       = "wrangle_wal_patch_chain"
	mTrustComps     = "wrangle_trust_components"
	mTrustIters     = "wrangle_trust_component_iterations"
	mTrustContested = "wrangle_trust_contested_groups"
	mTrustLayouts   = "wrangle_trust_layout_builds_total"
	mFuseGroups     = "wrangle_fuse_groups"
	mDerivedRows    = "wrangle_derived_rows"
)

// trustIterBuckets bounds the per-component fixpoint iteration histogram:
// the TruthFinder iteration cap defaults to 10, so the interesting signal
// is how far below it the per-component delta break lands.
func trustIterBuckets() []float64 { return []float64{1, 2, 3, 4, 6, 8, 10, 15} }

// pipelineMetrics holds the pre-resolved handles the hot paths bump.
// Per-label-value handles (stage/origin histograms) are resolved through
// the registry at publish time — a few mutex-guarded map lookups per
// reaction, nothing per row.
type pipelineMetrics struct {
	reg            *obs.Registry
	tasks          *obs.Counter
	taskPanics     *obs.Counter
	sourceFailures *obs.Counter
	shardsResolved *obs.Counter
	shardsReused   *obs.Counter
	reuseRatio     *obs.Gauge
	publishFull    *obs.Counter
	publishDelta   *obs.Counter
	changedPages   *obs.Counter
	sharedPages    *obs.Counter
	changedRecords *obs.Counter
	removedRecords *obs.Counter
	rows           *obs.Gauge
	version        *obs.Gauge
	trustComps     *obs.Gauge
	trustContested *obs.Gauge
	trustLayouts   *obs.Counter
	fuseRevoted    *obs.Gauge
	fuseTrustFree  *obs.Gauge
	derivedRows    *obs.Gauge
}

// SetMetrics enables telemetry on the wrangler: pipeline counters and
// stage histograms, the serve store's read/watch metrics, and — for
// durable sessions — the WAL's append/fsync/compaction counters. Call it
// once, after construction (and after AttachDurableLog for durable
// sessions), before the wrangler is used concurrently. A nil registry is
// a no-op; with no registry set every instrumentation site is a single
// nil check.
func (w *Wrangler) SetMetrics(reg *obs.Registry) {
	if reg == nil {
		return
	}
	m := &pipelineMetrics{
		reg:            reg,
		tasks:          reg.Counter(mTasks),
		taskPanics:     reg.Counter(mTaskPanics),
		sourceFailures: reg.Counter(mSourceFailures),
		shardsResolved: reg.Counter(mShardsResolved),
		shardsReused:   reg.Counter(mShardsReused),
		reuseRatio:     reg.Gauge(mReuseRatio),
		publishFull:    reg.Counter(mPublishFull),
		publishDelta:   reg.Counter(mPublishDelta),
		changedPages:   reg.Counter(mChangedPages),
		sharedPages:    reg.Counter(mSharedPages),
		changedRecords: reg.Counter(mChangedRecords),
		removedRecords: reg.Counter(mRemovedRecords),
		rows:           reg.Gauge(mRows),
		version:        reg.Gauge(mVersion),
		trustComps:     reg.Gauge(mTrustComps),
		trustContested: reg.Gauge(mTrustContested),
		trustLayouts:   reg.Counter(mTrustLayouts),
		fuseRevoted:    reg.Gauge(mFuseGroups, "kind", "revoted"),
		fuseTrustFree:  reg.Gauge(mFuseGroups, "kind", "trust_free"),
		derivedRows:    reg.Gauge(mDerivedRows),
	}
	reg.Histogram(mTrustIters, trustIterBuckets())
	reg.Help(mTasks, "Engine DAG tasks completed (all graphs).")
	reg.Help(mTaskPanics, "Engine tasks that ended in a recovered panic.")
	reg.Help(mSourceFailures, "Per-source wrangling failures (source skipped, run continued).")
	reg.Help(mShardsResolved, "Integration shards recomputed by reactions.")
	reg.Help(mShardsReused, "Integration shards reused by-reference by reactions.")
	reg.Help(mReuseRatio, "Reused/(resolved+reused) shards of the last reaction tail.")
	reg.Help(mTrustComps, "Trust-coupled components in the last tail's trust estimation.")
	reg.Help(mTrustIters, "Fixpoint iterations per trust component.")
	reg.Help(mTrustContested, "Claim groups the last tail's trust fixpoint re-voted on every iteration (more than one value bucket).")
	reg.Help(mTrustLayouts, "Trust fixpoint layouts built; a fuse-only reaction reuses its claim groups' layout and builds none.")
	reg.Help(mFuseGroups, "Claim groups of the last tail's fuse, by kind: revoted (voted under trust) or trust_free (one bucket, or no claim, fused without a vote).")
	reg.Help(mPublishSeconds, "Publication wall time after a reaction's stats stop, by phase: report build, log append and commit, compaction.")
	reg.Help(mDerivedRows, "Source rows whose per-record derivations (FD cells, resolver features) are held; they die with their source generation.")
	w.met = m
	if w.Serve != nil {
		w.Serve.Instrument(reg)
	}
	if w.log != nil {
		w.log.instrument(reg)
	}
}

// Metrics returns the wrangler's registry, nil when telemetry is off.
func (w *Wrangler) Metrics() *obs.Registry {
	if w.met == nil {
		return nil
	}
	return w.met.reg
}

// instrumentGraph installs a task observer on g recording per-task spans
// (wrangle_task_seconds{stage}), task counts, and panic counts. The
// observer runs on the graph's scheduler goroutine; a wrangler runs one
// graph at a time (the session lock serializes writers), so the registry
// lookups race with nothing but scrapes, which the registry tolerates.
func (w *Wrangler) instrumentGraph(g *engine.Graph) {
	m := w.met
	if m == nil {
		return
	}
	g.Observe(func(id string, d time.Duration, err error) {
		m.tasks.Inc()
		if err != nil {
			var pe *engine.PanicError
			if errors.As(err, &pe) {
				m.taskPanics.Inc()
			}
		}
		stage, _ := stageOf(id)
		m.reg.Histogram(mTaskSeconds, obs.DurationBuckets(), "stage", stage).Observe(d.Seconds())
	})
}

// observePublish records one committed version's telemetry: the reaction
// count and duration by origin, per-stage durations, shard reuse, the
// shape of the tail's trust estimation (ts), and the publication's delta
// shape. Called from publish() after the store committed v.
func (w *Wrangler) observePublish(origin serve.Origin, react ReactStats, ts fusion.TrustStats, v *PublishedVersion) {
	m := w.met
	if m == nil {
		return
	}
	o := string(origin)
	m.reg.Counter(mReactions, "origin", o).Inc()
	stages := react.Stages
	dur := react.Duration
	if origin == serve.OriginRun {
		stages = w.LastStats.Stages
		dur = w.LastStats.Duration
	}
	for stage, d := range stages {
		m.reg.Histogram(mStageSeconds, obs.DurationBuckets(), "origin", o, "stage", stage).Observe(d.Seconds())
	}
	m.reg.Histogram(mReactSeconds, obs.DurationBuckets(), "origin", o).Observe(dur.Seconds())
	if origin != serve.OriginRun {
		// Set on every reaction, 0 when no shard ran (an emptied union):
		// the last tail's ratio must not stand for a tail that ran none.
		resolved, reused := react.ShardsResolved, react.ShardsReused
		m.shardsResolved.Add(int64(resolved))
		m.shardsReused.Add(int64(reused))
		ratio := 0.0
		if resolved+reused > 0 {
			ratio = float64(reused) / float64(resolved+reused)
		}
		m.reuseRatio.Set(ratio)
	}
	// ts describes exactly the tail this publication came from, for run
	// and reaction origins alike.
	if ts.LayoutBuilt {
		m.trustLayouts.Inc()
	}
	// The gauges are set on every publication, 0 included: a tail that ran
	// no fixpoint (an emptied union, another policy) must not leave the
	// last fixpoint's shape standing.
	m.trustComps.Set(float64(ts.Components))
	m.trustContested.Set(float64(ts.Contested))
	m.fuseRevoted.Set(float64(ts.FuseRevoted))
	m.fuseTrustFree.Set(float64(ts.GroupsKept + ts.GroupsPrepared - ts.FuseRevoted))
	if ts.Components > 0 {
		h := m.reg.Histogram(mTrustIters, trustIterBuckets())
		for _, it := range ts.Iterations {
			h.Observe(float64(it))
		}
	}
	cs := v.Changes()
	if cs.Full {
		m.publishFull.Inc()
	} else {
		m.publishDelta.Inc()
		m.changedPages.Add(int64(cs.ChangedPages))
		m.sharedPages.Add(int64(cs.SharedPages))
		m.changedRecords.Add(int64(len(cs.ChangedRecords)))
		m.removedRecords.Add(int64(len(cs.RemovedRecords)))
	}
	m.rows.Set(float64(w.tail.wrangled.Len()))
	m.version.Set(float64(v.Seq()))
	m.derivedRows.Set(float64(w.derivedRows()))
}

// Publication phases, the values of wrangle_publish_seconds' phase label.
const (
	phaseReport  = "report"
	phaseLog     = "log"
	phaseCompact = "compact"
)

// observePublishPhase records the wall time one publication spent in one
// phase — time no ReactStats stage reports, because the stats are frozen
// into the version before it is built and logged.
func (w *Wrangler) observePublishPhase(phase string, d time.Duration) {
	if m := w.met; m != nil {
		m.reg.Histogram(mPublishSeconds, obs.DurationBuckets(), "phase", phase).Observe(d.Seconds())
	}
}

// derivedRows counts the source rows whose derivations the working data
// currently holds — one generation per source, so it tracks the universe's
// size, not the number of refreshes.
func (w *Wrangler) derivedRows() int {
	n := 0
	for _, st := range w.states {
		if st.feats != nil {
			n += st.feats.Len()
		}
	}
	return n
}
