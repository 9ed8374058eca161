package core

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"time"

	"repro/internal/engine"
	"repro/internal/feedback"
	"repro/internal/provenance"
	"repro/internal/serve"
	"repro/internal/sources"
)

// This file implements the incremental, pay-as-you-go reaction paths: the
// paper requires that "feedback-induced reactions do not trigger a
// re-processing of all datasets involved in the computation but rather
// limit the processing to the strictly necessary data" (§2.4). The
// provenance graph decides what is affected; everything else is reused
// from the working-data store.

// ReactStats reports the scope of an incremental reaction, for comparison
// against a full rerun (experiment E10).
type ReactStats struct {
	FeedbackItems      int
	SourcesReextracted int
	Remapped           int
	Reclustered        bool
	Refused            bool
	// ShardsResolved and ShardsReused report the dirty-shard split of the
	// integration tail: how many shards re-resolved their clusters versus
	// reused them by reference. A refresh that touched one source
	// typically resolves one shard and reuses the rest; a default session
	// (one shard) reports 1 and 0, or 0 and 1 when nothing it clusters
	// moved. Both are zero when no tail ran.
	ShardsResolved int
	ShardsReused   int
	// TrustComponents is how many trust-coupled connected components the
	// reaction's trust estimation split the claim set into; every one of
	// them iterates. Zero when no trust fixpoint ran (non-TruthFinder
	// policy, empty tail).
	TrustComponents int
	// TrustGroupsKept and TrustGroupsPrepared split the reaction's
	// (entity, attribute) claim groups into those whose prepared state
	// carried over from the previous tail — every group of a fuse-only
	// reaction — and those the trust stage prepared afresh, under every
	// policy, for the fixpoint and the fuse alike (fusion.TrustStats).
	TrustGroupsKept, TrustGroupsPrepared int
	// FuseRevoted counts the claim groups the reaction's fuse voted under
	// trust: those with more than one value bucket, or every group with a
	// non-null claim under FreshnessWeighted (or a trust near MaxFloat64).
	// Every other group fused without a vote (fusion.TrustStats).
	FuseRevoted int
	Duration    time.Duration
	// Stages attributes the reaction's wall clock: "reextract" covers the
	// per-source re-extraction fan-out and "integrate" the whole
	// integration tail, which is further split by DAG stage — "replan"
	// (union build + shard planning or incremental re-plan), "resolve",
	// "trust" (cluster barrier + trust estimation), "fuse", "merge" — so
	// published versions attribute exactly where a partial reaction
	// saved its time. A fuse-only reaction (value feedback) reports only
	// "trust", "fuse" and "merge" under "integrate". A full tail also
	// names the steps of its front half, "replan.union",
	// "replan.fd_repair", "replan.prepare" and "replan.plan", and every
	// tail those of its trust stage, "trust.name", "trust.claims" and
	// "trust.layout" (all zero on a fuse-only reaction, which renames,
	// regroups and lays out nothing), "trust.prepare" and "trust.fixpoint"
	// (see RunStats.Stages). The first reaction after a
	// durable restore also names "restore": the working-state rebuild the
	// restore deferred to it, counted in Duration and not in "integrate".
	// Absent stages did not run.
	Stages map[string]time.Duration
}

// ReactToFeedback consumes feedback added since the last reaction and
// recomputes only the affected stages:
//
//   - wrapper_broken → re-extract that source, then re-map it, then
//     recluster + refuse (the downstream chain from the provenance graph);
//   - duplicate / not_duplicate → re-learn the resolver, recluster, refuse;
//   - value feedback → recompute source trust, refuse only;
//   - relevance feedback → re-select sources; integrate if selection moved.
//
// Extractions, mappings and scorecards of untouched sources are reused.
func (w *Wrangler) ReactToFeedback() (ReactStats, error) {
	return w.ReactToFeedbackContext(context.Background())
}

// ReactToFeedbackContext is ReactToFeedback with cooperative cancellation
// between per-source re-extractions.
func (w *Wrangler) ReactToFeedbackContext(ctx context.Context) (ReactStats, error) {
	start := time.Now()
	restored, err := w.resume()
	if err != nil {
		return ReactStats{}, err
	}
	items := w.Feedback.Since(w.lastSeq)
	stats := ReactStats{FeedbackItems: len(items)}
	if len(items) == 0 {
		return stats, nil
	}
	// lastSeq only advances once the reaction completes: a cancelled or
	// failed reaction leaves the items pending, so a retry re-reacts
	// instead of silently dropping them.
	last := items[len(items)-1].Seq

	// The reaction planner decides the scope; this method only supplies
	// the feedback-path policies (fatal install errors, reinduced
	// wrappers, the lastSeq advance).
	reextract, reselect, scope, tail := planReaction(items)
	// Wrapper-feedback re-extractions are independent per source, so they
	// fan out on the engine like a run's extraction stage; outcomes merge
	// in sorted source order so the reaction stays deterministic. The
	// stored wrapper is discarded (reinduce): the feedback says it is
	// broken, so repair alone is not enough.
	ids := make([]string, 0, len(reextract))
	for id := range reextract {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	// Invalidate the flagged wrappers up front: even if this reaction
	// fails or is cancelled, a wrapper the user reported broken must not
	// be reused by a later run or refresh.
	for _, id := range ids {
		if st, ok := w.states[id]; ok {
			st.wrapper = nil
		}
	}
	stats.Stages = map[string]time.Duration{}
	recordRestore(stats.Stages, restored)
	exStart := time.Now()
	outcomes, err := w.computeSources(ctx, ids, w.Provider.Lookup, true)
	if err != nil {
		return stats, err
	}
	for _, o := range outcomes {
		if o == nil {
			continue // unknown source id: nothing to re-extract
		}
		if err := w.installOutcome(o); err != nil {
			return stats, fmt.Errorf("core: react re-extract %s: %w", o.id, err)
		}
		stats.SourcesReextracted++
		stats.Remapped++
		scope, tail = tailFull, true
	}
	if len(ids) > 0 {
		stats.Stages["reextract"] = time.Since(exStart)
	}
	if err := ctx.Err(); err != nil {
		return stats, err
	}
	if reselect {
		w.selectSources()
		scope, tail = tailFull, true
	}
	if tail {
		if err := w.runTail(ctx, scope, &stats); err != nil {
			return stats, err
		}
		stats.Refused = true
		stats.Reclustered = scope == tailFull
	}
	w.lastSeq = last
	stats.Duration = time.Since(start)
	if stats.SourcesReextracted > 0 || stats.Reclustered || stats.Refused {
		// Something recomputed: commit the new working data as a serve
		// version. Feedback that changed nothing publishes nothing.
		w.publish(serve.OriginFeedback, stats)
	}
	return stats, nil
}

// RefreshSource handles source churn (Velocity): the provider re-acquires
// the source, and only that source's extraction chain plus the shared
// integration tail is recomputed. The returned ReactStats reports the
// recomputation scope.
func (w *Wrangler) RefreshSource(id string) (ReactStats, error) {
	return w.RefreshSourcesContext(context.Background(), []string{id})
}

// RefreshSourceContext is RefreshSource with cooperative cancellation
// between the re-extraction and the integration tail.
func (w *Wrangler) RefreshSourceContext(ctx context.Context, id string) (ReactStats, error) {
	return w.RefreshSourcesContext(ctx, []string{id})
}

// computeSources re-processes the named sources through the engine:
// acquire turns an id into a source (Lookup for reactions, Refresh for
// churn), then the expensive extract/match/map chains fan out over the
// wrangler's worker bound. Acquisition is serial by default — providers
// may mutate shared state when re-acquiring — but a provider that opts
// into the sources.ConcurrentProvider contract acquires inside the
// engine fan-out too, overlapping network- or disk-bound re-acquisition
// with extraction. Duplicate ids then share one acquisition and one
// outcome (providers only promise distinct-id safety); the serial path
// acquires duplicates repeatedly but deterministically, so both paths
// install identical states. reinduce discards stored wrappers (the
// wrapper_broken reaction); otherwise they are reused and repaired. The
// returned outcomes are in ids order (nil where acquire returned no
// source), ready for an in-order merge.
func (w *Wrangler) computeSources(ctx context.Context, ids []string, acquire func(string) *sources.Source, reinduce bool) ([]*sourceOutcome, error) {
	type job struct {
		id   string
		src  *sources.Source
		prev *sourceState
	}
	if cp, ok := w.Provider.(sources.ConcurrentProvider); ok && cp.ConcurrentAcquire() {
		// One job per distinct id, acquisition deferred into the worker.
		// prev states are snapshotted up front: installs only happen after
		// the whole fan-out, so every duplicate sees the same baseline.
		uniq := make([]*job, 0, len(ids))
		jobOf := make(map[string]*job, len(ids))
		for _, id := range ids {
			if _, dup := jobOf[id]; dup {
				continue
			}
			j := &job{id: id, prev: w.states[id]}
			jobOf[id] = j
			uniq = append(uniq, j)
		}
		done, err := engine.MapSlice(ctx, w.workers(), uniq, func(_ context.Context, j *job) (*sourceOutcome, error) {
			if s := acquire(j.id); s != nil {
				return w.computeSource(s, j.prev, reinduce), nil
			}
			return nil, nil
		})
		if err != nil {
			return nil, err
		}
		byID := make(map[string]*sourceOutcome, len(uniq))
		for i, j := range uniq {
			byID[j.id] = done[i]
		}
		out := make([]*sourceOutcome, len(ids))
		for i, id := range ids {
			out[i] = byID[id]
		}
		return out, nil
	}
	jobs := make([]*job, len(ids))
	for i, id := range ids {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if s := acquire(id); s != nil {
			jobs[i] = &job{src: s, prev: w.states[id]}
		}
	}
	return engine.MapSlice(ctx, w.workers(), jobs, func(_ context.Context, j *job) (*sourceOutcome, error) {
		if j == nil {
			return nil, nil
		}
		return w.computeSource(j.src, j.prev, reinduce), nil
	})
}

// RefreshSourcesContext refreshes a batch of sources and recomputes the
// shared integration tail once — not once per source, which is the
// expensive part of a refresh. Re-acquisition is serial (the provider may
// mutate shared state), the per-source extraction chains run on the
// engine, and outcomes merge in batch order. Per-source failures are
// best-effort (like Run): the failing source keeps its previous working
// data, the rest of the batch and the integration tail still run, and the
// collected errors are returned alongside the stats of what did happen.
// Only cancellation aborts the batch.
func (w *Wrangler) RefreshSourcesContext(ctx context.Context, ids []string) (ReactStats, error) {
	start := time.Now()
	stats := ReactStats{Stages: map[string]time.Duration{}}
	restored, err := w.resume()
	if err != nil {
		return stats, err
	}
	recordRestore(stats.Stages, restored)
	exStart := time.Now()
	var errs []error
	outcomes, err := w.computeSources(ctx, ids, w.Provider.Refresh, false)
	if err != nil {
		return stats, err
	}
	for i, o := range outcomes {
		if o == nil {
			errs = append(errs, fmt.Errorf("core: unknown source %q", ids[i]))
			continue
		}
		if err := w.installOutcome(o); err != nil {
			errs = append(errs, fmt.Errorf("core: refresh %s: %w", o.id, err))
			continue
		}
		stats.SourcesReextracted++
		stats.Remapped++
	}
	stats.Stages["reextract"] = time.Since(exStart)
	if err := ctx.Err(); err != nil {
		return stats, err
	}
	if stats.SourcesReextracted == 0 && len(errs) > 0 {
		// Nothing was re-acquired; the working data is unchanged and the
		// integration tail has nothing new to fold in.
		return stats, errors.Join(errs...)
	}
	if err := w.runTail(ctx, tailFull, &stats); err != nil {
		errs = append(errs, err)
		return stats, errors.Join(errs...)
	}
	stats.Reclustered = true
	stats.Refused = true
	stats.Duration = time.Since(start)
	// Best-effort contract: the tail recomputed, so the new working data
	// is committed as a serve version even when individual sources failed
	// (they kept their previous good data).
	w.publish(serve.OriginRefresh, stats)
	return stats, errors.Join(errs...)
}

// FullRerun discards all working data derived from the sources and
// recomputes the pipeline from scratch — the classical-ETL behaviour E10
// compares against. It keeps what the session learned: feedback, the
// resolver's registries, and each source's induced HTML wrapper, which
// the rerun repairs against the current page exactly as a refresh does
// (extract.Repair) instead of inducing it afresh. A wrapper is state, not
// a derivation: induced on a page whose template has since drifted, a
// fresh wrapper can read other fields than the repaired one, so a rerun
// that re-induced would not serve what the session serves.
func (w *Wrangler) FullRerun() (ReactStats, error) {
	start := time.Now()
	// A deferred restore rebuilds first: what the rerun keeps — the
	// feedback watermark, the resolver's carried registries, the wrappers
	// — is state the restore installs.
	if _, err := w.resume(); err != nil {
		return ReactStats{}, err
	}
	learned := map[string]*sourceState{}
	for id, st := range w.states {
		if st.wrapper != nil {
			learned[id] = &sourceState{wrapper: st.wrapper}
		}
	}
	w.states = map[string]*sourceState{}
	w.memo = nil // discarded working data: nothing left to diff against
	// Nor to hand results on from: the rerun fuses every group, so it stays
	// the reference a reaction's hand-on is checked against.
	w.freeFused = nil
	// The derivations are discarded but the logical clock is not rewound:
	// versions the serve store already committed keep steps strictly below
	// everything the rerun publishes.
	w.Prov = provenance.NewGraphFrom(w.Prov.Step())
	if _, err := w.run(context.Background(), learned); err != nil {
		return ReactStats{}, err
	}
	return ReactStats{
		SourcesReextracted: w.LastStats.SourcesProcessed,
		Remapped:           w.LastStats.SourcesProcessed,
		Reclustered:        true,
		Refused:            true,
		Duration:           time.Since(start),
	}, nil
}

// EvolveWorld advances the world clock with the given churn and returns
// the SKUs whose prices changed — the velocity driver for experiments.
// Only meaningful for synthetic universes; other providers return nil.
func (w *Wrangler) EvolveWorld(churn float64) []string {
	if u, ok := w.Provider.(*sources.Universe); ok {
		return u.World.Evolve(churn)
	}
	return nil
}

// Snapshot returns a copy of the per-source selection and utility for
// reporting.
func (w *Wrangler) Snapshot() map[string]SourceReport {
	out := map[string]SourceReport{}
	for id, st := range w.states {
		rep := SourceReport{
			Selected:     st.selected,
			Utility:      st.utility,
			Completeness: st.quality.Completeness,
			Accuracy:     st.scorecard.Accuracy,
			Timeliness:   st.scorecard.Timeliness,
			Coverage:     st.quality.Coverage,
		}
		if st.mapped != nil {
			rep.Rows = st.mapped.Len()
		}
		out[id] = rep
	}
	return out
}

// SourceReport is the per-source line of Snapshot.
type SourceReport struct {
	Selected     bool
	Utility      float64
	Rows         int
	Completeness float64
	Accuracy     float64
	Timeliness   float64
	Coverage     float64
}

// AddFeedback records a feedback item only when the user context's
// feedback budget allows it — "the budget for accessing sources" (§4.1)
// has a twin on the payment side of pay-as-you-go. A zero budget means
// unbounded. Returns false (and records nothing) when the budget would be
// exceeded.
func (w *Wrangler) AddFeedback(it feedback.Item) bool {
	if w.UserCtx.FeedbackBudget > 0 && w.Feedback.Spent()+it.Cost > w.UserCtx.FeedbackBudget {
		return false
	}
	rec := w.Feedback.Add(it)
	if w.log != nil {
		// Paid-for labels are logged as they arrive, not at the next
		// publish — a crash in between loses no feedback.
		w.log.appendFeedback(rec)
	}
	return true
}

// BudgetRemaining reports the unspent feedback budget (Inf-like -1 when
// unbounded).
func (w *Wrangler) BudgetRemaining() float64 {
	if w.UserCtx.FeedbackBudget <= 0 {
		return -1
	}
	rem := w.UserCtx.FeedbackBudget - w.Feedback.Spent()
	if rem < 0 {
		return 0
	}
	return rem
}

// FeedbackSeq returns the last assimilated feedback sequence number.
func (w *Wrangler) FeedbackSeq() int {
	w.resume()
	return w.lastSeq
}
