package core

import (
	"context"
	"time"

	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/er"
	"repro/internal/feedback"
	"repro/internal/fusion"
)

// This file is the reaction planner: the one place that decides, for any
// incremental reaction (feedback assimilation or source churn), how much
// of the integration tail must recompute — and executes exactly that.
// A full-scope tail diffs the rebuilt union against the memoized previous
// one (record identity first, content where records differ), re-plans
// incrementally and re-resolves only the dirty shards. The back half —
// trust, fuse, merge — runs whole on every reaction and reuses at one
// grain: the prepared (entity, attribute) group, whose state serves both
// the trust fixpoint and the fuse and is kept for every group whose
// claims held; a fuse-only tail regroups nothing and takes the last
// tail's groups as they are; publication then adopts the previous record
// of every entity that fused to the Same record. The contract is strict: a partial tail is
// byte-identical to a full recompute (FullRerun), pinned by the
// internal/wrangletest harness.

// tailScope is how much of the integration tail a reaction needs.
type tailScope int

const (
	// tailFull re-plans, re-resolves and re-fuses: the union's content
	// or composition (or the clustering inputs) may have changed.
	tailFull tailScope = iota
	// tailFuseOnly recomputes trust and fusion over the stored
	// clustering: only fusion inputs (value feedback → trust) moved.
	tailFuseOnly
)

// tailMemo is the memoized state of the last integrated tail —
// what the planner diffs a reaction against. All fields describe one
// coherent integration, together with the wrangler's fused output; any tail
// that fails mid-flight drops the memo (the next reaction plans from
// scratch and re-records it).
type tailMemo struct {
	union  *dataset.Table // the previous post-repair union (frozen: rebuilt, never mutated)
	ids    []string       // the selected sources it was built from, sorted
	starts []int          // per ids entry: its first union row
	plan   *er.PlanState
}

// planReaction classifies a batch of feedback into the reaction plan:
// which sources need re-extraction, whether selection must rerun, and
// the tail scope. This is the §2.4 decision table in one place.
func planReaction(items []feedback.Item) (reextract map[string]bool, reselect bool, scope tailScope, tail bool) {
	reextract = map[string]bool{}
	for _, it := range items {
		switch it.Kind {
		case "wrapper_broken":
			reextract[it.SourceID] = true
		case "duplicate", "not_duplicate":
			scope, tail = tailFull, true
		case "value_correct", "value_incorrect":
			if !tail {
				scope, tail = tailFuseOnly, true
			}
		case "source_relevant", "source_irrelevant":
			reselect = true
		}
	}
	return reextract, reselect, scope, tail
}

// runTail executes the integration tail at the given scope and fills the
// reaction stats: per-DAG-stage timings and the dirty-shard counts. It
// runs one engine graph whose scope picks the front half: the full scope
// diffs, re-plans and resolves the dirty shards; the fuse-only scope
// re-estimates trust over the stored clustering. Both share the trust
// barrier → fuse[shard] → merge back half.
func (w *Wrangler) runTail(ctx context.Context, scope tailScope, stats *ReactStats) error {
	start := time.Now()
	if stats.Stages == nil {
		stats.Stages = map[string]time.Duration{}
	}
	// The tail's trust barrier writes w.lastTrust; reset first so a tail
	// that never estimates trust — empty union, non-TruthFinder policy —
	// reports zero components, then snapshot whatever the tail recorded on
	// the way out.
	w.lastTrust = fusion.TrustStats{}
	w.split = replanSplit{}
	defer func() {
		stats.TrustComponents = w.lastTrust.Components
		stats.TrustGroupsKept, stats.TrustGroupsPrepared = w.lastTrust.GroupsKept, w.lastTrust.GroupsPrepared
		stats.FuseRevoted = w.lastTrust.FuseRevoted
		w.split.record(stats.Stages)
	}()
	if scope == tailFuseOnly && (w.union == nil || w.union.Len() == 0) {
		// Nothing is integrated, so there are no claims whose trust could
		// move: the reaction assimilates the feedback and publishes the
		// (empty) result unchanged.
		return nil
	}

	g := engine.NewGraph()
	sr := &shardRun{}
	var err error
	if scope == tailFuseOnly && w.memo != nil {
		err = w.addFuseOnlyTasks(g, sr)
	} else {
		// Also the fuse-only scope without a memo: the last integration did
		// not complete (cancelled mid-tail, or a restore that could not
		// rebuild it), so the union may be ahead of the clustering and only
		// a full tail makes them coherent again.
		err = w.addIntegrationTasks(g, sr)
	}
	if err != nil {
		return err
	}
	w.instrumentGraph(g)
	if err := g.Run(ctx, w.workers()); err != nil {
		// The tail stopped between stages: the memo no longer describes
		// one coherent integration.
		w.memo = nil
		return err
	}
	for k, d := range stageTimings(g.Timings()) {
		stats.Stages[k] += d
	}
	sr.split.record(stats.Stages)
	stats.Stages["integrate"] = time.Since(start)
	stats.ShardsResolved, stats.ShardsReused = sr.resolvedShards()
	return nil
}

// addFuseOnlyTasks wires the trust+fuse+merge tail over the stored
// clustering — the value-feedback reaction. The memo vouches that the
// union, clusters and entity ids describe one completed integration;
// trust is re-estimated warm over the last tail's claim groups and every
// fuse part re-fuses its entity range.
func (w *Wrangler) addFuseOnlyTasks(g *engine.Graph, sr *shardRun) error {
	n := w.shards()
	sr.fuseOnly = true
	if err := g.Add("integrate:cluster", func(context.Context) error {
		sr.parts = make([]fusedPart, n)
		sr.estimateTrust(w)
		return nil
	}); err != nil {
		return err
	}
	return w.addFuseMergeTasks(g, sr, n, "integrate:cluster")
}

// unionDelta lists the rows of the freshly built union whose content
// differs from the same source row's in the memoized union. Both unions
// are their selected sources' rows in source order, so rows align source
// by source, position by position; rows beyond the shorter side and rows
// of sources only one union has appeared or disappeared, which er.RePlan
// reads off the row keys itself. Record identity short-circuits the
// compare: an unchanged source contributes the very same records unless
// FD repair cloned one — in this round or the memoized one — and only
// those, and the refreshed sources' rows, are compared by value.
func (w *Wrangler) unionDelta(memo *tailMemo) []int {
	var dirty []int
	k := 0
	for nk, id := range w.unionIDs {
		for k < len(memo.ids) && memo.ids[k] < id {
			k++
		}
		if k == len(memo.ids) || memo.ids[k] != id {
			continue
		}
		cur := w.union.Rows()[w.unionStarts[nk]:segmentEnd(w.unionStarts, nk, w.union.Len())]
		old := memo.union.Rows()[memo.starts[k]:segmentEnd(memo.starts, k, memo.union.Len())]
		for i := 0; i < len(cur) && i < len(old); i++ {
			if &cur[i][0] != &old[i][0] && !cur[i].Equal(old[i]) {
				dirty = append(dirty, w.unionStarts[nk]+i)
			}
		}
	}
	return dirty
}

// segmentEnd returns where segment k of a union of n rows ends.
func segmentEnd(starts []int, k, n int) int {
	if k+1 < len(starts) {
		return starts[k+1]
	}
	return n
}

// recordTailMemo captures the just-merged tail as the next reaction's
// diff baseline. A full tail rebuilds the whole memo (and clears the
// accumulated dirty-source scope — everything is integrated now); a
// fuse-only tail keeps it, since union, plan and clusters did not move.
func (w *Wrangler) recordTailMemo(sr *shardRun) {
	if sr.fuseOnly {
		return
	}
	// Commit folds the carried-over and freshly computed pair scores into
	// the next round's cache, and keeps the roots slab.
	ps, err := sr.rp.Commit(w.resolver, sr.rowKeys, sr.must, sr.cannot)
	if err != nil {
		// Defensive: an unrecordable plan just means the next reaction
		// plans from scratch.
		w.memo = nil
		return
	}
	w.memo = w.newTailMemo(ps)
	w.dirtySources = nil
}

// newTailMemo assembles the diff baseline over the current union, so the
// live merge and the durable restore cannot record differently shaped
// memos.
func (w *Wrangler) newTailMemo(plan *er.PlanState) *tailMemo {
	return &tailMemo{
		union:  w.union,
		ids:    w.unionIDs,
		starts: w.unionStarts,
		plan:   plan,
	}
}
