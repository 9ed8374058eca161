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
// What one tail leaves for the next is one value, the installed
// tailState: a tail builds the next state beside it and the merge
// installs that whole, so a tail that fails or is cancelled installs
// nothing and the installed state always describes one completed
// integration. A full-scope tail diffs the rebuilt union against the
// installed one (record identity first, content where records differ),
// re-plans incrementally against the installed plan and re-resolves only
// the dirty shards. The back half — trust, fuse, merge — runs whole on
// every reaction and reuses at one grain: the prepared (entity,
// attribute) group, whose state serves both the trust fixpoint and the
// fuse and is kept for every group whose claims held; a fuse-only tail
// regroups nothing and takes the installed groups as they are; where
// trust cannot move an uncontested group's result, the fuse hands on the
// installed results, records and report lines of every entity whose
// groups held (shardRun.estimateTrust); publication then adopts the
// previous record of every entity that fused to the Same record. The
// contract is strict: a partial tail is byte-identical to a full
// recompute (FullRerun), pinned by the internal/wrangletest harness.

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

// tailState is what one completed integration leaves for the next: the
// union with its per-row indexes, built once per union (assembleUnion);
// the resolver that prepared it and the plan its clustering was resolved
// under; the clustering read entity by entity; and the fused output with
// the claim groups it was fused from. Installed, it is never written: the
// next tail shares what it keeps — a fuse-only tail everything up to the
// clustering, a full tail the groups and results it hands on — and builds
// the rest afresh. What it shares may carry caches that only grow, which
// a tail may extend before it installs: the resolver's registries, the
// plan's score cache and the groups' prepared state.
type tailState struct {
	union        *dataset.Table // post-repair, copy-on-write: its records are immutable
	unionSources []string       // per row: its source id
	unionKeys    []string       // per row: its stable "source#idx" key (rowKey), interned
	unionIDs     []string       // the selected source ids the union was built from, sorted
	unionStarts  []int          // per unionIDs entry: its first union row
	resolver     *er.Resolver   // prepared over union; the next resolver carries its registries
	plan         *er.PlanState  // what clusters was resolved under; nil when no full tail recorded one (nothing integrated, a restore that could not rebuild it)
	clusters     *er.Clustering
	entityIDs    []string    // per union row: its entity id
	entities     entityIndex // the clustering read entity by entity
	namesKept    int         // entities the naming carried over (carryNames); 0 when it named all afresh
	results      []fusion.Result
	groups       *fusion.ClaimGroups // the claim groups results was fused from, parallel to it
	slabs        int                 // how many claims the slabs groups may point into hold
	free         bool                // results were fused from groups under trust-free options
	handed       handOff             // what the fuse handed on from the previous state's results, for publish
	wrangled     *dataset.Table
	rowEntities  []string // per wrangled-table row: its entity id, sorted; publications alias it
	trust        map[string]float64
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
// re-estimates trust over the installed clustering. Both share the trust
// barrier → fuse[shard] → merge back half. It returns the shape of the
// tail's trust estimation, zero when it ran none.
func (w *Wrangler) runTail(ctx context.Context, scope tailScope, stats *ReactStats) (fusion.TrustStats, error) {
	start := time.Now()
	if stats.Stages == nil {
		stats.Stages = map[string]time.Duration{}
	}
	g := engine.NewGraph()
	sr := &shardRun{}
	var err error
	if scope == tailFuseOnly && w.tail.plan != nil && len(w.dirtySources) == 0 {
		err = w.addFuseOnlyTasks(g, sr)
	} else {
		// Also the fuse-only scope when the installed state cannot vouch
		// for the union it would fuse: no full tail planned it (nothing
		// integrated yet, a restore that could not rebuild the plan), or a
		// source was installed since — a reaction that installed sources
		// and then lost its tail leaves them out of the installed union.
		// The full tail folds them in, diffing against the installed
		// state.
		err = w.addIntegrationTasks(g, sr)
	}
	if err != nil {
		return sr.trustStats, err
	}
	w.instrumentGraph(g)
	err = g.Run(ctx, w.workers())
	stats.TrustComponents = sr.trustStats.Components
	stats.TrustGroupsKept, stats.TrustGroupsPrepared = sr.trustStats.GroupsKept, sr.trustStats.GroupsPrepared
	stats.FuseRevoted = sr.trustStats.FuseRevoted
	sr.replan.record(stats.Stages)
	if err != nil {
		// The engine dispatches nothing after the merge, so a tail that
		// fails has installed nothing: the installed state is the one
		// from before it.
		return sr.trustStats, err
	}
	for k, d := range stageTimings(g.Timings()) {
		stats.Stages[k] += d
	}
	sr.split.record(stats.Stages)
	stats.Stages["integrate"] = time.Since(start)
	stats.ShardsResolved, stats.ShardsReused = sr.resolvedShards()
	return sr.trustStats, nil
}

// addFuseOnlyTasks wires the trust+fuse+merge tail over the installed
// clustering — the value-feedback reaction. The next state shares the
// installed one's union, plan, clustering, entities and claim groups;
// trust is re-estimated warm over those groups and every fuse part
// re-fuses its entity range.
func (w *Wrangler) addFuseOnlyTasks(g *engine.Graph, sr *shardRun) error {
	n := w.shards()
	sr.fuseOnly = true
	if err := g.Add("integrate:cluster", func(context.Context) error {
		next := *w.tail
		sr.next = &next
		sr.parts = make([]fusedPart, n)
		sr.estimateTrust(w)
		return nil
	}); err != nil {
		return err
	}
	return w.addFuseMergeTasks(g, sr, n, "integrate:cluster")
}

// unionDelta lists the rows of t's union whose content differs from the
// same source row's in prev's (alignUnion); rows only one union has
// appeared or disappeared, which er.RePlan reads off the row keys itself.
// Record identity short-circuits the compare: an unchanged source
// contributes the very same records unless FD repair cloned one — in this
// round or prev's — and only those, and the refreshed sources' rows, are
// compared by value. It also returns, per row, prev's union row holding
// the very same record, or -1.
func unionDelta(t, prev *tailState) (dirty []int, same []int32) {
	same = alignUnion(t, prev)
	for i, j := range same {
		if j < 0 {
			continue
		}
		if cur, old := t.union.Row(i), prev.union.Row(int(j)); &cur[0] != &old[0] {
			same[i] = -1
			if !cur.Equal(old) {
				dirty = append(dirty, i)
			}
		}
	}
	return dirty, same
}

// alignUnion maps each row of t's union to prev's union row of the same
// source and position, or to -1 when prev's has none. Both unions are
// their selected sources' rows in source order, so rows align source by
// source, position by position; rows beyond the shorter side, and rows of
// sources only one union has, have no match.
func alignUnion(t, prev *tailState) []int32 {
	old := make([]int32, t.union.Len())
	for i := range old {
		old[i] = -1
	}
	k := 0
	for nk, id := range t.unionIDs {
		for k < len(prev.unionIDs) && prev.unionIDs[k] < id {
			k++
		}
		if k == len(prev.unionIDs) || prev.unionIDs[k] != id {
			continue
		}
		lo, hi := t.unionStarts[nk], segmentEnd(t.unionStarts, nk, t.union.Len())
		olo, ohi := prev.unionStarts[k], segmentEnd(prev.unionStarts, k, prev.union.Len())
		for i := 0; i < hi-lo && i < ohi-olo; i++ {
			old[lo+i] = int32(olo + i)
		}
	}
	return old
}

// segmentEnd returns where segment k of a union of n rows ends.
func segmentEnd(starts []int, k, n int) int {
	if k+1 < len(starts) {
		return starts[k+1]
	}
	return n
}
