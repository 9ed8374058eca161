package core

import (
	"context"
	"fmt"
	"time"

	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/er"
	"repro/internal/fusion"
	"repro/internal/intern"
	"repro/internal/provenance"
)

// This file is the integration tail, the one engine DAG every session
// runs: it partitions the union by blocking key (er.ShardPlan) into
// max(1, IntegrationShards) shards, resolves every shard and fuses as
// many entity ranges as independent engine tasks, and concatenates their
// outputs, which the ranges already put in entity order. The contract is
// strict: at every shard and worker count the table, report, results,
// trust and provenance are byte-identical to the same DAG at one shard
// and one worker (the internal/wrangletest determinism harness), and to
// the global er.ResolveConstrained + fusion.Fuse reference (the core
// reference test). Sharding makes the tail fan out instead of being the
// run's Amdahl ceiling. What a version changed, and which records it
// shares with its predecessor, the publication diff finds (publish.go).

// fusedPart is one fuse part's output: the fused entities of its range,
// in order, with one record each — fresh, or, where the part handed
// results on, the previous table's for every handed-on entity none of
// whose values moved — and, where it handed results on, the group indices
// of its handed-on results that moved.
type fusedPart struct {
	entities []string
	rows     []dataset.Record
	moved    []int
}

// shardRun is the scratch state one sharded integration passes between
// its engine tasks. Each field is written by exactly one stage and only
// read after the barrier that stage feeds.
type shardRun struct {
	rp           *er.RePlanned // plan stage: the plan, per-shard reuse, dirty residue and the roots slab the resolve fan-out completes
	must, cannot []er.Pair
	rowKeys      []string            // plan stage: stable key per union row
	same         []int32             // plan stage: per union row, the last layout's union row holding the very same record, or -1; nil when unknown
	groups       *fusion.ClaimGroups // cluster barrier: every claim, grouped once, carrying its prepared state
	laidFrom     layout              // cluster barrier: what groups was laid out from
	opts         fusion.Options      // cluster barrier: trust already estimated
	split        trustSplit          // cluster barrier: the trust stage, by step
	results      []fusion.Result     // fuse fan-out: every group's result at its group index
	handOn       []fusion.Result     // cluster barrier: the previous results the fuse parts hand on from; nil to fuse every group
	kept         []int               // cluster barrier, with handOn: per entity, the previous table's row of the entity whose groups it took whole, or -1; nil when every entity keeps its row
	from         []int32             // cluster barrier, with handOn: per entity, where its results start in handOn, or -1 (fusion.FuseInto)
	parts        []fusedPart         // fuse fan-out
	empty        bool                // nothing to integrate; all stages no-op
	fuseOnly     bool                // trust+fusion tail reusing the stored clustering
}

// resolvedShards counts the shards whose clusters were computed (not
// reused) this tail.
func (sr *shardRun) resolvedShards() (resolved, reused int) {
	if sr.fuseOnly {
		// A fuse-only tail reuses every shard's clusters by construction.
		return 0, len(sr.parts)
	}
	for i := range sr.parts {
		if sr.rp.Reused[i] {
			reused++
		} else {
			resolved++
		}
	}
	return resolved, reused
}

// addIntegrationTasks wires the full-scope integration tail into g after
// deps: plan (union + incremental re-plan against the memoized tail) →
// resolve[shard] fan-out (skipping shards whose clusters carried over) →
// cluster barrier (merge clusters, name entities, group claims once and
// estimate trust globally, keeping the memo's prepared groups whose
// claims held) → fuse[part] fan-out over entity ranges → merge
// (concatenating the parts).
func (w *Wrangler) addIntegrationTasks(g *engine.Graph, sr *shardRun, deps ...string) error {
	n := w.shards()
	if err := g.Add("integrate:plan", func(context.Context) error {
		return w.shardPlanStage(sr, n)
	}, deps...); err != nil {
		return err
	}
	resolveIDs, err := g.AddFanOut("resolve", n, func(_ context.Context, i int) error {
		return w.shardResolveStage(sr, i)
	}, "integrate:plan")
	if err != nil {
		return err
	}
	if err := g.Add("integrate:cluster", func(context.Context) error {
		return w.shardClusterStage(sr)
	}, resolveIDs...); err != nil {
		return err
	}
	return w.addFuseMergeTasks(g, sr, n, "integrate:cluster")
}

// addFuseMergeTasks wires the back half of the tail — the fuse[shard]
// fan-out and the merge barrier — shared by the full-scope tail and the
// planner's fuse-only scope (addFuseOnlyTasks), so the two scopes cannot
// drift apart in task ids (which stage attribution matches on) or
// dependency shape.
func (w *Wrangler) addFuseMergeTasks(g *engine.Graph, sr *shardRun, n int, deps ...string) error {
	fuseIDs, err := g.AddFanOut("fuse", n, func(_ context.Context, i int) error {
		return w.shardFuseStage(sr, i)
	}, deps...)
	if err != nil {
		return err
	}
	return g.Add("integrate:merge", func(context.Context) error {
		return w.shardMergeStage(sr)
	}, fuseIDs...)
}

// shardPlanStage builds the union (FD repair, resolver refinement from
// feedback, Prepare) and partitions it into blocking shards. Cross-shard
// blocks cannot exist by construction: the plan routes whole
// block-connected components, keyed by their smallest stable row key, to
// a deterministic owner shard. The partition is computed incrementally:
// the dirty-row diff against the memoized union drives er.RePlan, which
// re-blocks only changed rows and hands back the previous clusters of
// every shard the delta provably did not touch.
// Without a memo (a run, or after a failed tail invalidated it) RePlan
// degrades to a fresh plan whose resolve still seeds the cross-round
// score cache, so the very next reaction starts warm.
func (w *Wrangler) shardPlanStage(sr *shardRun, n int) error {
	empty, err := w.buildUnion()
	if err != nil {
		return err
	}
	if empty {
		sr.empty = true
		return nil
	}
	start := time.Now()
	sr.must, sr.cannot = w.pairConstraints()
	sr.rowKeys = w.rowKeys()
	sr.parts = make([]fusedPart, n)
	var dirty []int
	var prevPlan *er.PlanState
	if w.memo != nil {
		var same []int32
		dirty, same = w.unionDelta(w.memo)
		prevPlan = w.memo.plan
		if w.memo.union == w.laidFrom.union {
			sr.same = same
		}
	}
	sr.rp, err = w.resolver.RePlan(w.union, n, sr.must, sr.cannot, sr.rowKeys, dirty, prevPlan)
	w.split.plan = time.Since(start)
	if err != nil {
		return fmt.Errorf("core: resolve: %w", err)
	}
	return nil
}

// shardResolveStage clusters one shard. It reads only immutable run state
// (union rows, the plan, the refined resolver) and writes only its own
// rows of the roots slab, so the fan-out needs no locks. Shards whose
// clusters the re-plan carried over whole skip scoring entirely, and
// mixed shards score only their dirty components' rows — the clean
// components' clusters are already translated into the slab.
func (w *Wrangler) shardResolveStage(sr *shardRun, i int) error {
	if sr.empty || sr.rp.Reused[i] {
		return nil
	}
	if _, err := sr.rp.ResolveDirty(w.resolver, w.union, i, sr.must, sr.cannot); err != nil {
		return fmt.Errorf("core: resolve shard %d: %w", i, err)
	}
	return nil
}

// shardClusterStage is the barrier between the two fan-outs: it numbers
// the completed roots slab into the global dense clustering (identical
// numbering to one global resolve), names entities — carrying over the
// names of the entities whose clusters held where it can (carryNames) —
// and runs the one stage of fusion that is inherently global —
// TruthFinder's trust fixpoint over the full claim set.
func (w *Wrangler) shardClusterStage(sr *shardRun) error {
	if sr.empty {
		return nil
	}
	start := time.Now()
	clusters, err := sr.rp.Clustering()
	if err != nil {
		return err
	}
	prevClusters := w.clusters
	w.clusters = clusters
	w.Prov.Put(provenance.Ref{Kind: provenance.KindCluster, ID: "union"}, "er.Resolve", w.mappingRefs(w.unionIDs), "")
	if !w.carryNames(prevClusters) {
		w.nameEntities()
	}
	sr.split.name = time.Since(start)
	sr.estimateTrust(w)
	return nil
}

// estimateTrust is the back half of the cluster barrier, shared by both
// tail scopes: lay the claims out in groups once for trust and every
// fuse part, entity by entity off the clustering, then run the one
// cross-shard stage of fusion. A fuse-only tail builds nothing: claims are
// a function of the union, its entity ids and its row sources, none of
// which it moves, so it takes the last tail's groups as they are —
// prepared state included — unless the memo does not describe this union
// or a restore left no groups. A full tail builds only the claims of
// entities that moved and hands on the last tail's groups of every other
// (claimGroups). The estimation is the exact global
// TruthFinder fixpoint; what it carries over from the last tail is the
// prepared state of every (entity, attribute) group whose claims held,
// and it prepares every other group, under every policy, on the worker
// fan-out, so the fuse parts only read the groups. Runs inside the
// single cluster-barrier task, so writing w.lastTrust is race-free.
//
// The fuse parts hand the last results on (sr.handOn) when the last merge
// fused them trust-free from the last tail's groups (w.freeFused) and this
// fuse is trust-free too (fusion.ClaimGroups.TrustFree): then no result of
// a group with one fuse bucket can depend on trust, so an entity whose
// groups were handed on whole — every entity of a fuse-only tail, the
// kept ones of a full tail — keeps its results but its voters', and only
// those are re-voted (sr.kept and sr.from map each entity onto the last
// table and results). Anything else — a restore's adopted results, a
// re-layout, FreshnessWeighted, a trust that could overflow a vote —
// fuses every group.
func (sr *shardRun) estimateTrust(w *Wrangler) {
	prev := w.groups
	var kept []int // nil when the groups are prev itself
	if sr.fuseOnly && prev != nil && w.memo.union == w.union {
		sr.groups, sr.laidFrom = prev, w.laidFrom
	} else {
		start := time.Now()
		sr.groups, sr.laidFrom, kept = w.claimGroups(sr.same)
		sr.split.claims = time.Since(start)
	}
	sr.results = make([]fusion.Result, sr.groups.Len())
	sr.opts, sr.split.TrustSplit, w.lastTrust = fusion.EstimateTrustWarmParallel(sr.groups, w.fusionOptions(), prev, w.workers())
	if prev == nil || prev != w.freeFused || !sr.groups.TrustFree(sr.opts) {
		return
	}
	sr.handOn, sr.kept = w.results, kept
	starts := prev.EntityStarts()
	if kept == nil { // every entity's groups, at its own place
		sr.from = starts
		return
	}
	sr.from = make([]int32, len(kept))
	for e, pe := range kept {
		sr.from[e] = -1
		if pe >= 0 {
			sr.from[e] = starts[pe]
		}
	}
}

// shardFuseStage fuses, under the globally estimated trust, part i of
// the entities — a contiguous range of them (fusion.FuseInto) — and
// materialises its records. Groups were laid out once over every claim,
// each group's claims in row order, so each group holds its claims in the
// order one global fuse sees them — bucket representatives and vote
// accumulation match bit for bit. The groups arrive prepared, so the fuse
// reads them and writes only its span of sr.results, the group-indexed
// slab the parts fill between them with nothing to merge.
//
// A part that hands results on (sr.handOn) keeps, for a handed-on entity
// none of whose values moved, the previous table's record, and builds a
// fresh record only for an entity whose value moved and for one whose
// groups are new: a record is a function of its entity's result values
// alone, and a result whose value is Same holds its group's very
// representative, so every other previous record is the one materialize
// would build, or one the publication diff found Same to it. A moved
// confidence moves no record.
func (w *Wrangler) shardFuseStage(sr *shardRun, i int) error {
	if sr.empty {
		return nil
	}
	n := len(sr.parts)
	span, moved := sr.groups.FuseInto(sr.results, sr.handOn, sr.from, sr.opts, i, n)
	if sr.handOn == nil || sr.groups.Len() == 0 {
		entities, rows := materialize(span, w.Config.Target)
		sr.parts[i] = fusedPart{entities: entities, rows: rows}
		return nil
	}
	// Every entity claims every attribute, so the part's entities are its
	// range of the layout's, one record each.
	starts, prevRows, ids := sr.groups.EntityStarts(), w.wrangled.Rows(), sr.laidFrom.entities.ids
	lo, hi := i*len(ids)/n, (i+1)*len(ids)/n
	part := fusedPart{entities: ids[lo:hi:hi], rows: make([]dataset.Record, hi-lo), moved: moved}
	for e := lo; e < hi; e++ {
		first, end := int(starts[e]), int(starts[e+1])
		pe := e
		if sr.kept != nil {
			pe = sr.kept[e]
		}
		for ; len(moved) > 0 && moved[0] < end; moved = moved[1:] {
			if g := moved[0]; pe >= 0 && !sr.results[g].Value.Same(sr.handOn[int(sr.from[e])+g-first].Value) {
				pe = -1
			}
		}
		if pe >= 0 {
			part.rows[e-lo] = prevRows[pe]
		} else {
			part.rows[e-lo] = record(sr.results[first:end], w.Config.Target)
		}
	}
	sr.parts[i] = part
	return nil
}

// shardMergeStage installs the fuse outputs: the results slab the fuse
// fan-out filled in global sorted order, and the wrangled table, the
// parts' records concatenated in part order — the parts are contiguous
// entity ranges, so that is entity order. The table and its entity ids
// are fresh, for publish to diff against the last publication.
func (w *Wrangler) shardMergeStage(sr *shardRun) error {
	if sr.empty {
		return nil
	}
	w.results, w.groups, w.laidFrom = sr.results, sr.groups, sr.laidFrom
	w.freeFused = nil
	if sr.groups.TrustFree(sr.opts) {
		w.freeFused = sr.groups
	}
	w.handed = handOff{}
	if sr.handOn != nil {
		w.handed = handOff{from: sr.handOn, spans: handOnSpans(sr.groups.EntityStarts(), sr.from)}
	}
	w.trust = sr.opts.Trust
	n := 0
	for _, p := range sr.parts {
		n += len(p.rows)
	}
	w.wrangled, w.rowEntities = dataset.NewTableCap(w.Config.Target.Clone(), n), make([]string, 0, n)
	for _, p := range sr.parts {
		w.rowEntities = append(w.rowEntities, p.entities...)
		for _, r := range p.rows {
			w.wrangled.Append(r)
		}
		w.handed.moved = append(w.handed.moved, p.moved...)
	}
	w.LastStats.RowsWrangled = w.wrangled.Len()
	w.Prov.Put(provenance.Ref{Kind: provenance.KindFusion, ID: "wrangled"},
		"fusion.Fuse", []provenance.Ref{{Kind: provenance.KindCluster, ID: "union"}}, sr.opts.Policy.String())
	w.recordTailMemo(sr)
	return nil
}

// rowKey is THE "source#idxInSource" row identifier format — feedback
// addressing (RowKey, rowKeyIndex) and shard routing (rowKeys) must
// agree on it, so it exists exactly once. The interner's Key method
// (intern.Table) builds the identical format; rowKeys pins the agreement
// with this function in its tests.
func rowKey(src string, idxInSource int) string {
	return fmt.Sprintf("%s#%d", src, idxInSource)
}

// rowKeys returns the stable feedback key of every union row — the
// identifiers shard routing hashes, so a component keeps its shard
// across reactions that only touch other sources. Keys are interned for
// the run's lifetime and the per-union slice is cached (buildUnion
// invalidates it), so the repeated derivations across a tail — feedback
// indexing, constraint mapping, shard planning — share one build.
// Callers treat the returned slice as read-only.
func (w *Wrangler) rowKeys() []string {
	if w.unionKeys != nil && len(w.unionKeys) == len(w.unionSources) {
		return w.unionKeys
	}
	if w.interner == nil {
		w.interner = intern.New()
	}
	counts := map[string]int{}
	out := make([]string, len(w.unionSources))
	for i, src := range w.unionSources {
		out[i] = w.interner.Key(src, counts[src])
		counts[src]++
	}
	w.unionKeys = out
	return out
}

// SharedRecords reports how many of cur's records are shared with prev
// by pointer identity — observability for the delta publication path: a
// version shares with its predecessor every record the publication diff
// found Same.
func SharedRecords(prev, cur *dataset.Table) int {
	if prev == nil || cur == nil {
		return 0
	}
	seen := make(map[*dataset.Value]bool, prev.Len())
	for i := 0; i < prev.Len(); i++ {
		r := prev.Row(i)
		if len(r) > 0 {
			seen[&r[0]] = true
		}
	}
	shared := 0
	for i := 0; i < cur.Len(); i++ {
		r := cur.Row(i)
		if len(r) > 0 && seen[&r[0]] {
			shared++
		}
	}
	return shared
}
