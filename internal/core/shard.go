package core

import (
	"context"
	"fmt"
	"time"

	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/er"
	"repro/internal/fusion"
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
// its engine tasks, with the tail state it builds beside the installed
// one (w.tail) — which no stage writes and every stage may read. Each
// field, and each field of next, is written by exactly one stage and only
// read after the barrier that stage feeds; the merge installs next whole.
type shardRun struct {
	next         *tailState    // the state this tail builds: its union from the plan stage, clustering and groups from the cluster barrier, output from the merge
	rp           *er.RePlanned // plan stage: the plan, per-shard reuse, dirty residue and the roots slab the resolve fan-out completes
	must, cannot []er.Pair
	same         []int32           // plan stage: per union row, the installed union's row holding the very same record, or -1; nil when unknown
	replan       replanSplit       // plan stage: the front half, by step
	opts         fusion.Options    // cluster barrier: trust already estimated
	split        trustSplit        // cluster barrier: the trust stage, by step
	trustStats   fusion.TrustStats // cluster barrier: the shape of the trust estimation
	handOn       []fusion.Result   // cluster barrier: the installed results the fuse parts hand on from; nil to fuse every group
	kept         []int             // cluster barrier, with handOn: per entity, the installed table's row of the entity whose groups it took whole, or -1; nil when every entity keeps its row
	from         []int32           // cluster barrier, with handOn: per entity, where its results start in handOn, or -1 (fusion.FuseInto)
	parts        []fusedPart       // fuse fan-out
	empty        bool              // nothing to integrate; all stages no-op
	fuseOnly     bool              // trust+fusion tail reusing the installed clustering
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
// deps: plan (union + incremental re-plan against the installed state) →
// resolve[shard] fan-out (skipping shards whose clusters carried over) →
// cluster barrier (merge clusters, name entities, group claims once and
// estimate trust globally, keeping the installed prepared groups whose
// claims held) → fuse[part] fan-out over entity ranges → merge
// (concatenating the parts and installing the new state).
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
// the dirty-row diff against the installed union drives er.RePlan, which
// re-blocks only changed rows and hands back the previous clusters of
// every shard the delta provably did not touch.
// Without an installed plan (a run, a FullRerun, a restore that could
// not rebuild it) RePlan degrades to a fresh plan whose resolve still
// seeds the cross-round score cache, so the very next reaction starts
// warm. An empty union builds the empty state, which keeps only the
// installed resolver's registries.
func (w *Wrangler) shardPlanStage(sr *shardRun, n int) error {
	prev, next := w.tail, &tailState{}
	sr.next = next
	start := time.Now()
	cells, feats, err := w.assembleUnion(next)
	sr.replan.union = time.Since(start)
	if err != nil {
		return err
	}
	if next.union.Len() == 0 {
		next.resolver, next.wrangled, next.trust = prev.resolver, dataset.NewTable(w.Config.Target.Clone()), map[string]float64{}
		sr.empty = true
		return nil
	}
	start = time.Now()
	if err := w.repairUnion(next, cells); err != nil {
		return err
	}
	sr.replan.fdRepair = time.Since(start)
	start = time.Now()
	labels := w.labeledPairs(next)
	w.prepareResolver(next, prev.resolver, feats, labels)
	sr.replan.prepare = time.Since(start)
	start = time.Now()
	sr.must, sr.cannot = pairConstraints(labels)
	sr.parts = make([]fusedPart, n)
	var dirty []int
	if prev.union != nil {
		dirty, sr.same = unionDelta(next, prev)
	}
	sr.rp, err = next.resolver.RePlan(next.union, n, sr.must, sr.cannot, next.unionKeys, dirty, prev.plan)
	sr.replan.plan = time.Since(start)
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
	if _, err := sr.rp.ResolveDirty(sr.next.resolver, sr.next.union, i, sr.must, sr.cannot); err != nil {
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
	next := sr.next
	clusters, err := sr.rp.Clustering()
	if err != nil {
		return err
	}
	next.clusters = clusters
	w.Prov.Put(provenance.Ref{Kind: provenance.KindCluster, ID: "union"}, "er.Resolve", w.mappingRefs(next.unionIDs), "")
	if !w.carryNames(next, w.tail) {
		w.nameEntities(next)
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
// which it moves, so it takes the installed groups as they are —
// prepared state included — unless a restore left none. A full tail
// builds only the claims of entities that moved and hands on the
// installed groups of every other (claimGroups). The estimation is the
// exact global TruthFinder fixpoint; what it carries over from the
// installed state is the prepared state of every (entity, attribute)
// group whose claims held, and it prepares every other group, under every
// policy, on the worker fan-out, so the fuse parts only read the groups.
//
// The fuse parts hand the installed results on (sr.handOn) when they were
// fused trust-free from the installed groups (tailState.free) and this
// fuse is trust-free too (fusion.ClaimGroups.TrustFree): then no result
// of a group with one fuse bucket can depend on trust, so an entity whose
// groups were handed on whole — every entity of a fuse-only tail, the
// kept ones of a full tail — keeps its results but its voters', and only
// those are re-voted (sr.kept and sr.from map each entity onto the
// installed table and results). Anything else — a restore's adopted
// results, a re-layout, FreshnessWeighted, a trust that could overflow a
// vote — fuses every group.
func (sr *shardRun) estimateTrust(w *Wrangler) {
	prev, next := w.tail, sr.next
	var kept []int // nil when the groups are the installed ones
	if !sr.fuseOnly || next.groups == nil {
		start := time.Now()
		next.groups, next.slabs, kept = w.claimGroups(next, prev, sr.same)
		sr.split.claims = time.Since(start)
	}
	next.results = make([]fusion.Result, next.groups.Len())
	sr.opts, sr.split.TrustSplit, sr.trustStats = fusion.EstimateTrustWarmParallel(next.groups, w.fusionOptions(), prev.groups, w.workers())
	if prev.groups == nil || !prev.free || !next.groups.TrustFree(sr.opts) {
		return
	}
	sr.handOn, sr.kept = prev.results, kept
	starts := prev.groups.EntityStarts()
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
// reads them and writes only its span of the next state's results, the
// group-indexed slab the parts fill between them with nothing to merge.
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
	n, next := len(sr.parts), sr.next
	span, moved := next.groups.FuseInto(next.results, sr.handOn, sr.from, sr.opts, i, n)
	if sr.handOn == nil || next.groups.Len() == 0 {
		entities, rows := materialize(span, w.Config.Target)
		sr.parts[i] = fusedPart{entities: entities, rows: rows}
		return nil
	}
	// Every entity claims every attribute, so the part's entities are its
	// range of the layout's, one record each.
	starts, prevRows, ids := next.groups.EntityStarts(), w.tail.wrangled.Rows(), next.entities.ids
	lo, hi := i*len(ids)/n, (i+1)*len(ids)/n
	part := fusedPart{entities: ids[lo:hi:hi], rows: make([]dataset.Record, hi-lo), moved: moved}
	for e := lo; e < hi; e++ {
		first, end := int(starts[e]), int(starts[e+1])
		pe := e
		if sr.kept != nil {
			pe = sr.kept[e]
		}
		for ; len(moved) > 0 && moved[0] < end; moved = moved[1:] {
			if g := moved[0]; pe >= 0 && !next.results[g].Value.Same(sr.handOn[int(sr.from[e])+g-first].Value) {
				pe = -1
			}
		}
		if pe >= 0 {
			part.rows[e-lo] = prevRows[pe]
		} else {
			part.rows[e-lo] = record(next.results[first:end], w.Config.Target)
		}
	}
	sr.parts[i] = part
	return nil
}

// shardMergeStage completes the next state and installs it: the results
// slab the fuse fan-out filled in global sorted order, and the wrangled
// table, the parts' records concatenated in part order — the parts are
// contiguous entity ranges, so that is entity order. The table and its
// entity ids are fresh, for publish to diff against the last publication.
// A full tail also records the plan the next one re-plans against: Commit
// folds the carried-over and freshly computed pair scores into the next
// round's cache, and keeps the roots slab. Installing is the merge's last
// step and the tail's last write to the wrangler's carried state, and the
// engine dispatches nothing after the merge, so a tail either installs
// its whole state or none of it.
func (w *Wrangler) shardMergeStage(sr *shardRun) error {
	next := sr.next
	if !sr.empty {
		next.free = next.groups.TrustFree(sr.opts)
		next.handed = handOff{}
		if sr.handOn != nil {
			next.handed = handOff{from: sr.handOn, spans: handOnSpans(next.groups.EntityStarts(), sr.from)}
		}
		next.trust = sr.opts.Trust
		n := 0
		for _, p := range sr.parts {
			n += len(p.rows)
		}
		next.wrangled, next.rowEntities = dataset.NewTableCap(w.Config.Target.Clone(), n), make([]string, 0, n)
		for _, p := range sr.parts {
			next.rowEntities = append(next.rowEntities, p.entities...)
			for _, r := range p.rows {
				next.wrangled.Append(r)
			}
			next.handed.moved = append(next.handed.moved, p.moved...)
		}
		w.LastStats.RowsWrangled = next.wrangled.Len()
		w.Prov.Put(provenance.Ref{Kind: provenance.KindFusion, ID: "wrangled"},
			"fusion.Fuse", []provenance.Ref{{Kind: provenance.KindCluster, ID: "union"}}, sr.opts.Policy.String())
		if !sr.fuseOnly {
			// An unrecordable plan (nil) just means the next reaction
			// plans from scratch.
			next.plan, _ = sr.rp.Commit(next.resolver, next.unionKeys, sr.must, sr.cannot)
		}
	}
	w.tail = next
	if next.plan != nil {
		// Everything installed is integrated now.
		w.dirtySources = nil
	}
	return nil
}

// rowKey is THE "source#idxInSource" row identifier format — feedback
// addressing (RowKey, labeledPairs) and shard routing (the union's row
// keys) must agree on it, so it exists exactly once. The interner's Key
// method (intern.Table), which assembleUnion builds the row keys with,
// builds the identical format; the tests pin the agreement with this
// function.
func rowKey(src string, idxInSource int) string {
	return fmt.Sprintf("%s#%d", src, idxInSource)
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
