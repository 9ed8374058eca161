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
	"repro/internal/serve"
)

// This file is the integration tail, the one engine DAG every session
// runs: it partitions the union by blocking key (er.ShardPlan) into
// max(1, IntegrationShards) shards, resolves every shard and fuses as
// many entity ranges as independent engine tasks, and merges their
// outputs with a stable, provider-order-independent merge. The contract is strict: at every
// shard and worker count the merged table, report, results, trust and
// provenance are byte-identical to the same DAG at one shard and one
// worker (the internal/wrangletest determinism harness), and to the
// global er.ResolveConstrained + fusion.Fuse reference (the core
// reference test). Sharding buys two things — the tail fans out instead
// of being the run's Amdahl ceiling, and publication is incremental: the
// fuse fan-out splits the entities into contiguous ranges, one immutable
// page each, and the merge walks the pages in entity order against the
// previous integration's rows once, adopting the predecessor's record for
// every entity whose record is Same and listing the rest as the version's
// change set.

// shardPage is one fuse part's slice of the wrangled output: its fused
// entities (sorted), one record per entity, and the part's fused results,
// which alias the run's group-indexed result slab. Records and results
// are immutable once built — published versions alias them, so nothing
// may ever write through a page. A live tail's pages are contiguous
// entity ranges; a page restored from a log may hold any set of entities.
type shardPage struct {
	entities []string
	rows     []dataset.Record
	results  []fusion.Result
}

// shardRun is the scratch state one sharded integration passes between
// its engine tasks. Each field is written by exactly one stage and only
// read after the barrier that stage feeds.
type shardRun struct {
	rp           *er.RePlanned // plan stage: the plan, per-shard reuse, dirty residue and the roots slab the resolve fan-out completes
	must, cannot []er.Pair
	rowKeys      []string            // plan stage: stable key per union row
	groups       *fusion.ClaimGroups // cluster barrier: every claim, grouped once, carrying its prepared state
	laidFrom     layout              // cluster barrier: what groups was laid out from
	opts         fusion.Options      // cluster barrier: trust already estimated
	split        trustSplit          // cluster barrier: the trust stage, by step
	results      []fusion.Result     // fuse fan-out: every group's result at its group index
	pages        []*shardPage        // fuse fan-out
	empty        bool                // nothing to integrate; all stages no-op
	fuseOnly     bool                // trust+fusion tail reusing the stored clustering
}

// resolvedShards counts the shards whose clusters were computed (not
// reused) this tail.
func (sr *shardRun) resolvedShards() (resolved, reused int) {
	if sr.fuseOnly {
		// A fuse-only tail reuses every shard's clusters by construction.
		return 0, len(sr.pages)
	}
	for i := range sr.pages {
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
// claims held) → fuse[part] fan-out over entity ranges → merge (adopting
// the previous record of every entity that fused to the Same record).
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
	sr.pages = make([]*shardPage, n)
	var dirty []int
	var prevPlan *er.PlanState
	if w.memo != nil {
		dirty = w.unionDelta(w.memo)
		prevPlan = w.memo.plan
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
// numbering to one global resolve), names entities, and runs the one
// stage of fusion that is inherently global — TruthFinder's trust
// fixpoint over the full claim set.
func (w *Wrangler) shardClusterStage(sr *shardRun) error {
	if sr.empty {
		return nil
	}
	start := time.Now()
	clusters, err := sr.rp.Clustering()
	if err != nil {
		return err
	}
	w.clusters = clusters
	w.Prov.Put(provenance.Ref{Kind: provenance.KindCluster, ID: "union"}, "er.Resolve", w.mappingRefs(w.unionIDs), "")
	w.nameEntities()
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
func (sr *shardRun) estimateTrust(w *Wrangler) {
	prev := w.groups
	if sr.fuseOnly && prev != nil && w.memo.union == w.union {
		sr.groups, sr.laidFrom = prev, w.laidFrom
	} else {
		start := time.Now()
		sr.groups, sr.laidFrom = w.claimGroups()
		sr.split.claims = time.Since(start)
	}
	sr.results = make([]fusion.Result, sr.groups.Len())
	sr.opts, sr.split.TrustSplit, w.lastTrust = fusion.EstimateTrustWarmParallel(sr.groups, w.fusionOptions(), prev, w.workers())
}

// shardFuseStage fuses, under the globally estimated trust, part i of
// the entities — a contiguous range of them (fusion.FuseInto) — and
// materialises its page. Groups were laid out once over every claim, each
// group's claims in row order, so each group holds its claims in the
// order one global fuse sees them — bucket representatives and vote
// accumulation match bit for bit. The groups arrive prepared, so the fuse
// reads them and writes only its span of sr.results, the group-indexed
// slab the parts fill between them with nothing to merge; the page's
// results are that span.
func (w *Wrangler) shardFuseStage(sr *shardRun, i int) error {
	if sr.empty {
		return nil
	}
	results := sr.groups.FuseInto(sr.results, sr.opts, i, len(sr.pages))
	entities, rows := materialize(results, w.Config.Target)
	sr.pages[i] = &shardPage{entities: entities, rows: rows, results: results}
	return nil
}

// shardMergeStage merges the fuse outputs: results in global sorted order
// (the group-indexed slab the fuse fan-out filled), pages diffed against
// the previous integration (changeSet, which also adopts every unchanged
// record — the delta the publisher shares between versions), and the
// wrangled table assembled from page records without copying.
func (w *Wrangler) shardMergeStage(sr *shardRun) error {
	if sr.empty {
		return nil
	}
	w.results, w.groups, w.laidFrom = sr.results, sr.groups, sr.laidFrom
	w.trust = sr.opts.Trust

	// A session that left IntegrationShards at 0 publishes every version
	// as a full change: its watchers (cmd/wrangle -serve's default frames)
	// expect every row. Its records are shared all the same. Without a
	// previous integration there is no delta to bound.
	w.lastChange = changeSet(w.rowEntities, w.wrangled, sr.pages)
	if w.IntegrationShards == 0 || len(w.pages) == 0 {
		w.lastChange = serve.ChangeSet{Full: true}
	}
	w.pages = sr.pages
	w.wrangled, w.rowEntities = mergePages(sr.pages, w.Config.Target)
	w.LastStats.RowsWrangled = w.wrangled.Len()
	w.Prov.Put(provenance.Ref{Kind: provenance.KindFusion, ID: "wrangled"},
		"fusion.Fuse", []provenance.Ref{{Kind: provenance.KindCluster, ID: "union"}}, sr.opts.Policy.String())
	w.recordTailMemo(sr)
	return nil
}

// mergePages assembles the wrangled table from shard pages — the one
// merge the live tail and the durable restore share. Every page holds its
// entities sorted and no entity sits on two pages, so a k-way merge of
// the page heads yields the global entity order with nothing to sort: a
// live tail's range pages merge in page order, and pages restored from
// logs whose tails routed entities to their shard interleave.
// Each output row scans the k heads, O(n·k): that assumes the small shard
// counts WithIntegrationShards advises (about the worker bound). It beats
// an O(n log n) sort of all entities while k stays well under log₂ n and
// loses beyond: at 3 200 entities on a 2-vCPU x86 box, 4× faster at
// k = 4, 1.7× at k = 16, 1.6× slower at k = 64. The table rows alias
// the page records (publication's pointer-sharing); entities holds each
// row's entity id.
func mergePages(pages []*shardPage, schema dataset.Schema) (*dataset.Table, []string) {
	n := 0
	for _, p := range pages {
		n += len(p.entities)
	}
	out := dataset.NewTable(schema.Clone())
	entities := make([]string, 0, n)
	next := make([]int, len(pages)) // per page: its first entity not merged yet
	for len(entities) < n {
		lo := -1
		for i, p := range pages {
			if next[i] < len(p.entities) && (lo < 0 || p.entities[next[i]] < pages[lo].entities[next[lo]]) {
				lo = i
			}
		}
		j := next[lo]
		out.Append(pages[lo].rows[j])
		entities = append(entities, pages[lo].entities[j])
		next[lo]++
	}
	return out, entities
}

// changeSet walks the freshly fused pages, in entity order, against the
// previous integration's rows — prevEntities[k] names prev's row k, both
// entity-sorted — in one merge pass, and summarises what moved: the
// per-version delta the change feed pushes to watchers of sessions with
// IntegrationShards set. It points a page at the predecessor's record for
// every entity whose record is Same — the pages are fresh from their fuse
// tasks and not yet published, so this is their last write — and lists,
// ascending, the entities the pages added or rewrote and the ones they
// dropped. Results stay fresh (confidences and trust may drift even when
// every winning value held), so only the record storage, which
// publication would otherwise allocate and retain again, is shared. A
// page counts as changed when its part of the walk listed anything; the
// last page's part runs to the end of prev.
func changeSet(prevEntities []string, prev *dataset.Table, cur []*shardPage) serve.ChangeSet {
	cs := serve.ChangeSet{}
	i, np := 0, len(prevEntities)
	for k, p := range cur {
		listed := len(cs.ChangedRecords) + len(cs.RemovedRecords)
		last := k == len(cur)-1
		for j, nc := 0, len(p.entities); j < nc || last && i < np; {
			switch {
			case i < np && j < nc && prevEntities[i] == p.entities[j]:
				if r := prev.Row(i); r.Same(p.rows[j]) {
					p.rows[j] = r
				} else {
					cs.ChangedRecords = append(cs.ChangedRecords, p.entities[j])
				}
				i++
				j++
			case j >= nc || i < np && prevEntities[i] < p.entities[j]:
				cs.RemovedRecords = append(cs.RemovedRecords, prevEntities[i])
				i++
			default:
				cs.ChangedRecords = append(cs.ChangedRecords, p.entities[j])
				j++
			}
		}
		if len(cs.ChangedRecords)+len(cs.RemovedRecords) > listed {
			cs.ChangedPages++
			cs.ChangedShards = append(cs.ChangedShards, k)
		} else {
			cs.SharedPages++
		}
	}
	return cs
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
// version shares every record its shard fused Same as before with its
// predecessor.
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
