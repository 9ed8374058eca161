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
// max(1, IntegrationShards) shards, resolves and fuses every shard as an
// independent engine task, and merges shard outputs with a stable,
// provider-order-independent merge. The contract is strict: at every
// shard and worker count the merged table, report, results, trust and
// provenance are byte-identical to the same DAG at one shard and one
// worker (the internal/wrangletest determinism harness), and to the
// global er.ResolveConstrained + fusion.Fuse reference (the core
// reference test). Sharding buys two things — the tail fans out instead
// of being the run's Amdahl ceiling, and publication is incremental: each
// shard's fused rows form an immutable page, and a reaction that leaves a
// shard's rows unchanged publishes a version sharing that page's records
// with its predecessor.

// shardPage is one shard's slice of the wrangled output: its fused
// entities (sorted), one record per entity, and the shard's fused
// results. Records are immutable once built — published versions alias
// them, so nothing may ever write through a page.
type shardPage struct {
	entities []string
	rows     []dataset.Record
	results  []fusion.Result
}

// rowsEqual reports whether two pages fuse the same entities to the same
// values — the condition under which the new page may share the old
// page's records instead of carrying fresh allocations.
func (p *shardPage) rowsEqual(q *shardPage) bool {
	if p == nil || q == nil || len(p.entities) != len(q.entities) {
		return false
	}
	for i := range p.entities {
		if p.entities[i] != q.entities[i] || !p.rows[i].Equal(q.rows[i]) {
			return false
		}
	}
	return true
}

// shardRun is the scratch state one sharded integration passes between
// its engine tasks. Each field is written by exactly one stage and only
// read after the barrier that stage feeds.
type shardRun struct {
	rp           *er.RePlanned // plan stage: the plan, per-shard reuse, dirty residue and the roots slab the resolve fan-out completes
	must, cannot []er.Pair
	rowKeys      []string            // plan stage: stable key per union row
	groups       *fusion.ClaimGroups // cluster barrier: every claim, grouped once, carrying its prepared state
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
// claims held) → fuse[shard] fan-out → merge (sharing the records of
// pages that fused to the same rows).
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
// numbering to one global resolve), names entities, routes each entity to
// its owning shard, and runs the one stage of fusion that is inherently
// global — TruthFinder's trust fixpoint over the full claim set.
func (w *Wrangler) shardClusterStage(sr *shardRun) error {
	if sr.empty {
		return nil
	}
	clusters, err := sr.rp.Clustering()
	if err != nil {
		return err
	}
	w.clusters = clusters
	w.Prov.Put(provenance.Ref{Kind: provenance.KindCluster, ID: "union"}, "er.Resolve", w.mappingRefs(w.unionIDs), "")
	w.nameEntities()
	w.routeEntities(sr.rp.Plan)
	sr.estimateTrust(w)
	return nil
}

// routeEntities routes every named entity to its owning shard: the shard
// of its first union row. Clusters never span shards, but two clusters in
// different shards can share a most-frequent key and hence an entity
// name — one global fuse fuses their claims together, so the first-row
// owner takes all of them (rows are only read, so a shard may read rows
// it does not own). Kept on the wrangler: a later fuse-only reaction
// reuses this routing, since trust changes never move an entity's shard.
// The cluster barrier and the restore's memo rebuild both route here.
func (w *Wrangler) routeEntities(plan *er.ShardPlan) {
	w.entityShard = make([]int32, len(w.entities.rows))
	for e, rows := range w.entities.rows {
		w.entityShard[e] = int32(plan.RowShard[rows[0]])
	}
}

// estimateTrust is the back half of the cluster barrier, shared by both
// tail scopes: lay the claims out in groups once for trust and every
// shard's fuse, entity by entity off the clustering, then run the one
// cross-shard stage of fusion. A fuse-only tail builds nothing: claims are
// a function of the union, its entity ids and its row sources, none of
// which it moves, so it takes the last tail's groups as they are —
// prepared state included — unless the memo does not describe this union
// or a restore left no groups. The estimation is the exact global
// TruthFinder fixpoint; what it carries over from the last tail is the
// prepared state of every (entity, attribute) group whose claims held,
// and it prepares every other group, under every policy, on the worker
// fan-out, so the shards' fuses only read the groups. Runs inside the
// single cluster-barrier task, so writing w.lastTrust is race-free.
func (sr *shardRun) estimateTrust(w *Wrangler) {
	prev := w.groups
	if sr.fuseOnly && prev != nil && w.memo.union == w.union {
		sr.groups = prev
	} else {
		start := time.Now()
		sr.groups = w.claimGroups()
		sr.split.claims = time.Since(start)
	}
	sr.results = make([]fusion.Result, sr.groups.Len())
	sr.opts, sr.split.TrustSplit, w.lastTrust = fusion.EstimateTrustWarmParallel(sr.groups, w.fusionOptions(), prev, w.workers())
}

// shardFuseStage fuses, under the globally estimated trust, the claim
// groups of the entities shard i owns, and materialises the shard's page.
// Groups were laid out once over every claim, each group's claims in row
// order, so each group holds its claims in the order one global fuse sees
// them — bucket
// representatives and vote accumulation match bit for bit. The groups
// arrive prepared, so the fuse reads them and writes only its results.
// Each result also lands in sr.results at its group index: every group is
// fused by exactly one shard, so the slab needs no merge. The groups'
// entities are w.entities in order, so an entity's ordinal indexes its
// route. An entity routed to no shard fails the tail (only a restored log
// can be that incoherent).
func (w *Wrangler) shardFuseStage(sr *shardRun, i int) error {
	if sr.empty {
		return nil
	}
	n := int32(len(sr.pages))
	unrouted := -1
	results := sr.groups.FuseInto(sr.results, sr.opts, func(e int) bool {
		s := w.entityShard[e]
		if s < 0 || s >= n {
			unrouted = e
			return false
		}
		return s == int32(i)
	})
	if unrouted >= 0 {
		return fmt.Errorf("core: entity %q has no owning shard", w.entities.ids[unrouted])
	}
	entities, rows := materialize(results, w.Config.Target)
	sr.pages[i] = &shardPage{entities: entities, rows: rows, results: results}
	return nil
}

// shardMergeStage merges the shard outputs: results in global sorted
// order (the group-indexed slab the fuse fan-out filled), pages
// reconciled against the previous integration (a shard whose fused rows
// are unchanged keeps its predecessor's records — the delta the
// publisher shares between versions), and the wrangled table assembled
// from page records without copying.
func (w *Wrangler) shardMergeStage(sr *shardRun) error {
	if sr.empty {
		return nil
	}
	w.results, w.groups = sr.results, sr.groups
	w.trust = sr.opts.Trust

	// Delta reconciliation: adopt the previous page's records wherever
	// the shard fused to identical rows. Results stay fresh (confidences
	// and trust may drift even when every winning value held), so only
	// the record storage — what publication would otherwise allocate and
	// retain again — is shared. The same pass computes the version's
	// ChangeSet: which shards rebuilt, and which records within them
	// actually moved — the summary watchers receive so their per-version
	// payload is O(delta), not O(table). A session that left
	// IntegrationShards at 0 publishes every version as a full change
	// instead: its watchers (cmd/wrangle -serve's default frames) expect
	// every row.
	shared := make([]bool, len(sr.pages))
	for i := range sr.pages {
		if i < len(w.pages) && sr.pages[i].rowsEqual(w.pages[i]) {
			sr.pages[i].entities = w.pages[i].entities
			sr.pages[i].rows = w.pages[i].rows
			shared[i] = true
		}
	}
	if w.IntegrationShards > 0 {
		w.lastChange = changeSet(w.pages, sr.pages, shared)
	} else {
		w.lastChange = serve.ChangeSet{Full: true}
	}
	w.pages = sr.pages

	// Stable merge: entities are disjoint across shards, so sorting the
	// concatenation by entity reproduces one global fuse's row order
	// regardless of shard count or finish order.
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
// the page heads yields the global entity order with nothing to sort.
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

// changeSet summarises what the freshly merged pages changed against the
// previous integration — the per-version delta the change feed pushes to
// watchers of sessions with IntegrationShards set. Shards whose pages share their predecessor's records contribute
// nothing; rebuilt shards are diffed record by record (pages keep their
// entities sorted, so each diff is one linear merge walk over the two
// pages — O(changed pages), never O(table)). Without a previous
// integration to diff against the whole version is a full change.
func changeSet(prev, cur []*shardPage, shared []bool) serve.ChangeSet {
	if len(prev) == 0 || len(prev) != len(cur) {
		return serve.ChangeSet{Full: true}
	}
	cs := serve.ChangeSet{}
	changed := map[string]bool{}
	removed := map[string]bool{}
	for i := range cur {
		if shared[i] {
			cs.SharedPages++
			continue
		}
		cs.ChangedPages++
		cs.ChangedShards = append(cs.ChangedShards, i)
		diffPage(prev[i], cur[i], changed, removed)
	}
	for e := range changed {
		// An entity routed to a new owner shard is removed from one page
		// and (re)appears in another: that is a change, not a removal.
		delete(removed, e)
		cs.ChangedRecords = append(cs.ChangedRecords, e)
	}
	for e := range removed {
		cs.RemovedRecords = append(cs.RemovedRecords, e)
	}
	// Publish sorts the slices (ChangeSet normalization); no need here.
	return cs
}

// diffPage walks two entity-sorted pages in one merge pass, recording the
// entities the new page added or rewrote and the ones it dropped.
func diffPage(prev, cur *shardPage, changed, removed map[string]bool) {
	i, j := 0, 0
	var np, nc int
	if prev != nil {
		np = len(prev.entities)
	}
	if cur != nil {
		nc = len(cur.entities)
	}
	for i < np || j < nc {
		switch {
		case i >= np:
			changed[cur.entities[j]] = true
			j++
		case j >= nc:
			removed[prev.entities[i]] = true
			i++
		case prev.entities[i] == cur.entities[j]:
			if !prev.rows[i].Equal(cur.rows[j]) {
				changed[cur.entities[j]] = true
			}
			i++
			j++
		case prev.entities[i] < cur.entities[j]:
			removed[prev.entities[i]] = true
			i++
		default:
			changed[cur.entities[j]] = true
			j++
		}
	}
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
// version published after a one-shard reaction shares every untouched
// shard's records with its predecessor.
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
