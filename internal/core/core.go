// Package core implements the paper's primary contribution: the abstract
// wrangling architecture of Figure 1 as an autonomic, context-aware,
// pay-as-you-go pipeline. A Wrangler wires Data Extraction and Data
// Integration over a Working Data store (wrappers, extractions, matches,
// mappings, clusterings, fused results, quality scorecards, feedback and
// provenance), self-configures from the user and data contexts instead of
// a hand-wired workflow, and reacts to feedback and source churn by
// recomputing only the artefacts the provenance graph marks as affected
// (§2.4, §4.2).
package core

import (
	"context"
	"fmt"
	"hash/fnv"
	"runtime/debug"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"

	wctx "repro/internal/context"
	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/er"
	"repro/internal/extract"
	"repro/internal/feedback"
	"repro/internal/fusion"
	"repro/internal/html"
	"repro/internal/intern"
	"repro/internal/mapping"
	"repro/internal/match"
	"repro/internal/provenance"
	"repro/internal/quality"
	"repro/internal/serve"
	"repro/internal/sources"
)

// Config names the schema roles the pipeline needs: the target schema
// plus which columns serve as entity key, fuzzy name, categorical and
// numeric evidence for entity resolution, and the freshness timestamp.
type Config struct {
	Target          dataset.Schema
	KeyColumn       string
	NameColumn      string
	SecondaryColumn string
	NumericColumn   string
	TimeColumn      string
}

// ProductConfig is the canonical e-commerce configuration (Examples 1-2).
func ProductConfig() Config {
	return Config{
		Target: dataset.MustSchema(
			dataset.Field{Name: "sku", Kind: dataset.KindString},
			dataset.Field{Name: "name", Kind: dataset.KindString},
			dataset.Field{Name: "brand", Kind: dataset.KindString},
			dataset.Field{Name: "category", Kind: dataset.KindString},
			dataset.Field{Name: "price", Kind: dataset.KindFloat},
			dataset.Field{Name: "rating", Kind: dataset.KindFloat},
			dataset.Field{Name: "updated", Kind: dataset.KindTime},
		),
		KeyColumn:       "sku",
		NameColumn:      "name",
		SecondaryColumn: "brand",
		NumericColumn:   "price",
		TimeColumn:      "updated",
	}
}

// LocationConfig is the business-locations configuration (Example 3).
func LocationConfig() Config {
	return Config{
		Target: dataset.MustSchema(
			dataset.Field{Name: "name", Kind: dataset.KindString},
			dataset.Field{Name: "category", Kind: dataset.KindString},
			dataset.Field{Name: "street", Kind: dataset.KindString},
			dataset.Field{Name: "city", Kind: dataset.KindString},
			dataset.Field{Name: "postcode", Kind: dataset.KindString},
			dataset.Field{Name: "lat", Kind: dataset.KindFloat},
			dataset.Field{Name: "lon", Kind: dataset.KindFloat},
			dataset.Field{Name: "url", Kind: dataset.KindString},
		),
		KeyColumn:       "url",
		NameColumn:      "name",
		SecondaryColumn: "city",
		NumericColumn:   "lat",
		TimeColumn:      "",
	}
}

// sourceState is the per-source slice of the working data store.
type sourceState struct {
	wrapper   *extract.Wrapper // HTML sources only
	extracted *dataset.Table   // raw extraction
	mapping   *mapping.Mapping
	mapped    *dataset.Table // in target schema; records immutable once installed (the union shares them)
	// What the integration tail derives from a mapped record alone, computed
	// once per source generation (derive) instead of once per reaction: the
	// FD profile's cell strings and the resolver's row features. A refresh
	// installs a fresh sourceState, so they die with the generation.
	cells     *quality.Cells
	feats     *er.Derived
	quality   mapping.Quality
	scorecard quality.Scorecard
	selected  bool
	utility   float64
}

// RunStats reports what a (re)computation touched — the measure the
// incremental experiments compare.
type RunStats struct {
	SourcesProcessed int
	SourcesSelected  int
	RowsExtracted    int
	RowsWrangled     int
	Reextracted      []string // sources whose extraction was recomputed
	WrapperRepairs   int
	// Failures records the sources skipped by best-effort processing:
	// source id → error text. Panics carry the captured stack, so a
	// programming bug that poisons a source stays visible even though it
	// no longer fails the run.
	Failures map[string]string
	Duration time.Duration
	// Stages attributes the run's wall clock to pipeline stages, from the
	// engine's per-task timings: "sources" sums every per-source
	// extract/match/map chain (parallel work — the stage total can exceed
	// Duration when chains overlap), "select" covers the merge barrier plus
	// selection, "integrate" the resolve/fuse tail, which is further split
	// by DAG stage — "replan", "resolve", "trust", "fuse", "merge" (shard
	// fan-outs summed). A full tail also names the steps of its front half
	// (replanSplit): "replan.union", "replan.fd_repair", "replan.prepare"
	// and "replan.plan", which add up to "replan" and are not accrued into
	// "integrate" a second time. Every tail likewise names the steps inside
	// "trust" (trustSplit): "trust.name" (numbering the clustering, its
	// provenance record and naming the entities), "trust.claims" (laying
	// the claims out in groups), "trust.prepare" (adopting and preparing
	// the groups), "trust.layout" (laying the fixpoint's components out)
	// and "trust.fixpoint" (iterating them), which sum to at most "trust"
	// (its task also pays the engine's bookkeeping). A run
	// that first rebuilt the working state of a durable restore names that
	// rebuild "restore". Published snapshot
	// versions carry these, so a bench regression attributes to a stage.
	Stages map[string]time.Duration
	// TrustComponents is how many trust-coupled connected components the
	// tail's TruthFinder fixpoint split the claim set into; every one of
	// them iterates. Zero for non-TruthFinder policies and empty tails.
	TrustComponents int
}

// Wrangler is the Figure-1 architecture instance. Sources arrive through
// a sources.Provider — the synthetic Universe, files on disk, or any
// other backend — so the orchestrator never depends on where data lives.
type Wrangler struct {
	Provider sources.Provider
	UserCtx  *wctx.UserContext
	DataCtx  *wctx.DataContext
	Feedback *feedback.Store
	Prov     *provenance.Graph
	Config   Config
	// Parallelism bounds how many sources are processed concurrently:
	// 0 means auto (one worker per CPU), 1 forces sequential execution,
	// n > 1 uses n workers. Parallel runs are byte-identical to
	// sequential ones — per-source work fans out on the engine, results
	// merge in stable provider order.
	Parallelism int
	// Serve is the versioned copy-on-write snapshot store the wrangler
	// publishes into at the end of every successful run, feedback reaction
	// and refresh. Readers hold committed versions lock-free; replace the
	// store (before the first run) to change its retention bound.
	Serve *VersionStore
	// IntegrationShards splits the integration tail into this many
	// disjoint blocking shards that resolve as parallel engine tasks and
	// as many contiguous entity ranges that fuse as parallel engine
	// tasks, merging deterministically: the output is byte-identical at
	// every shard count. 0 (the default) runs
	// the same tail at one shard. Every reaction recomputes a partial
	// tail: the reaction planner diffs the new union against the memoized
	// previous one, re-plans incrementally (er.RePlan) and re-resolves
	// only dirty shards, reusing every untouched shard's clusters by
	// reference. Trust is re-estimated over all claims (keeping the
	// prepared state of claim groups that held) and every fuse part fuses
	// its entity range under it, re-voting only the contested groups of
	// the entities whose claims held where trust cannot move the rest;
	// publication diffs the rows against the previous version's, and
	// published versions share the table record of every entity whose
	// record is Same as before. The
	// one thing 0 changes against 1 is the change feed: a session left at
	// 0 publishes every version as a full change (serve.ChangeSet.Full),
	// one set to n >= 1 publishes record deltas.
	IntegrationShards int
	// Deprecated: every tail streams; nothing reads this field.
	StreamingRefresh bool

	states       map[string]*sourceState
	resolver     *er.Resolver
	union        *dataset.Table
	unionSources []string            // per-row source id
	unionKeys    []string            // per-row stable "source#idx" key, interned; rebuilt by buildUnion
	unionIndex   map[string]int      // row key -> union row, cached beside unionKeys
	unionIDs     []string            // the selected source ids the union was built from, sorted
	unionStarts  []int               // per unionIDs entry: its first union row
	fdDict       *quality.Dictionary // ids behind the FD profile; outlives unions so unchanged sources stay translated
	split        replanSplit         // the last full tail's front half, by step
	interner     *intern.Table       // run-lifetime interner behind unionKeys and entity ids
	clusters     *er.Clustering
	entityIDs    []string    // per union row: fused entity id; the wrangler's own, never shared
	entities     entityIndex // the clustering read entity by entity
	namesKept    int         // entities the last naming carried over (carryNames); 0 when it named all afresh
	results      []fusion.Result
	groups       *fusion.ClaimGroups // the claim groups results was fused from, parallel to it
	freeFused    *fusion.ClaimGroups // groups, when the last merge fused results from them under trust-free options; else nil
	handed       handOff             // what the last merge's fuse handed on, for publish
	pins         map[string]float64  // per source: a trust fusion pins over the feedback-derived one; only tests set it, to reach trust's edges
	laidFrom     layout              // what groups was laid out from
	wrangled     *dataset.Table
	trust        map[string]float64
	rowEntities  []string        // per wrangled-table row: its entity id, sorted; never written (writers build a fresh one), so publications alias it
	lastPub      *publication    // what the last publish committed: the base the next one diffs against
	memo         *tailMemo       // the last integrated tail, diffable; nil after a failed or restored-without-memo tail
	dirtySources map[string]bool // sources installed since the memoized tail; persisted, gates the restore's memo rebuild
	lastSeq      int
	lastTrust    fusion.TrustStats // component shape of the last tail's trust estimation
	log          *DurableLog       // durable sessions: every publication appends here
	restore      *pendingRestore   // a restore whose working state resume has yet to rebuild
	restoreErr   error             // that rebuild's failure, returned by every later reaction
	met          *pipelineMetrics  // nil unless SetMetrics enabled telemetry
	LastStats    RunStats
}

// New builds a wrangler over a source provider with the given contexts.
// userCtx may be nil (uniform weights); dataCtx may be nil (no auxiliary
// data).
func New(p sources.Provider, cfg Config, userCtx *wctx.UserContext, dataCtx *wctx.DataContext) *Wrangler {
	if userCtx == nil {
		userCtx = wctx.DefaultUserContext()
	}
	if dataCtx == nil {
		dataCtx = wctx.NewDataContext()
	}
	return &Wrangler{
		Provider: p,
		UserCtx:  userCtx,
		DataCtx:  dataCtx,
		Feedback: feedback.NewStore(),
		Prov:     provenance.NewGraph(),
		Config:   cfg,
		Serve:    NewVersionStore(serve.DefaultRetain),
		states:   map[string]*sourceState{},
		trust:    map[string]float64{},
		interner: intern.New(),
	}
}

// Run executes the full pipeline: extract every source, match and map to
// the target schema, select sources under the user context, resolve
// entities and fuse. It returns the wrangled table.
func (w *Wrangler) Run() (*dataset.Table, error) {
	return w.RunContext(context.Background())
}

// RunContext is Run with cooperative cancellation. The run is executed as
// a task DAG on the engine: every source's extract/match/map chain is an
// independent task fanning out over Parallelism workers, a barrier merges
// the per-source outcomes in stable provider order and feeds selection,
// then integration and fusion run. Cancellation is checked at every task
// boundary, so a caller can abandon a long wrangle mid-fan-out: the run
// returns ctx.Err() and no partially-fanned-out outcome is merged into
// the working data.
func (w *Wrangler) RunContext(ctx context.Context) (*dataset.Table, error) {
	return w.run(ctx, nil)
}

// run is RunContext with each source's chain started from its state in
// prevs — what a full rerun keeps of the working data — or, when prevs is
// nil, from the working data itself.
func (w *Wrangler) run(ctx context.Context, prevs map[string]*sourceState) (*dataset.Table, error) {
	start := time.Now()
	restored, err := w.resume()
	if err != nil {
		return nil, err
	}
	if prevs == nil {
		prevs = w.states
	}
	w.LastStats = RunStats{}
	w.lastTrust = fusion.TrustStats{} // an empty tail reports no components
	srcs := w.Provider.List()
	outcomes := make([]*sourceOutcome, len(srcs))
	g := engine.NewGraph()
	deps := make([]string, len(srcs))
	for i, s := range srcs {
		i, s := i, s
		prev := prevs[s.ID] // read before fan-out; installs happen at the barrier
		deps[i] = fmt.Sprintf("source[%03d] %s", i, s.ID)
		if err := g.Add(deps[i], func(context.Context) error {
			// Per-source failures are recorded in the outcome, not
			// returned: a source that cannot be wrangled is skipped, not
			// fatal — best-effort is the contract (§2.1).
			outcomes[i] = w.computeSource(s, prev, false)
			return nil
		}); err != nil {
			return nil, err
		}
	}
	if err := g.Add("select", func(context.Context) error {
		for _, o := range outcomes {
			_ = w.installOutcome(o)
		}
		w.selectSources()
		return nil
	}, deps...); err != nil {
		return nil, err
	}
	// The tail records its memo at the merge, so the first reaction after
	// the run is already a partial tail.
	sr := &shardRun{}
	if err := w.addIntegrationTasks(g, sr, "select"); err != nil {
		return nil, err
	}
	w.instrumentGraph(g)
	if err := g.Run(ctx, w.workers()); err != nil {
		// The tail may have stopped between stages; the memoized state no
		// longer describes one coherent integration.
		w.memo = nil
		return nil, err
	}
	w.LastStats.Stages = stageTimings(g.Timings())
	w.split.record(w.LastStats.Stages)
	sr.split.record(w.LastStats.Stages)
	recordRestore(w.LastStats.Stages, restored)
	w.LastStats.Duration = time.Since(start)
	w.LastStats.TrustComponents = w.lastTrust.Components
	w.publish(serve.OriginRun, ReactStats{})
	return w.wrangled, nil
}

// stageTimings folds the engine's per-task wall clock into per-stage
// attribution: every "source[...]" task accrues to "sources", and the
// integration tail's tasks are split by DAG stage — "replan" (union
// build + shard planning or incremental re-plan), "resolve", "trust"
// (cluster barrier + trust estimation), "fuse" and "merge" — so published
// versions attribute exactly where a partial reaction saved its time.
// Every tail task additionally accrues to the aggregate "integrate" key.
func stageTimings(tasks map[string]time.Duration) map[string]time.Duration {
	stages := make(map[string]time.Duration, 8)
	for id, d := range tasks {
		stage, tail := stageOf(id)
		stages[stage] += d
		if tail {
			stages["integrate"] += d
		}
	}
	return stages
}

// stageOf maps an engine task ID to its pipeline stage name, and reports
// whether the task belongs to the integration tail (and so also accrues
// to the aggregate "integrate" key). It is the single source of stage
// attribution, shared by stageTimings and the per-task telemetry spans.
func stageOf(id string) (stage string, tail bool) {
	switch {
	case strings.HasPrefix(id, "source["):
		return "sources", false
	case id == "integrate:plan":
		return "replan", true
	case id == "integrate:cluster":
		return "trust", true
	case id == "integrate:merge":
		return "merge", true
	case strings.HasPrefix(id, "resolve["):
		return "resolve", true
	case strings.HasPrefix(id, "fuse["):
		return "fuse", true
	default:
		return id, false
	}
}

// workers resolves the wrangler's configured parallelism degree.
func (w *Wrangler) workers() int { return engine.Workers(w.Parallelism) }

// shards is the integration tail's shard count: IntegrationShards, and
// one for a session that left it at 0.
func (w *Wrangler) shards() int { return max(1, w.IntegrationShards) }

// provPut is a deferred provenance registration. Outcomes carry their puts
// instead of writing to the graph directly, so the merge step can replay
// them in stable source order — provenance steps stay deterministic under
// parallel execution.
type provPut struct {
	ref       provenance.Ref
	component string
	inputs    []provenance.Ref
	note      string
}

// sourceOutcome is everything processing one source produces, kept off the
// shared working data until installOutcome merges it. computeSource fills
// it concurrently; installOutcome applies it under the run's merge order.
type sourceOutcome struct {
	id        string
	st        *sourceState
	extracted bool // the extraction stage succeeded
	rows      int  // rows extracted
	repairs   int  // wrapper repairs performed
	prov      []provPut
	err       error
}

func (o *sourceOutcome) put(ref provenance.Ref, component string, inputs []provenance.Ref, note string) {
	o.prov = append(o.prov, provPut{ref: ref, component: component, inputs: inputs, note: note})
}

// computeSource runs one source's extract/match/map/score chain against a
// snapshot of the previous state. It only reads shared working data
// (contexts, config, master data); every result — new state, stats
// deltas, provenance records, the error — goes into the returned outcome,
// which makes it safe to run for many sources concurrently. It is the
// unit of incremental recomputation and the unit the engine parallelises.
//
// A panic anywhere in the chain is confined to this source: it becomes
// the outcome's error (carrying the captured stack, surfaced through
// RunStats.Failures), so a poisoned source is skipped like any other
// broken one instead of failing the run (best-effort, §2.1).
//
// reinduce discards the previously induced wrapper so HTML extraction
// re-learns it from scratch — the wrapper_broken feedback reaction.
// Otherwise a clone of the stored wrapper is reused and only repaired
// (extractions of structurally untouched sources are not re-learned).
func (w *Wrangler) computeSource(s *sources.Source, prev *sourceState, reinduce bool) (o *sourceOutcome) {
	o = &sourceOutcome{id: s.ID, st: &sourceState{}}
	defer func() {
		if r := recover(); r != nil {
			o.err = fmt.Errorf("core: source %s panicked: %v\n%s", o.id, r, debug.Stack())
		}
	}()
	st := o.st
	// A re-processed source (refresh, wrapper repair) keeps its selection:
	// incremental reactions must not silently drop it from integration.
	// The new state is only installed on success, so a failed
	// re-processing keeps the previous good working data too.
	if prev != nil {
		st.selected = prev.selected
		if !reinduce {
			// Cloned because Repair relabels wrapper fields in place; the
			// stored wrapper must stay untouched if this processing fails.
			st.wrapper = prev.wrapper.Clone()
		}
	}
	srcRef := provenance.Ref{Kind: provenance.KindSource, ID: s.ID}
	o.put(srcRef, "sources", nil, string(s.Kind))

	// --- Data Extraction ---
	reusingWrapper := st.wrapper != nil
	tab, repairs, err := w.extractSource(s, st)
	if err != nil {
		o.err = err
		return o
	}
	st.extracted = tab
	o.extracted = true
	o.rows = tab.Len()
	o.repairs = repairs
	extRef := provenance.Ref{Kind: provenance.KindExtraction, ID: s.ID}
	inputs := []provenance.Ref{srcRef}
	if st.wrapper != nil {
		// Provenance must say what actually happened: a wrapper carried
		// over from the previous round and merely repaired is not a fresh
		// induction (unless repair had to re-induce it).
		comp := "extract.Induce"
		if reusingWrapper && repairs == 0 {
			comp = "extract.Reuse"
		}
		wrapRef := provenance.Ref{Kind: provenance.KindWrapper, ID: s.ID}
		o.put(wrapRef, comp, []provenance.Ref{srcRef}, "")
		inputs = append(inputs, wrapRef)
	}
	o.put(extRef, "extract.Run", inputs, "")

	// --- Matching & mapping (Data Integration, schema level) ---
	opts := []match.Option{}
	if w.DataCtx.Taxonomy != nil {
		opts = append(opts, match.WithTaxonomy(w.DataCtx.Taxonomy))
	}
	if samples := w.DataCtx.MasterSamples(60); samples != nil {
		opts = append(opts, match.WithSamples(samples))
	}
	matcher := match.NewMatcher(w.Config.Target, opts...)
	corrs, err := matcher.Match(tab)
	if err != nil {
		o.err = fmt.Errorf("core: match %s: %w", s.ID, err)
		return o
	}
	m := mapping.Generate("map-"+s.ID, s.ID, w.Config.Target, corrs)
	st.mapping = m
	mapRef := provenance.Ref{Kind: provenance.KindMapping, ID: s.ID}
	o.put(mapRef, "mapping.Generate", []provenance.Ref{extRef}, "")

	q, err := mapping.EstimateQuality(m, tab, w.DataCtx.MasterData, w.Config.KeyColumn)
	if err != nil {
		o.err = fmt.Errorf("core: estimate quality %s: %w", s.ID, err)
		return o
	}
	st.quality = q
	mapped, err := m.Apply(tab)
	if err != nil {
		o.err = fmt.Errorf("core: apply mapping %s: %w", s.ID, err)
		return o
	}
	// Corroborate against master data: systematic unit drift (prices in
	// cents) is an extraction-level error repaired before integration.
	if w.DataCtx.MasterData != nil {
		extract.RepairUnits(mapped, w.DataCtx.MasterData)
		extract.RepairUnitCells(mapped, w.DataCtx.MasterData)
	}
	// Backfill the freshness column for sources that don't publish one.
	w.backfillTime(mapped, s)
	st.mapped = mapped
	w.derive(st)

	sc, err := quality.Assess(mapped, w.DataCtx.MasterData, w.Config.KeyColumn,
		w.Config.TimeColumn, sources.AsOf(w.Provider.Clock()), 24*time.Hour, nil)
	if err != nil {
		o.err = fmt.Errorf("core: assess %s: %w", s.ID, err)
		return o
	}
	st.scorecard = sc
	o.put(provenance.Ref{Kind: provenance.KindQuality, ID: s.ID}, "quality.Assess", []provenance.Ref{mapRef}, "")
	return o
}

// installOutcome merges one outcome into the shared working data: run
// stats, provenance records and — on success — the new source state.
// Callers invoke it in stable source order, which is what makes a
// parallel run's working data byte-identical to a sequential run's. A
// failed outcome still contributes the stats and provenance of the stages
// it completed (exactly as the sequential pipeline did) and returns the
// error without touching the stored state.
func (w *Wrangler) installOutcome(o *sourceOutcome) error {
	w.LastStats.SourcesProcessed++
	for _, p := range o.prov {
		w.Prov.Put(p.ref, p.component, p.inputs, p.note)
	}
	if o.extracted {
		w.LastStats.RowsExtracted += o.rows
		w.LastStats.Reextracted = append(w.LastStats.Reextracted, o.id)
		w.LastStats.WrapperRepairs += o.repairs
	}
	if o.err != nil {
		if w.LastStats.Failures == nil {
			w.LastStats.Failures = map[string]string{}
		}
		w.LastStats.Failures[o.id] = o.err.Error()
		if w.met != nil {
			w.met.sourceFailures.Inc()
		}
		return o.err
	}
	w.states[o.id] = o.st
	// The source's working data diverged from the last integrated tail
	// (cleared when a full tail commits a fresh memo). The durable log
	// persists the set: a restore may only rebuild the memo over a union
	// no installed-but-never-integrated source has moved away from.
	// Accumulating here — not per reaction — keeps it sound even when a
	// reaction installs some sources and then aborts before its tail.
	if w.dirtySources == nil {
		w.dirtySources = map[string]bool{}
	}
	w.dirtySources[o.id] = true
	return nil
}

// extractSource turns a raw source into a table: codec parse for CSV/JSON,
// wrapper induction + execution (+ repair) for HTML. It reports how many
// wrapper repairs were performed alongside the table.
func (w *Wrangler) extractSource(s *sources.Source, st *sourceState) (*dataset.Table, int, error) {
	switch s.Kind {
	case sources.KindCSV:
		tab, err := dataset.ReadCSV(strings.NewReader(s.Payload()))
		return tab, 0, err
	case sources.KindJSON:
		tab, err := dataset.ReadJSON(strings.NewReader(s.Payload()))
		return tab, 0, err
	case sources.KindKV:
		tab, err := dataset.ReadKV(strings.NewReader(s.Payload()))
		return tab, 0, err
	case sources.KindHTML:
		page := html.Parse(s.Payload())
		wr := st.wrapper
		if wr == nil {
			var err error
			wr, err = extract.Induce(s.ID, page, w.DataCtx.Taxonomy)
			if err != nil {
				return nil, 0, err
			}
		}
		// Joint wrapper+data repair, informed by master data when present.
		wr2, tab, rep, err := extract.Repair(wr, page, w.DataCtx.MasterData, w.DataCtx.Taxonomy)
		if err != nil {
			return nil, 0, err
		}
		repairs := 0
		if rep.Reinduced {
			repairs = 1
		}
		st.wrapper = wr2
		return tab, repairs, nil
	default:
		return nil, 0, fmt.Errorf("core: unknown source kind %q", s.Kind)
	}
}

// backfillTime fills null freshness cells with the source's snapshot time.
func (w *Wrangler) backfillTime(mapped *dataset.Table, s *sources.Source) {
	if w.Config.TimeColumn == "" {
		return
	}
	tc := mapped.Schema().Index(w.Config.TimeColumn)
	if tc < 0 {
		return
	}
	asOf := dataset.Time(sources.AsOf(s.SnapshotClock))
	for i := 0; i < mapped.Len(); i++ {
		if mapped.Row(i)[tc].IsNull() {
			mapped.Row(i)[tc] = asOf
		}
	}
}

// selectSources ranks sources by context-weighted utility and keeps the
// top MaxSources (§2.1 compromise). Feedback relevance votes act as an
// additional relevance signal (§2.4 shared feedback).
func (w *Wrangler) selectSources() {
	rel := w.Feedback.SourceRelevance()
	type ranked struct {
		id      string
		utility float64
	}
	var all []ranked
	for id, st := range w.states {
		if st.mapped == nil {
			continue
		}
		scores := map[wctx.Criterion]float64{
			wctx.Completeness: st.quality.Completeness,
			wctx.Relevance:    relevanceScore(rel[id], st.quality.Coverage),
		}
		if !isNaN(st.scorecard.Accuracy) {
			scores[wctx.Accuracy] = st.scorecard.Accuracy
		}
		if !isNaN(st.scorecard.Timeliness) {
			scores[wctx.Timeliness] = st.scorecard.Timeliness
		}
		st.utility = w.UserCtx.Score(scores)
		all = append(all, ranked{id: id, utility: st.utility})
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].utility != all[j].utility {
			return all[i].utility > all[j].utility
		}
		return all[i].id < all[j].id
	})
	limit := len(all)
	if w.UserCtx.MaxSources > 0 && w.UserCtx.MaxSources < limit {
		limit = w.UserCtx.MaxSources
	}
	for i, r := range all {
		w.states[r.id].selected = i < limit
	}
	w.LastStats.SourcesSelected = limit
}

func relevanceScore(votes, coverage float64) float64 {
	// Coverage of the master catalogue is the base relevance signal;
	// explicit votes shift it.
	s := coverage + 0.1*votes
	if s < 0 {
		return 0
	}
	if s > 1 {
		return 1
	}
	return s
}

func isNaN(f float64) bool { return f != f }

// derive computes what the integration tail reads off st's mapped records
// alone. It runs inside computeSource — on the per-source engine fan-out,
// not the serial tail — and again only for states that arrived without
// (a restored log's).
func (w *Wrangler) derive(st *sourceState) {
	st.cells = quality.EncodeCells(st.mapped)
	st.feats = w.newResolver().Derive(st.mapped)
}

func (w *Wrangler) newResolver() *er.Resolver {
	return er.NewResolver(w.Config.KeyColumn, w.Config.NameColumn, w.Config.SecondaryColumn, w.Config.NumericColumn)
}

// replanSplit is the wall clock of a full tail's front half, by step:
// assembling the union, FD profile + repair, resolver hand-over + feedback
// refinement + Prepare, and constraints + delta + blocking/shard planning.
type replanSplit struct{ union, fdRepair, prepare, plan time.Duration }

// record names the steps in a stage map; a tail that never built a union
// (fuse-only) records nothing.
func (s replanSplit) record(stages map[string]time.Duration) {
	if s == (replanSplit{}) {
		return
	}
	stages["replan.union"] = s.union
	stages["replan.fd_repair"] = s.fdRepair
	stages["replan.prepare"] = s.prepare
	stages["replan.plan"] = s.plan
}

// trustSplit is the wall clock of a tail's trust stage, by step: numbering
// the clustering and naming its entities (zero on a fuse-only tail, which
// keeps both), building and grouping the claims (zero when a fuse-only
// tail took the memo's groups), then fusion's own split — adopting and
// preparing groups, laying the fixpoint out (zero when a fuse-only tail
// took the memo's layout), and iterating it.
type trustSplit struct {
	name, claims time.Duration
	fusion.TrustSplit
}

// record names the steps in a stage map; a tail that never reached the
// trust barrier (nothing to integrate) records nothing.
func (s trustSplit) record(stages map[string]time.Duration) {
	if s == (trustSplit{}) {
		return
	}
	stages["trust.name"] = s.name
	stages["trust.claims"] = s.claims
	stages["trust.prepare"] = s.Prepare
	stages["trust.layout"] = s.Layout
	stages["trust.fixpoint"] = s.Fixpoint
}

// buildUnion assembles the union table from the selected mapped tables,
// repairs profiled FD violations, and prepares the resolver (including
// Corleone-style refinement from pair feedback). It is the head of the
// integration tail's plan stage and of a durable restore. empty reports
// that there was nothing to integrate — the working data has already been
// reset to an empty result.
//
// The union is copy-on-write: it holds the sources' mapped records by
// reference, and FD repair replaces a record by a clone before the first
// cell it rewrites. Union records are therefore immutable once shared,
// and record identity (&row[0]) means "content unchanged" to everything
// downstream — the planner's delta, the resolver's seeded derivations —
// with no memo needed to establish it. Every per-record derivation comes
// from the source's generation (derive); what stays global here is integer
// work: assembling the FD profile and interning new records' features.
func (w *Wrangler) buildUnion() (empty bool, err error) {
	cells, feats, empty, err := w.assembleUnion()
	if empty || err != nil {
		return empty, err
	}
	if err := w.repairUnion(cells); err != nil {
		return false, err
	}
	w.prepareResolver(feats)
	return false, nil
}

// assembleUnion is buildUnion up to FD repair: it assembles the union from
// the selected sources and returns their FD cells and row derivations, in
// union order, for repairUnion and prepareResolver.
func (w *Wrangler) assembleUnion() (cells []*quality.Cells, feats []*er.Derived, empty bool, err error) {
	start := time.Now()
	w.split = replanSplit{}
	w.unionSources = w.unionSources[:0]
	w.unionKeys, w.unionIndex = nil, nil // derived from unionSources; rebuilt lazily
	w.unionIDs = w.selectedIDs()
	rows := 0
	for _, id := range w.unionIDs {
		rows += w.states[id].mapped.Len()
	}
	w.union = dataset.NewTableCap(w.Config.Target.Clone(), rows)
	w.unionStarts = make([]int, len(w.unionIDs))
	// A source restored from the log carries no derivations yet: derive
	// them on the worker fan-out, as a live reaction does (computeSource).
	// Each derive reads only its state's mapped table and writes only that
	// state.
	var underived []*sourceState
	for _, id := range w.unionIDs {
		if st := w.states[id]; st.cells == nil {
			underived = append(underived, st)
		}
	}
	if err := engine.Map(context.Background(), w.workers(), len(underived), func(_ context.Context, i int) error {
		w.derive(underived[i])
		return nil
	}); err != nil {
		return nil, nil, false, err
	}
	cells = make([]*quality.Cells, len(w.unionIDs))
	feats = make([]*er.Derived, len(w.unionIDs))
	for k, id := range w.unionIDs {
		st := w.states[id]
		cells[k], feats[k] = st.cells, st.feats
		w.unionStarts[k] = w.union.Len()
		for _, r := range st.mapped.Rows() {
			w.union.Append(r)
			w.unionSources = append(w.unionSources, id)
		}
	}
	w.split.union = time.Since(start)
	if w.union.Len() == 0 {
		// Everything derived from the previous union goes with it — a
		// later fuse-only reaction must not find clusters, entity ids or
		// trust describing rows that no longer exist.
		w.wrangled = dataset.NewTable(w.Config.Target.Clone())
		w.clusters = nil
		w.entityIDs = nil
		w.entities = entityIndex{}
		w.trust = map[string]float64{}
		w.results = nil
		w.groups, w.freeFused, w.handed = nil, nil, handOff{}
		w.rowEntities = nil
		w.memo = nil // nothing integrated: nothing for the next tail to diff against
		return nil, nil, true, nil
	}
	return cells, feats, false, nil
}

// repairUnion repairs the assembled union's FD violations, from the
// sources' FD cells.
func (w *Wrangler) repairUnion(cells []*quality.Cells) error {
	// Profile the integrated data for near-exact functional dependencies
	// (e.g. sku -> brand) and repair their violations — typos introduced
	// by individual sources are outvoted by their own key group before
	// entity resolution sees them (cost-based repair, quality package).
	// FD repair is the one stage that can rewrite a row whose source did
	// not change; it does so on a clone, so such a row shows up downstream
	// as a new record.
	start := time.Now()
	if w.fdDict == nil {
		w.fdDict = quality.NewDictionary(len(w.Config.Target))
	}
	if _, _, _, err := quality.RepairProfile(w.union, w.fdDict.Profile(cells...), 0.9); err != nil {
		return fmt.Errorf("core: profile repair: %w", err)
	}
	w.split.fdRepair = time.Since(start)
	return nil
}

// prepareResolver is the rest of buildUnion: the new resolver takes over
// its predecessor's registries and is seeded with the sources' derivations
// (feats), so preparing re-derives only the records FD repair cloned and
// interns only records it has not seen.
func (w *Wrangler) prepareResolver(feats []*er.Derived) {
	start := time.Now()
	prev := w.resolver
	w.resolver = w.newResolver()
	w.resolver.Carry(prev)
	w.resolver.Seed(feats...)
	w.applyPairFeedback()
	w.resolver.Prepare(w.union)
	w.split.prepare = time.Since(start)
}

// applyPairFeedback feeds accumulated duplicate labels into the resolver
// (Corleone-style refinement) before clustering.
func (w *Wrangler) applyPairFeedback() {
	labels := w.labeledPairs()
	if len(labels) < 4 {
		return
	}
	training := make([]er.LabeledPair, len(labels))
	for k, l := range labels {
		training[k] = l.LabeledPair
	}
	w.resolver.Learn(w.union, training)
}

// pairConstraints turns confident pair feedback into hard clustering
// constraints: must-links for duplicate labels, cannot-links for
// not-duplicate labels. Only high-confidence labels qualify — an expert
// annotation (weight 1) or a high-agreement crowd majority (|net score|
// >= 0.75); weak majorities stay training signal only, since feedback
// "may be unreliable" (§4.2).
func (w *Wrangler) pairConstraints() (must, cannot []er.Pair) {
	for _, l := range w.labeledPairs() {
		switch {
		case l.score >= 0.75:
			must = append(must, l.Pair)
		case l.score <= -0.75:
			cannot = append(cannot, l.Pair)
		}
	}
	return must, cannot
}

// labeledPair is one decided pair label resolved to union rows, I < J,
// with the net score behind it (feedback.PairVerdict).
type labeledPair struct {
	er.LabeledPair
	score float64
}

// labeledPairs resolves every decided pair label against the current
// union, in pair-key order, parsing each key once. Labels naming a row
// the union does not hold, or one row twice, are skipped. The order is
// what makes the resolver's Learn, which sums features in label order,
// adopt the same weight bits on every run.
func (w *Wrangler) labeledPairs() []labeledPair {
	verdicts := w.Feedback.PairLabels()
	if len(verdicts) == 0 {
		return nil
	}
	rowByKey := w.rowKeyIndex()
	var out []labeledPair
	for _, v := range verdicts {
		a, b, ok := strings.Cut(v.Key, "|")
		if !ok {
			continue
		}
		i, iok := rowByKey[a]
		j, jok := rowByKey[b]
		if !iok || !jok || i == j {
			continue
		}
		p := er.Pair{I: min(i, j), J: max(i, j)}
		out = append(out, labeledPair{LabeledPair: er.LabeledPair{Pair: p, Duplicate: v.Duplicate}, score: v.Score})
	}
	return out
}

// rowKeyIndex maps "sourceID#rowIdxInSource" to union row index; this is
// the stable row addressing feedback uses. Derived from rowKeys
// (shard.go) so the one key format serves feedback addressing and shard
// routing alike, and cached beside them: a tail consults it for pair
// feedback and again for pair constraints. Read-only.
func (w *Wrangler) rowKeyIndex() map[string]int {
	keys := w.rowKeys()
	if w.unionIndex == nil || len(w.unionIndex) != len(keys) {
		w.unionIndex = make(map[string]int, len(keys))
		for i, k := range keys {
			w.unionIndex[k] = i
		}
	}
	return w.unionIndex
}

// RowKey returns the feedback addressing key for union row i.
func (w *Wrangler) RowKey(i int) string {
	w.resume()
	return w.rowKeys()[i]
}

// claimGroups lays the union's claims out in fusion's group order, entity
// by entity off the clustering: for each entity, each claimed attribute in
// name order, one claim per entity row in row order. That is exactly how
// fusion.GroupClaims would group the union's claims in row order, with no
// key per claim and no sort over them. Every entity claims every
// attribute, so entity e's groups start at e·len(cols), and the groups
// take those starts as they are. The freshness column feeds each claim's
// AsOf and is not itself claimed.
//
// An entity that kept its id, and whose rows are, row for row, Same
// records from the same sources as the rows the last layout grouped under
// that id (keptEntities), claims what it claimed then: it takes that
// layout's groups as they are, and the trust stage adopts their prepared
// state without comparing a claim. Only the other entities' claims are
// built, out of one slab. It returns the groups, what they were laid out
// from, and per entity the entity of the last layout whose groups it took
// whole, or -1. same is keptEntities'.
func (w *Wrangler) claimGroups(same []int32) (*fusion.ClaimGroups, layout, []int) {
	schema, tc, cols := w.claimedColumns()
	kept := w.keptEntities(schema, cols, same)
	fresh := 0
	for e, rows := range w.entities.rows {
		if kept[e] < 0 {
			fresh += len(rows)
		}
	}
	// Handed-on groups keep the slabs of earlier layouts alive. Once those
	// could hold more than twice the claims in use, everything is laid out
	// afresh and they can go, so memory stays within a constant factor of
	// the live claims; the trust stage then adopts prepared state by
	// comparing claims.
	slabs := w.laidFrom.slabs + fresh*len(cols)
	if slabs > 2*w.union.Len()*len(cols) {
		for e := range kept {
			kept[e] = -1
		}
		fresh, slabs = w.union.Len(), w.union.Len()*len(cols)
	}
	// One slab for the fresh entities' claims: every row claims every column.
	slab := make([]fusion.Claim, fresh*len(cols))
	groups := make([][]fusion.Claim, 0, len(w.entities.ids)*len(cols))
	starts := make([]int32, len(w.entities.ids)+1)
	k := 0
	for e, rows := range w.entities.rows {
		starts[e] = int32(len(groups))
		if pe := kept[e]; pe >= 0 {
			for c := range cols {
				groups = append(groups, w.groups.Group(pe*len(cols)+c))
			}
			continue
		}
		for _, ci := range cols {
			start := k
			for _, r := range rows {
				row := w.union.Row(r)
				c := &slab[k]
				c.Entity, c.Attribute, c.Value, c.SourceID = w.entities.ids[e], schema[ci].Name, row[ci], w.unionSources[r]
				if tc >= 0 && row[tc].Kind() == dataset.KindTime {
					c.AsOf = row[tc].TimeVal()
				}
				k++
			}
			groups = append(groups, slab[start:k:k])
		}
	}
	starts[len(w.entities.ids)] = int32(len(groups))
	return fusion.GroupedClaims(groups, starts), layout{w.union, w.entities, slabs}, kept
}

// claimedColumns returns the union's schema, its freshness column (-1
// when there is none) and the columns every row claims, in name order.
func (w *Wrangler) claimedColumns() (schema dataset.Schema, tc int, cols []int) {
	schema, tc = w.union.Schema(), -1
	if w.Config.TimeColumn != "" {
		tc = schema.Index(w.Config.TimeColumn)
	}
	for ci := range schema {
		if ci != tc {
			cols = append(cols, ci)
		}
	}
	slices.SortFunc(cols, func(a, b int) int { return strings.Compare(schema[a].Name, schema[b].Name) })
	return schema, tc, cols
}

// keptEntities maps each entity to its index in the layout w.groups was
// built from (w.laidFrom) when its claims are that layout's: the same id,
// and row for row a Same record from the same source. Every other entry
// is -1, as is every entry when there is no such layout or it claimed
// other attributes.
//
// same, when not nil, maps each union row to the row of the layout's
// union that holds the very same record — a row of a source this
// reaction did not rebuild, which FD repair cloned in neither union — or
// -1 (unionDelta). A row it maps onto its entity's row in the layout needs
// no look at either record; only the others are compared by value.
func (w *Wrangler) keptEntities(schema dataset.Schema, cols []int, same []int32) []int {
	kept := make([]int, len(w.entities.ids))
	for e := range kept {
		kept[e] = -1
	}
	prev, from := w.groups, w.laidFrom
	if prev == nil || from.union == nil || prev.Len() != len(from.entities.ids)*len(cols) || prev.Len() == 0 {
		return kept
	}
	for c, ci := range cols {
		if prev.Group(c)[0].Attribute != schema[ci].Name {
			return kept
		}
	}
	pe := 0
	for e, id := range w.entities.ids {
		for pe < len(from.entities.ids) && from.entities.ids[pe] < id {
			pe++
		}
		if pe == len(from.entities.ids) {
			break
		}
		rows, prevRows := w.entities.rows[e], from.entities.rows[pe]
		if from.entities.ids[pe] != id || len(rows) != len(prevRows) {
			continue
		}
		claims := prev.Group(pe * len(cols))
		held := true
		for k, r := range rows {
			if same != nil && int(same[r]) == prevRows[k] {
				continue
			}
			if w.unionSources[r] != claims[k].SourceID || !sameRecord(w.union.Row(r), from.union.Row(prevRows[k])) {
				held = false
				break
			}
		}
		if held {
			kept[e] = pe
		}
	}
	return kept
}

// materialize turns fused results, in group order, into one record per
// entity: entities ascending, the row order of a fuse part and, after the
// merge, of the wrangled table. An entity's results are adjacent, so each
// record fills in one run.
func materialize(results []fusion.Result, target dataset.Schema) (entities []string, rows []dataset.Record) {
	for i := 0; i < len(results); {
		j := i + 1
		for j < len(results) && results[j].Entity == results[i].Entity {
			j++
		}
		entities = append(entities, results[i].Entity)
		rows = append(rows, record(results[i:j], target))
		i = j
	}
	return entities, rows
}

// record is one entity's record, from its results.
func record(results []fusion.Result, target dataset.Schema) dataset.Record {
	r := make(dataset.Record, len(target)) // all null
	for _, res := range results {
		if c := target.Index(res.Attribute); c >= 0 {
			r[c] = res.Value
		}
	}
	return r
}

// fusionOptions self-configures the fusion policy from the user context:
// timeliness-heavy contexts get freshness-weighted fusion, otherwise
// trust-based truth discovery. Feedback-derived source trust seeds the
// trust map (shared feedback assimilation).
func (w *Wrangler) fusionOptions() fusion.Options {
	policy := fusion.TruthFinder
	if w.UserCtx.Weight(wctx.Timeliness) >= 0.3 && w.Config.TimeColumn != "" {
		policy = fusion.FreshnessWeighted
	}
	opts := fusion.DefaultOptions(policy)
	opts.Now = sources.AsOf(w.Provider.Clock())
	opts.Pinned = map[string]bool{}
	for src, t := range w.Feedback.SourceTrust() {
		opts.Trust[src] = t
		opts.Pinned[src] = true
	}
	for src, t := range w.pins {
		opts.Trust[src] = t
		opts.Pinned[src] = true
	}
	return opts
}

// entityIndex is the clustering read entity by entity: every distinct
// entity id, sorted, with the entity's union rows in row order, and how
// each id was made. A tail that can vouch for the names carries them over
// to the next (carryNames); base is nil when it cannot.
type entityIndex struct {
	ids  []string
	rows [][]int
	base []int32 // per entity: the length of its keyless name's base, -1 when a key names it
}

// layout is what a tail laid its claim groups out from: the union and its
// entity index (claimGroups), and how many claims the slabs its groups
// may point into hold.
type layout struct {
	union    *dataset.Table
	entities entityIndex
	slabs    int
}

// nameEntities assigns every union row its entity id (w.entityIDs) and
// reads the clustering entity by entity (w.entities). A cluster with key
// values takes its most frequent one; clusters that land on one key are
// one entity, whose rows are all their rows in row order. A keyless
// cluster is named by content (keylessName), never by its cluster number,
// which shifts on every re-cluster: a refresh renames only the keyless
// clusters it moved. Keyless names never merge — a name some key or an
// earlier keyless cluster (in smallest-row order) already holds takes the
// first free suffix "~2", "~3", …
func (w *Wrangler) nameEntities() { w.nameClusters(false) }

// nameClusters is nameEntities; legacy names keyless clusters
// "entity-<cluster>" and lets those names merge like keys, as logs
// written before content names did (see restoreWorkingState), and leaves
// names the next tail cannot carry over.
func (w *Wrangler) nameClusters(legacy bool) {
	schema := w.union.Schema()
	kc := schema.Index(w.Config.KeyColumn)
	byCluster := w.clusters.Clusters()
	clusterName := make([]string, len(byCluster))
	stem := make([]int32, len(byCluster))
	taken := make(map[string]bool, len(byCluster))
	// One pass in row order finds each cluster's key value, when all its
	// key values agree; only a cluster whose values disagree counts them.
	first, keyed, mixed := make([]string, len(byCluster)), make([]bool, len(byCluster)), make([]bool, len(byCluster))
	for row, cid := range w.clusters.Assign {
		if kc < 0 || w.union.Row(row)[kc].IsNull() {
			continue
		}
		if k := w.union.Row(row)[kc].String(); !keyed[cid] {
			first[cid], keyed[cid] = k, true
		} else if k != first[cid] {
			mixed[cid] = true
		}
	}
	var keys []string
	for cid, rows := range byCluster {
		best := first[cid]
		if mixed[cid] {
			best, keys = w.clusterKey(rows, kc, keys)
		}
		if best == "" && legacy {
			best = fmt.Sprintf("entity-%04d", cid)
		}
		if best != "" {
			clusterName[cid], stem[cid] = w.intern(best), -1
			taken[best] = true
		}
	}
	nc, sc := schema.Index(w.Config.NameColumn), schema.Index(w.Config.SecondaryColumn)
	for row, cid := range w.clusters.Assign {
		if clusterName[cid] != "" || byCluster[cid][0] != row {
			continue // keyed, or not the keyless cluster's smallest row
		}
		base := w.keylessName(row, nc, sc)
		name := base
		for k := 2; taken[name]; k++ {
			name = base + "~" + strconv.Itoa(k)
		}
		taken[name] = true
		clusterName[cid], stem[cid] = w.intern(name), int32(len(base))
	}
	names := make([]string, w.union.Len())
	for cid, rows := range byCluster {
		for _, row := range rows {
			names[row] = clusterName[cid]
		}
	}
	w.entityIDs = names

	// Clusters sorted by id, so clusters sharing an id sit side by side.
	order := make([]int, 0, len(byCluster))
	for cid, rows := range byCluster {
		if len(rows) > 0 {
			order = append(order, cid)
		}
	}
	w.entities, w.namesKept = indexClusters(order, clusterName, stem, byCluster), 0
	if legacy {
		w.entities.base = nil
	}
	w.retainNames()
}

// indexClusters reads clusters entity by entity: the clusters in order,
// sorted by name, clusters sharing a name merged into one entity whose
// rows are theirs in row order. It may extend rows' lists.
func indexClusters(order []int, name []string, stem []int32, rows [][]int) entityIndex {
	slices.SortFunc(order, func(a, b int) int { return strings.Compare(name[a], name[b]) })
	ix := entityIndex{ids: make([]string, 0, len(order)), rows: make([][]int, 0, len(order)), base: make([]int32, 0, len(order))}
	for k := 0; k < len(order); {
		cid := order[k]
		id, rs, merged := name[cid], rows[cid], false
		for k++; k < len(order) && name[order[k]] == id; k++ {
			rs, merged = append(rs, rows[order[k]]...), true
		}
		if merged {
			slices.Sort(rs)
		}
		ix.ids, ix.rows, ix.base = append(ix.ids, id), append(ix.rows, rs), append(ix.base, stem[cid])
	}
	return ix
}

// clusterKey returns the key value that names a cluster with these rows:
// its most frequent non-null key value, the smallest of equally frequent
// ones, "" for none. Only a cluster whose key values disagree counts them,
// in keys, which it returns for reuse.
func (w *Wrangler) clusterKey(rows []int, kc int, keys []string) (string, []string) {
	if kc < 0 {
		return "", keys
	}
	first, keyed, mixed := "", false, false
	for _, row := range rows {
		if v := w.union.Row(row)[kc]; !v.IsNull() {
			if k := v.String(); !keyed {
				first, keyed = k, true
			} else if k != first {
				mixed = true
			}
		}
	}
	if !mixed {
		return first, keys
	}
	keys = keys[:0]
	for _, row := range rows {
		if v := w.union.Row(row)[kc]; !v.IsNull() {
			keys = append(keys, v.String())
		}
	}
	slices.Sort(keys)
	// The longest run wins; of equally long runs, the first (smallest).
	best, bestN := first, 0
	for i, j := 0, 0; i < len(keys); i = j {
		for j = i + 1; j < len(keys) && keys[j] == keys[i]; j++ {
		}
		if j-i > bestN {
			best, bestN = keys[i], j-i
		}
	}
	return best, keys
}

// carryNames is nameEntities at the cost of what the reaction moved. A
// cluster of the new clustering whose rows are, row for row, those of one
// cluster of the last one (prev, the clustering w.entities names) — each
// aligned with the last union's row of the same source and position, its
// name cells (key, name and secondary column) Same — has the inputs to
// its name it had. An entity all of whose clusters are such clusters
// keeps its id and rows without a look at its keys. Only the other,
// moved clusters are named, by nameClusters' rule, against the kept
// names, and the index is one merge of the kept entities with the moved
// ones. The rule needs every kept name to be the one nameClusters would
// give it, which holds while no moved or dropped name meets a kept one. A
// moved cluster whose key a kept entity holds joins that entity, which
// then moves with it. A keyless name's suffix depends on the names before
// it in its chain (base, base~2, …), so a moved cluster whose key or
// chain reaches a kept keyless name, or a dropped entity whose name lies
// in a kept keyless name's chain, could shift it: then, and whenever the
// last tail's names cannot be carried (a restore, legacy names, no
// memo), it reports false having changed nothing, and the caller names
// the clustering afresh.
func (w *Wrangler) carryNames(prevClusters *er.Clustering) bool {
	prev, memo := w.entities, w.memo
	if prev.base == nil || memo == nil || prevClusters == nil ||
		len(w.entityIDs) != memo.union.Len() || len(prevClusters.Assign) != memo.union.Len() {
		return false
	}
	entOf := make([]int32, memo.union.Len()) // per last-union row: its entity
	for e, rows := range prev.rows {
		for _, r := range rows {
			entOf[r] = int32(e)
		}
	}
	prevSize := make([]int32, prevClusters.Num)
	for _, pc := range prevClusters.Assign {
		prevSize[pc]++
	}
	schema := w.union.Schema()
	kc, nc, sc := schema.Index(w.Config.KeyColumn), schema.Index(w.Config.NameColumn), schema.Index(w.Config.SecondaryColumn)
	old := w.alignUnion(memo)
	old2new := make([]int32, memo.union.Len())
	for j := range old2new {
		old2new[j] = -1
	}
	for i, j := range old {
		if j < 0 {
			continue
		}
		if cur, was := w.union.Row(i), memo.union.Row(int(j)); &cur[0] == &was[0] || sameCells(cur, was, kc, nc, sc) {
			old2new[j] = int32(i)
		}
	}
	// inside[cid] is pc+1 when every row of cluster cid is such a row of
	// the last clustering's cluster pc, -1 when it is not.
	assign, num := w.clusters.Assign, w.clusters.Num
	inside, size, ent := make([]int32, num), make([]int32, num), make([]int32, num)
	for row, cid := range assign {
		size[cid]++
		if inside[cid] < 0 {
			continue
		}
		pc := int32(-1)
		if j := old[row]; j >= 0 && old2new[j] == int32(row) {
			pc, ent[cid] = int32(prevClusters.Assign[j])+1, entOf[j]
		}
		if inside[cid] == 0 {
			inside[cid] = pc
		} else if inside[cid] != pc {
			inside[cid] = -1
		}
	}
	covered := make([]int, len(prev.ids)) // per entity: the rows of its clusters that held
	for cid, pc := range inside {
		if pc > 0 && size[cid] == prevSize[pc-1] {
			covered[ent[cid]] += int(size[cid])
		} else {
			inside[cid] = -1
		}
	}
	keep := make([]bool, len(prev.ids))
	kept, keptIDs := 0, 0
	for e, rows := range prev.rows {
		if covered[e] == len(rows) {
			keep[e] = true
			kept += len(rows)
			keptIDs++
		}
	}
	// keptAt finds a kept entity by id; unkeep moves a kept entity, and
	// unkeepChain every kept keyless entity whose name has base b.
	keptAt := func(id string) (int, bool) {
		e, ok := slices.BinarySearch(prev.ids, id)
		return e, ok && keep[e]
	}
	unkeep := func(e int) {
		keep[e], kept, keptIDs = false, kept-len(prev.rows[e]), keptIDs-1
	}
	unkeepChain := func(b string) (moved bool) {
		for _, e := range keptChain(b, prev, keep) {
			unkeep(e)
			moved = true
		}
		return moved
	}
	// Name the moved clusters as nameClusters does — keys first, then the
	// keyless clusters in smallest-row order — against the kept names. A
	// moved cluster whose key a kept entity holds joins that entity; one
	// whose key or chain reaches a kept keyless name, and a dropped name in
	// a kept keyless name's chain, may shift the names of that chain. Each
	// moves what it meets, and the moved clusters are named once more.
	n := w.union.Len()
	var (
		slot  []int32 // per cluster: its moved number, -1 when kept
		rows  [][]int
		name  []string
		stem  []int32
		taken map[string]bool
		keys  []string
	)
	for pass := 0; ; pass++ {
		if pass == 4 {
			return false
		}
		slot = make([]int32, num)
		movedN := int32(0)
		for cid, pc := range inside {
			if pc > 0 && keep[ent[cid]] {
				slot[cid] = -1
			} else {
				slot[cid] = movedN
				movedN++
			}
		}
		slab := make([]int, n-kept)
		rows = make([][]int, movedN)
		at := 0
		for cid, s := range slot {
			if s >= 0 {
				rows[s] = slab[at : at : at+int(size[cid])]
				at += int(size[cid])
			}
		}
		for row, cid := range assign {
			if s := slot[cid]; s >= 0 {
				rows[s] = append(rows[s], row)
			}
		}
		name, stem, taken = make([]string, movedN), make([]int32, movedN), map[string]bool{}
		moved := false
		for s, rs := range rows {
			var best string
			if best, keys = w.clusterKey(rs, kc, keys); best == "" {
				continue
			}
			if e, ok := keptAt(best); ok {
				if prev.base[e] < 0 {
					unkeep(e)
				} else {
					unkeepChain(best[:prev.base[e]])
				}
				moved = true
				continue
			}
			name[s], stem[s] = best, -1
			taken[best] = true
		}
		for row, cid := range assign {
			s := slot[cid]
			if moved || s < 0 || name[s] != "" || rows[s][0] != row {
				continue
			}
			base := w.keylessName(row, nc, sc)
			nm := base
			for k := 2; ; k++ {
				if e, ok := keptAt(nm); ok && prev.base[e] >= 0 {
					moved = unkeepChain(nm[:prev.base[e]])
					break
				} else if !ok && !taken[nm] {
					break
				}
				nm = base + "~" + strconv.Itoa(k)
			}
			taken[nm] = true
			name[s], stem[s] = nm, int32(len(base))
		}
		for e, id := range prev.ids {
			if moved || keep[e] {
				continue
			}
			moved = unkeepChain(id)
			if i := strings.LastIndexByte(id, '~'); i >= 0 && isDigits(id[i+1:]) {
				moved = unkeepChain(id[:i]) || moved
			}
		}
		if !moved {
			break
		}
	}

	// Commit: intern the moved names and merge the kept entities — their
	// rows carried to the new numbering — with the moved ones.
	order := make([]int, len(rows))
	for s := range order {
		order[s] = s
		name[s] = w.intern(name[s])
	}
	moved := indexClusters(order, name, stem, rows)
	// Kept rows keep their numbers unless the union shifted; then each kept
	// entity's rows are carried to the new numbers, out of one slab.
	shifted := n != memo.union.Len()
	for j := 0; j < len(old2new) && !shifted; j++ {
		shifted = old2new[j] >= 0 && int(old2new[j]) != j
	}
	var keptSlab []int
	if shifted {
		keptSlab = make([]int, 0, kept)
	}
	ix := entityIndex{
		ids:  make([]string, 0, len(prev.ids)+len(moved.ids)),
		rows: make([][]int, 0, len(prev.ids)+len(moved.ids)),
		base: make([]int32, 0, len(prev.ids)+len(moved.ids)),
	}
	m := 0
	for e, id := range prev.ids {
		if !keep[e] {
			continue
		}
		for ; m < len(moved.ids) && moved.ids[m] < id; m++ {
			ix.ids, ix.rows, ix.base = append(ix.ids, moved.ids[m]), append(ix.rows, moved.rows[m]), append(ix.base, moved.base[m])
		}
		rs := prev.rows[e]
		if shifted {
			at := len(keptSlab)
			for _, r := range rs {
				keptSlab = append(keptSlab, int(old2new[r]))
			}
			rs = keptSlab[at:len(keptSlab):len(keptSlab)]
		}
		ix.ids, ix.rows, ix.base = append(ix.ids, id), append(ix.rows, rs), append(ix.base, prev.base[e])
	}
	ix.ids, ix.rows, ix.base = append(ix.ids, moved.ids[m:]...), append(ix.rows, moved.rows[m:]...), append(ix.base, moved.base[m:]...)
	// Row ids: unshifted, the last tail's hold for every kept row, and the
	// wrangler's own slice takes the moved rows' in place.
	names := w.entityIDs
	if shifted {
		names = make([]string, n)
		for row, cid := range assign {
			if slot[cid] < 0 {
				names[row] = prev.ids[ent[cid]]
			}
		}
	}
	for s, rs := range rows {
		for _, row := range rs {
			names[row] = name[s]
		}
	}
	w.entities, w.entityIDs, w.namesKept = ix, names, keptIDs
	w.retainNames()
	return true
}

// sameCells reports whether two records hold Same values in the given
// columns; -1 names no column.
func sameCells(a, b dataset.Record, cols ...int) bool {
	for _, c := range cols {
		if c >= 0 && !a[c].Same(b[c]) {
			return false
		}
	}
	return true
}

// keptChain lists the kept keyless entities whose name has base b: b
// itself or b~<k> among prev's ids, kept, with a base as long as b.
func keptChain(b string, prev entityIndex, keep []bool) []int {
	var out []int
	kept := func(e int) bool { return keep[e] && int(prev.base[e]) == len(b) }
	if e, ok := slices.BinarySearch(prev.ids, b); ok && kept(e) {
		out = append(out, e)
	}
	chain := b + "~"
	e, _ := slices.BinarySearch(prev.ids, chain)
	for ; e < len(prev.ids) && strings.HasPrefix(prev.ids[e], chain); e++ {
		if kept(e) {
			out = append(out, e)
		}
	}
	return out
}

// isDigits reports whether s is a non-empty run of decimal digits.
func isDigits(s string) bool {
	return s != "" && !strings.ContainsFunc(s, func(r rune) bool { return r < '0' || r > '9' })
}

// retainNames keeps the interner within twice the entity names in use:
// once it holds more, it drops every name but those.
func (w *Wrangler) retainNames() {
	if w.interner == nil || w.interner.Len() <= 2*len(w.entities.ids) {
		return
	}
	w.interner.Sweep() // ends the round the names so far were marked in
	for _, id := range w.entities.ids {
		w.interner.Str(id)
	}
	w.interner.Sweep()
}

// keylessName is the base name of a keyless cluster whose smallest row is
// row: that row's source and a digest of the fields blocking keys on (the
// name and secondary columns, by Value.Key; -1 for a column the union
// lacks). Both are content, so the name holds while the cluster's smallest
// member does, whatever number the clustering gives it.
func (w *Wrangler) keylessName(row, nc, sc int) string {
	h := fnv.New32a()
	for _, c := range []int{nc, sc} {
		if c >= 0 {
			h.Write([]byte(w.union.Row(row)[c].Key()))
		}
		h.Write([]byte{0})
	}
	return fmt.Sprintf("%s~%08x", w.unionSources[row], h.Sum32())
}

// intern returns the canonical instance of an entity id. One instance per
// entity across reactions lets the fusion groups and page bookkeeping
// built from these ids compare against the previous round's by cheap
// pointer-equal strings.
func (w *Wrangler) intern(id string) string {
	if w.interner == nil {
		return id
	}
	return w.interner.Str(id)
}

func (w *Wrangler) selectedIDs() []string {
	var ids []string
	for id, st := range w.states {
		if st.selected && st.mapped != nil {
			ids = append(ids, id)
		}
	}
	sort.Strings(ids)
	return ids
}

func (w *Wrangler) mappingRefs(ids []string) []provenance.Ref {
	refs := make([]provenance.Ref, len(ids))
	for i, id := range ids {
		refs[i] = provenance.Ref{Kind: provenance.KindMapping, ID: id}
	}
	return refs
}

// The accessors below read the working data. A durable restore defers
// rebuilding it, so each first completes that rebuild (resume); a failed
// one leaves them reading whatever it installed.

// Wrangled returns the current wrangled table (nil before Run).
func (w *Wrangler) Wrangled() *dataset.Table {
	w.resume()
	return w.wrangled
}

// Results returns the fused results (per entity and attribute).
func (w *Wrangler) Results() []fusion.Result {
	w.resume()
	return w.results
}

// Trust returns the current per-source trust map.
func (w *Wrangler) Trust() map[string]float64 {
	w.resume()
	return w.trust
}

// SelectedSources returns the ids of sources used in the last integration.
func (w *Wrangler) SelectedSources() []string { return w.selectedIDs() }

// Union returns the integrated pre-fusion table (one row per selected
// source record, target schema). Experiments use it to address rows; it is
// nil before integration.
func (w *Wrangler) Union() *dataset.Table {
	w.resume()
	return w.union
}

// UnionSourceOf returns the source id contributing union row i.
func (w *Wrangler) UnionSourceOf(i int) string {
	w.resume()
	return w.unionSources[i]
}

// UnionRowInSource returns row i's index within its source's mapped table.
// A source's rows are contiguous in the union (buildUnion appends them in
// unionIDs order), so that is i's offset from its source's first row.
func (w *Wrangler) UnionRowInSource(i int) int {
	w.resume()
	k, _ := slices.BinarySearch(w.unionIDs, w.unionSources[i])
	return i - w.unionStarts[k]
}

// Resolver returns the current entity-resolution rule (nil before
// integration).
func (w *Wrangler) Resolver() *er.Resolver {
	w.resume()
	return w.resolver
}

// Clusters returns the current entity clustering (nil before integration).
func (w *Wrangler) Clusters() *er.Clustering {
	w.resume()
	return w.clusters
}

// EntityOf returns the fused entity id of union row i.
func (w *Wrangler) EntityOf(i int) string {
	w.resume()
	return w.entityIDs[i]
}

// ClaimSupporters returns the sources whose claims agree with the fused
// value of (entity, attribute) — the sources a "this value is wrong"
// annotation should blame, per the system's own fusion bookkeeping. This
// is how one feedback item informs many components: the annotation names
// a value, the working data knows who asserted it. It finds the result by
// binary search and answers as Supporters does.
func (w *Wrangler) ClaimSupporters(entity, attribute string) []string {
	w.resume()
	i, ok := slices.BinarySearchFunc(w.results, fusion.Result{Entity: entity, Attribute: attribute}, fusion.CompareResults)
	if !ok {
		return nil
	}
	return w.Supporters(i)
}

// Supporters returns the sources backing Results()[i]: those whose claim
// in the result's claim group agrees with the fused value (within 1 % for
// numbers), sorted. It returns the winning bucket's list, prepared with
// the group the result was fused from — a restore prepares the groups of
// the results it adopts. The slice is shared with the prepared group and
// published reports: treat it as read-only.
func (w *Wrangler) Supporters(i int) []string {
	w.resume()
	if w.groups == nil {
		return nil
	}
	return w.groups.Supporters(i, w.results[i].Value)
}
