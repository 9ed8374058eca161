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
	"runtime/debug"
	"slices"
	"sort"
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
	// "integrate" a second time. Published snapshot versions carry these,
	// so a bench regression attributes to a stage.
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
	// IntegrationShards splits the integration tail (entity resolution +
	// fusion) into this many disjoint blocking shards that resolve and
	// fuse as parallel engine tasks and merge deterministically: the
	// output is byte-identical at every shard count. 0 (the default) runs
	// the same tail at one shard. Every reaction recomputes a partial
	// tail: the reaction planner diffs the new union against the memoized
	// previous one, re-plans incrementally (er.RePlan) and re-resolves
	// only dirty shards, reusing every untouched shard's clusters by
	// reference. Trust is re-estimated over all claims (keeping the
	// prepared state of claim groups that held) and every shard re-fuses
	// under it; published versions share the table records of every
	// shard whose fused rows did not change. The one thing 0 changes
	// against 1 is the change feed: a session left at 0 publishes every
	// version as a full change (serve.ChangeSet.Full), one set to n >= 1
	// publishes record deltas.
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
	entityIDs    []string // per union row: fused entity id
	results      []fusion.Result
	supporters   map[string][]string // lazy (entity,attr) → supporting sources
	wrangled     *dataset.Table
	trust        map[string]float64
	pages        []*shardPage    // per-shard fused output, immutable once built
	entityShard  map[string]int  // entity -> owning shard of the last integration
	rowEntities  []string        // per wrangled-table row: its entity id (rows are entity-sorted)
	lastChange   serve.ChangeSet // what the last tail changed vs its predecessor; published with the version
	memo         *tailMemo       // the last integrated tail, diffable; nil after a failed or restored-without-memo tail
	dirtySources map[string]bool // sources installed since the memoized tail; persisted, gates the restore's memo rebuild
	lastSeq      int
	lastTrust    fusion.TrustStats // component shape of the last tail's trust estimation
	log          *DurableLog       // durable sessions: every publication appends here
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
	start := time.Now()
	w.LastStats = RunStats{}
	w.lastTrust = fusion.TrustStats{} // an empty tail reports no components
	srcs := w.Provider.List()
	outcomes := make([]*sourceOutcome, len(srcs))
	g := engine.NewGraph()
	deps := make([]string, len(srcs))
	for i, s := range srcs {
		i, s := i, s
		prev := w.states[s.ID] // read before fan-out; installs happen at the barrier
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
	if err := w.addIntegrationTasks(g, &shardRun{}, "select"); err != nil {
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
	start := time.Now()
	w.split = replanSplit{}
	w.union = dataset.NewTable(w.Config.Target.Clone())
	w.unionSources = w.unionSources[:0]
	w.unionKeys, w.unionIndex = nil, nil // derived from unionSources; rebuilt lazily
	w.unionIDs = w.selectedIDs()
	w.unionStarts = make([]int, len(w.unionIDs))
	cells := make([]*quality.Cells, len(w.unionIDs))
	feats := make([]*er.Derived, len(w.unionIDs))
	for k, id := range w.unionIDs {
		st := w.states[id]
		if st.cells == nil {
			w.derive(st)
		}
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
		w.trust = map[string]float64{}
		w.results = nil
		w.supporters = nil
		w.pages = nil
		w.entityShard = nil
		w.rowEntities = nil
		// An emptied result cannot bound its delta against the
		// predecessor; watchers treat it as a full change.
		w.lastChange = serve.ChangeSet{Full: true}
		w.memo = nil // nothing integrated: nothing for the next tail to diff against
		return true, nil
	}
	// Profile the integrated data for near-exact functional dependencies
	// (e.g. sku -> brand) and repair their violations — typos introduced
	// by individual sources are outvoted by their own key group before
	// entity resolution sees them (cost-based repair, quality package).
	// FD repair is the one stage that can rewrite a row whose source did
	// not change; it does so on a clone, so such a row shows up downstream
	// as a new record.
	start = time.Now()
	if w.fdDict == nil {
		w.fdDict = quality.NewDictionary(len(w.Config.Target))
	}
	if _, _, _, err := quality.RepairProfile(w.union, w.fdDict.Profile(cells...), 0.9); err != nil {
		return false, fmt.Errorf("core: profile repair: %w", err)
	}
	w.split.fdRepair = time.Since(start)
	// The new resolver takes over its predecessor's registries and is
	// seeded with the sources' derivations: preparing re-derives only the
	// records FD repair cloned and interns only records it has not seen.
	start = time.Now()
	prev := w.resolver
	w.resolver = w.newResolver()
	w.resolver.Carry(prev)
	w.resolver.Seed(feats...)
	w.applyPairFeedback()
	w.resolver.Prepare(w.union)
	w.split.prepare = time.Since(start)
	return false, nil
}

// applyPairFeedback feeds accumulated duplicate labels into the resolver
// (Corleone-style refinement) before clustering.
func (w *Wrangler) applyPairFeedback() {
	labels := w.Feedback.PairLabels()
	if len(labels) == 0 {
		return
	}
	rowByKey := w.rowKeyIndex()
	var training []er.LabeledPair
	for pairKey, dup := range labels {
		parts := strings.SplitN(pairKey, "|", 2)
		if len(parts) != 2 {
			continue
		}
		i, iok := rowByKey[parts[0]]
		j, jok := rowByKey[parts[1]]
		if iok && jok && i != j {
			p := er.Pair{I: i, J: j}
			if p.I > p.J {
				p.I, p.J = p.J, p.I
			}
			training = append(training, er.LabeledPair{Pair: p, Duplicate: dup})
		}
	}
	if len(training) >= 4 {
		w.resolver.Learn(w.union, training)
	}
}

// pairConstraints turns confident pair feedback into hard clustering
// constraints: must-links for duplicate labels, cannot-links for
// not-duplicate labels. Only high-confidence labels qualify — an expert
// annotation (weight 1) or a high-agreement crowd majority (|net score|
// >= 0.75); weak majorities stay training signal only, since feedback
// "may be unreliable" (§4.2).
func (w *Wrangler) pairConstraints() (must, cannot []er.Pair) {
	labels := w.Feedback.PairLabels()
	if len(labels) == 0 {
		return nil, nil
	}
	rowByKey := w.rowKeyIndex()
	for pairKey, dup := range labels {
		score := w.Feedback.PairScore(pairKey)
		if score < 0.75 && score > -0.75 {
			continue
		}
		parts := strings.SplitN(pairKey, "|", 2)
		if len(parts) != 2 {
			continue
		}
		i, iok := rowByKey[parts[0]]
		j, jok := rowByKey[parts[1]]
		if !iok || !jok || i == j {
			continue
		}
		p := er.Pair{I: i, J: j}
		if p.I > p.J {
			p.I, p.J = p.J, p.I
		}
		if dup {
			must = append(must, p)
		} else {
			cannot = append(cannot, p)
		}
	}
	return must, cannot
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
	return w.rowKeys()[i]
}

// buildClaims flattens the union into one claim per (row, attribute),
// in row order — the order fusion's bucket representatives and float
// accumulation depend on. The freshness column feeds each claim's AsOf
// and is not itself claimed.
func (w *Wrangler) buildClaims() []fusion.Claim {
	tc := -1
	if w.Config.TimeColumn != "" {
		tc = w.union.Schema().Index(w.Config.TimeColumn)
	}
	perRow := len(w.union.Schema())
	if tc >= 0 {
		perRow--
	}
	// One slab for the whole tail's claims: the exact count is known up
	// front, so the append loop never regrows.
	claims := make([]fusion.Claim, 0, w.union.Len()*perRow)
	for i, r := range w.union.Rows() {
		asOf := time.Time{}
		if tc >= 0 && r[tc].Kind() == dataset.KindTime {
			asOf = r[tc].TimeVal()
		}
		for ci, f := range w.union.Schema() {
			if ci == tc {
				continue
			}
			claims = append(claims, fusion.Claim{
				Entity:    w.entityIDs[i],
				Attribute: f.Name,
				Value:     r[ci],
				SourceID:  w.unionSources[i],
				AsOf:      asOf,
			})
		}
	}
	return claims
}

// materialize turns fused results into one record per entity, entities
// sorted ascending — the row order of a shard page, and after the merge
// of the wrangled table.
func materialize(results []fusion.Result, target dataset.Schema) (entities []string, rows []dataset.Record) {
	byEntity := map[string]map[string]dataset.Value{}
	var order []string
	for _, res := range results {
		if byEntity[res.Entity] == nil {
			byEntity[res.Entity] = map[string]dataset.Value{}
			order = append(order, res.Entity)
		}
		byEntity[res.Entity][res.Attribute] = res.Value
	}
	sort.Strings(order)
	out := make([]dataset.Record, 0, len(order))
	for _, e := range order {
		row := make(dataset.Record, len(target))
		for i, f := range target {
			v, ok := byEntity[e][f.Name]
			if !ok {
				v = dataset.Null()
			}
			row[i] = v
		}
		out = append(out, row)
	}
	return order, out
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
	return opts
}

// entityNames assigns a stable entity id per cluster: the most frequent
// non-null key value in the cluster, else "entity-<cluster>".
func (w *Wrangler) entityNames() []string {
	kc := w.union.Schema().Index(w.Config.KeyColumn)
	names := make([]string, w.union.Len())
	byCluster := w.clusters.Clusters()
	for cid, rows := range byCluster {
		counts := map[string]int{}
		for _, row := range rows {
			if kc >= 0 && !w.union.Row(row)[kc].IsNull() {
				counts[w.union.Row(row)[kc].String()]++
			}
		}
		best, bestN := "", 0
		for v, n := range counts {
			if n > bestN || (n == bestN && v < best) {
				best, bestN = v, n
			}
		}
		if best == "" {
			best = fmt.Sprintf("entity-%04d", cid)
		}
		if w.interner != nil {
			// One canonical id instance per entity across reactions; the
			// fusion group keys and page bookkeeping built from these ids
			// then compare against the previous round's by cheap
			// pointer-equal strings.
			best = w.interner.Str(best)
		}
		for _, row := range rows {
			names[row] = best
		}
	}
	return names
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

// Wrangled returns the current wrangled table (nil before Run).
func (w *Wrangler) Wrangled() *dataset.Table { return w.wrangled }

// Results returns the fused results (per entity and attribute).
func (w *Wrangler) Results() []fusion.Result { return w.results }

// Trust returns the current per-source trust map.
func (w *Wrangler) Trust() map[string]float64 { return w.trust }

// SelectedSources returns the ids of sources used in the last integration.
func (w *Wrangler) SelectedSources() []string { return w.selectedIDs() }

// Union returns the integrated pre-fusion table (one row per selected
// source record, target schema). Experiments use it to address rows; it is
// nil before integration.
func (w *Wrangler) Union() *dataset.Table { return w.union }

// UnionSourceOf returns the source id contributing union row i.
func (w *Wrangler) UnionSourceOf(i int) string { return w.unionSources[i] }

// UnionRowInSource returns row i's index within its source's mapped table.
// A source's rows are contiguous in the union (buildUnion appends them in
// unionIDs order), so that is i's offset from its source's first row.
func (w *Wrangler) UnionRowInSource(i int) int {
	k, _ := slices.BinarySearch(w.unionIDs, w.unionSources[i])
	return i - w.unionStarts[k]
}

// Resolver returns the current entity-resolution rule (nil before
// integration).
func (w *Wrangler) Resolver() *er.Resolver { return w.resolver }

// Clusters returns the current entity clustering (nil before integration).
func (w *Wrangler) Clusters() *er.Clustering { return w.clusters }

// EntityOf returns the fused entity id of union row i.
func (w *Wrangler) EntityOf(i int) string { return w.entityIDs[i] }

// ClaimSupporters returns the sources whose claims agree with the fused
// value of (entity, attribute) — the sources a "this value is wrong"
// annotation should blame, per the system's own fusion bookkeeping. This
// is how one feedback item informs many components: the annotation names
// a value, the working data knows who asserted it.
//
// Supporters for every fused value are indexed once per fusion (a report
// asks about every line, and every publication builds a report), so a
// lookup is O(1) after the first. The returned slice is shared with that
// index and with any report lines built from it — read-only.
func (w *Wrangler) ClaimSupporters(entity, attribute string) []string {
	if w.supporters == nil {
		w.buildSupporters()
	}
	return w.supporters[entity+"\x00"+attribute]
}

// buildSupporters walks the union once, grouping rows by entity, and
// resolves each fused result's supporting sources in a single pass —
// O(union rows × attributes + results) instead of a full union scan per
// report line. A tail's merge invalidates the index (w.supporters = nil).
func (w *Wrangler) buildSupporters() {
	w.supporters = map[string][]string{}
	if w.union == nil {
		return
	}
	rowsByEntity := map[string][]int{}
	for i, e := range w.entityIDs {
		rowsByEntity[e] = append(rowsByEntity[e], i)
	}
	for _, r := range w.results {
		if r.Value.IsNull() {
			continue
		}
		c := w.union.Schema().Index(r.Attribute)
		if c < 0 {
			continue
		}
		seen := map[string]bool{}
		var out []string
		for _, i := range rowsByEntity[r.Entity] {
			v := w.union.Row(i)[c]
			if v.IsNull() || !v.ApproxEqual(r.Value, 0.01*absFloat(r.Value)) {
				continue
			}
			src := w.unionSources[i]
			if !seen[src] {
				seen[src] = true
				out = append(out, src)
			}
		}
		sort.Strings(out)
		w.supporters[r.Entity+"\x00"+r.Attribute] = out
	}
}

func absFloat(v dataset.Value) float64 {
	if !v.IsNumeric() {
		return 0
	}
	f := v.FloatVal()
	if f < 0 {
		return -f
	}
	return f
}

// SourceUtility returns the context utility assigned to a source in the
// last selection (0 for unknown sources).
func (w *Wrangler) SourceUtility(id string) float64 {
	if st, ok := w.states[id]; ok {
		return st.utility
	}
	return 0
}
