package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	wctx "repro/internal/context"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/er"
	"repro/internal/extract"
	"repro/internal/fusion"
	"repro/internal/html"
	"repro/internal/mapping"
	"repro/internal/match"
	"repro/internal/ontology"
	"repro/internal/quality"
	"repro/internal/serve"
	"repro/internal/sources"
	"repro/internal/wal"
)

// The layer probes time each module's public entry points from outside,
// on the state a workload left behind: a harness-owned core.Wrangler is
// run over the workload's universe (the pipeline is deterministic, so its
// union, clusters and claims are the measured session's) and read through
// its public accessors. Spans inside the program are a later change.

// probes collects the per-layer numbers of one traced pass.
type probes struct {
	tr     *tracer
	root   int
	reps   int // times every probe is repeated; 10 outside the smoke test
	values map[string]float64
}

// time runs fn p.reps times as child spans of the probe root and records
// the median under name.
func (p *probes) time(name string, fn func(rep int) error) error {
	var samples []float64
	for rep := 0; rep < p.reps; rep++ {
		start := time.Now()
		err := fn(rep)
		end := time.Now()
		if err != nil {
			return fmt.Errorf("probe %s: %w", name, err)
		}
		p.tr.add(p.root, -1, name, start, end)
		samples = append(samples, ms(end.Sub(start)))
	}
	p.values[name] = median(samples)
	return nil
}

// sourceChain is one source's chain as the engine fans it out: extract
// (codec parse, or wrapper induction and repair for HTML), match, mapping
// generation, quality estimate and apply, and the quality scorecard.
func sourceChain(s *sources.Source, cfg core.Config, tax *ontology.Taxonomy, now time.Time) (*dataset.Table, error) {
	var tab *dataset.Table
	var err error
	switch s.Kind {
	case sources.KindCSV:
		tab, err = dataset.ReadCSV(strings.NewReader(s.Payload()))
	case sources.KindJSON:
		tab, err = dataset.ReadJSON(strings.NewReader(s.Payload()))
	case sources.KindKV:
		tab, err = dataset.ReadKV(strings.NewReader(s.Payload()))
	case sources.KindHTML:
		page := html.Parse(s.Payload())
		var wr *extract.Wrapper
		if wr, err = extract.Induce(s.ID, page, tax); err == nil {
			_, tab, _, err = extract.Repair(wr, page, nil, tax)
		}
	default:
		err = fmt.Errorf("unknown source kind %q", s.Kind)
	}
	if err != nil {
		return nil, err
	}
	corrs, err := match.NewMatcher(cfg.Target, match.WithTaxonomy(tax)).Match(tab)
	if err != nil {
		return nil, err
	}
	m := mapping.Generate("map-"+s.ID, s.ID, cfg.Target, corrs)
	if _, err := mapping.EstimateQuality(m, tab, nil, cfg.KeyColumn); err != nil {
		return nil, err
	}
	mapped, err := m.Apply(tab)
	if err != nil {
		return nil, err
	}
	if _, err := quality.Assess(mapped, nil, cfg.KeyColumn, cfg.TimeColumn, now, 24*time.Hour, nil); err != nil {
		return nil, err
	}
	return mapped, nil
}

// buildClaims flattens the union into one claim per (row, attribute), the
// freshness column feeding AsOf — what core hands to fusion.
func buildClaims(w *core.Wrangler) []fusion.Claim {
	union := w.Union()
	tc := union.Schema().Index(w.Config.TimeColumn)
	var claims []fusion.Claim
	for i, r := range union.Rows() {
		asOf := time.Time{}
		if tc >= 0 && r[tc].Kind() == dataset.KindTime {
			asOf = r[tc].TimeVal()
		}
		for ci, f := range union.Schema() {
			if ci == tc {
				continue
			}
			claims = append(claims, fusion.Claim{Entity: w.EntityOf(i), Attribute: f.Name,
				Value: r[ci], SourceID: w.UnionSourceOf(i), AsOf: asOf})
		}
	}
	return claims
}

// probeSink keeps the compiler from discarding probed reads.
var probeSink float64

// runProbes builds the probe state over u — a cold run and the given
// number of refreshes — and times every layer, each probe reps times. dir
// is scratch space for the durable log the wal probes read.
func runProbes(tr *tracer, u *sources.Universe, dir string, refreshes, reps int) (map[string]float64, error) {
	p := &probes{tr: tr, reps: reps, values: map[string]float64{}}
	begin := time.Now()
	p.root = tr.open(-1, "probe")
	defer func() { tr.close(p.root, begin, time.Now()) }()

	// The probe state: a full-config durable wrangler, one cold run and
	// as many refreshes as restart.10k seeds its log with, so the log the
	// wal probes read has that workload's shape.
	logDir := filepath.Join(dir, "probe-log")
	if err := os.RemoveAll(logDir); err != nil {
		return nil, err
	}
	defer os.RemoveAll(logDir)
	tax := ontology.ProductTaxonomy()
	w := core.New(u, core.ProductConfig(), nil, wctx.NewDataContext().WithTaxonomy(tax))
	w.IntegrationShards = fullShards
	w.StreamingRefresh = true
	w.Serve = core.NewVersionStore(8)
	dl, err := core.OpenDurableLog(logDir, core.FsyncOnCheckpoint)
	if err != nil {
		return nil, err
	}
	if _, err := w.AttachDurableLog(dl); err != nil {
		dl.Close()
		return nil, err
	}
	if _, err := w.Run(); err != nil {
		dl.Close()
		return nil, err
	}
	var gaps []float64
	for i := 0; i < refreshes; i++ {
		u.World.Evolve(0.05)
		start := time.Now()
		ids := w.SelectedSources()
		st, err := w.RefreshSourceContext(context.Background(), ids[i%len(ids)])
		if err != nil {
			dl.Close()
			return nil, err
		}
		gaps = append(gaps, ms(time.Since(start)-st.Duration))
	}
	// What a core call costs its caller beyond what its stats report;
	// serve.sse.1k, whose facade calls happen in the child, reports this.
	p.values["probe_publish_gap_ms"] = median(gaps)
	if err := dl.Close(); err != nil {
		return nil, err
	}

	raw, err := p.chain(u, w, tax)
	if err != nil {
		return nil, err
	}
	if err := p.quality(raw); err != nil {
		return nil, err
	}
	plan, err := p.er(w)
	if err != nil {
		return nil, err
	}
	if err := p.fusion(u, w, plan); err != nil {
		return nil, err
	}
	if err := p.serve(w); err != nil {
		return nil, err
	}
	if err := p.wal(logDir); err != nil {
		return nil, err
	}
	return p.values, nil
}

// chain probes extract + match + mapping + quality.Assess: every selected
// source's chain once. It returns the mapped tables appended — the
// pre-repair union the quality probe needs. The cost is reported as the
// mean, not the median: an HTML source costs several CSV sources, and a
// run pays for all of them.
func (p *probes) chain(u *sources.Universe, w *core.Wrangler, tax *ontology.Taxonomy) (*dataset.Table, error) {
	selected := w.SelectedSources()
	total := 0.0
	raw := dataset.NewTable(w.Config.Target.Clone())
	for _, id := range selected {
		start := time.Now()
		mapped, err := sourceChain(u.Source(id), w.Config, tax, sources.AsOf(u.Clock()))
		end := time.Now()
		if err != nil {
			return nil, fmt.Errorf("probe chain %s: %w", id, err)
		}
		p.tr.add(p.root, -1, "chain", start, end)
		total += ms(end.Sub(start))
		for _, r := range mapped.Rows() {
			raw.Append(r)
		}
	}
	p.values["chain_ms_per_source"] = total / float64(len(selected))
	p.values["chain_rows_out"] = float64(raw.Len())
	p.values["sources"] = float64(len(selected))
	return raw, nil
}

// quality probes FD profiling and repair, on a fresh clone each time (the
// repair rewrites its input).
func (p *probes) quality(raw *dataset.Table) error {
	clones := make([]*dataset.Table, p.reps)
	for i := range clones {
		clones[i] = raw.Clone()
	}
	return p.time("fd_repair_ms", func(rep int) error {
		_, n, _, err := quality.ProfileAndRepairRows(clones[rep], 0.9)
		p.values["fd_repairs"] = float64(n)
		return err
	})
}

// er probes prepare, plan, resolve and merge on the session's union, with
// a fresh resolver per repetition: Prepare installs the similarity memo a
// second resolve of the same plan would hit warm. It returns the plan.
func (p *probes) er(w *core.Wrangler) (*er.ShardPlan, error) {
	union, cfg := w.Union(), w.Config
	rowKeys := make([]string, union.Len())
	for i := range rowKeys {
		rowKeys[i] = w.RowKey(i)
	}
	var plan *er.ShardPlan
	var prepare, planned, resolve, merge []float64
	for rep := 0; rep < p.reps; rep++ {
		r := er.NewResolver(cfg.KeyColumn, cfg.NameColumn, cfg.SecondaryColumn, cfg.NumericColumn)
		t0 := time.Now()
		r.Prepare(union)
		t1 := time.Now()
		var err error
		if plan, err = r.PlanShards(union, fullShards, nil, rowKeys); err != nil {
			return nil, fmt.Errorf("probe er.plan: %w", err)
		}
		t2 := time.Now()
		roots := make([]map[int]int, fullShards)
		for s := range roots {
			if roots[s], _, err = r.ResolveShard(union, plan, s, nil, nil); err != nil {
				return nil, fmt.Errorf("probe er.resolve: %w", err)
			}
		}
		t3 := time.Now()
		if _, err := plan.MergeRoots(roots); err != nil {
			return nil, fmt.Errorf("probe er.merge_roots: %w", err)
		}
		t4 := time.Now()
		p.tr.add(p.root, -1, "er.prepare", t0, t1)
		p.tr.add(p.root, -1, "er.plan", t1, t2)
		p.tr.add(p.root, -1, "er.resolve", t2, t3)
		p.tr.add(p.root, -1, "er.merge_roots", t3, t4)
		prepare = append(prepare, ms(t1.Sub(t0)))
		planned = append(planned, ms(t2.Sub(t1)))
		resolve = append(resolve, ms(t3.Sub(t2)))
		merge = append(merge, ms(t4.Sub(t3)))
	}
	p.values["er_prepare_ms"] = median(prepare)
	// PlanShards prepares again on entry; the plan is reported net of it.
	p.values["er_plan_ms"] = median(planned) - median(prepare)
	p.values["er_resolve_ms"] = median(resolve)
	p.values["er_merge_roots_ms"] = median(merge)
	pairs := 0
	for _, ps := range plan.Pairs {
		pairs += len(ps)
	}
	p.values["er_candidate_pairs"] = float64(pairs)
	return plan, nil
}

// fusion probes the global trust fixpoint, then every shard's fuse under
// it, then the result merge.
func (p *probes) fusion(u *sources.Universe, w *core.Wrangler, plan *er.ShardPlan) error {
	claims := buildClaims(w)
	p.values["fusion_claims"] = float64(len(claims))
	var trusted fusion.Options
	var ts fusion.TrustStats
	if err := p.time("fusion_trust_ms", func(int) error {
		// Fresh options each time: the fixpoint updates the trust map in place.
		o := fusion.DefaultOptions(fusion.TruthFinder)
		o.Now = sources.AsOf(u.Clock())
		o.Pinned = map[string]bool{}
		trusted, ts = fusion.EstimateTrustParallel(claims, o, runtime.GOMAXPROCS(0))
		return nil
	}); err != nil {
		return err
	}
	p.values["trust_components"] = float64(ts.Components)
	// An entity's claims fuse in the shard of its first union row.
	shardOf := map[string]int{}
	for i := 0; i < w.Union().Len(); i++ {
		if _, ok := shardOf[w.EntityOf(i)]; !ok {
			shardOf[w.EntityOf(i)] = plan.RowShard[i]
		}
	}
	byShard := make([][]fusion.Claim, fullShards)
	for _, c := range claims {
		byShard[shardOf[c.Entity]] = append(byShard[shardOf[c.Entity]], c)
	}
	parts := make([][]fusion.Result, fullShards)
	if err := p.time("fusion_fuse_ms", func(int) error {
		for s := range byShard {
			parts[s] = fusion.FuseResolved(byShard[s], trusted)
		}
		return nil
	}); err != nil {
		return err
	}
	return p.time("fusion_merge_ms", func(int) error {
		fusion.MergeResults(parts...)
		return nil
	})
}

// serve probes committing one version into a store two watchers drain,
// and the `/table`-shaped read of a committed version.
func (p *probes) serve(w *core.Wrangler) error {
	latest := w.Serve.Latest()
	store := core.NewVersionStore(8)
	store.SetWatchBuffer(64)
	drained := make(chan struct{})
	var cancels []serve.CancelFunc
	for i := 0; i < 2; i++ {
		ch, cancel, err := store.Watch(context.Background(), 0)
		if err != nil {
			return err
		}
		cancels = append(cancels, cancel)
		go func() {
			for range ch {
			}
			drained <- struct{}{}
		}()
	}
	err := p.time("serve_publish_ms", func(int) error {
		store.Publish(latest.Data(), latest.Step(), latest.Origin(), time.Now(), latest.Changes())
		return nil
	})
	for _, cancel := range cancels {
		cancel()
		<-drained
	}
	if err != nil {
		return err
	}
	cs := latest.Changes()
	p.values["changed_pages"] = float64(cs.ChangedPages)
	p.values["shared_pages"] = float64(cs.SharedPages)
	p.values["changed_records"] = float64(len(cs.ChangedRecords))
	if err := p.time("serve_read_ms", func(int) error {
		data := w.Serve.Latest().Data()
		probeSink += tableScan(data.Table, data.Report)
		return nil
	}); err != nil {
		return err
	}
	p.values["serve_read_us"] = p.values["serve_read_ms"] * 1000
	delete(p.values, "serve_read_ms")
	return nil
}

// wal probes replaying the log the probe session wrote, decoding it with
// core's durable codec, and appending the records its last version added.
func (p *probes) wal(logDir string) error {
	logPath := filepath.Join(logDir, "wrangle.wal")
	var replayed *wal.ReplayResult
	if err := p.time("wal_replay_ms", func(int) error {
		l, rr, err := wal.Open(logPath, wal.SyncOnCheckpoint)
		if err != nil {
			return err
		}
		replayed = rr
		return l.Close()
	}); err != nil {
		return err
	}
	// Opening the same log through core decodes every record on top of
	// the replay; the decode is reported net of the replay.
	if err := p.time("core_log_open_ms", func(int) error {
		d, err := core.OpenDurableLog(logDir, core.FsyncOnCheckpoint)
		if err != nil {
			return err
		}
		return d.Close()
	}); err != nil {
		return err
	}
	p.values["core_log_decode_ms"] = p.values["core_log_open_ms"] - p.values["wal_replay_ms"]
	if fi, err := os.Stat(logPath); err == nil {
		p.values["wal_log_mb"] = float64(fi.Size()) / (1 << 20)
	}
	// The last version's batch: everything after the previous version record.
	recs := replayed.Records
	from := 0
	for i := len(recs) - 2; i >= 0; i-- {
		if recs[i].Kind == wal.KindVersion {
			from = i + 1
			break
		}
	}
	batch := recs[from:]
	bytes := 0
	for _, r := range batch {
		bytes += len(r.Payload) + 9 // kind + length + crc framing
	}
	p.values["wal_kb_per_version"] = float64(bytes) / 1024
	scratch, _, err := wal.Open(filepath.Join(logDir, "append.wal"), wal.SyncOnCheckpoint)
	if err != nil {
		return err
	}
	err = p.time("wal_append_ms", func(int) error {
		for _, r := range batch {
			if err := scratch.Append(r.Kind, r.Payload); err != nil {
				return err
			}
		}
		return scratch.Commit()
	})
	if cerr := scratch.Close(); err == nil {
		err = cerr
	}
	return err
}
