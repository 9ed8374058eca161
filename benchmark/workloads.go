package main

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"repro/wrangle"
	"repro/wrangle/synth"
)

// env is what one pass over one workload is given.
type env struct {
	seed      int64
	seconds   float64 // how long the timed loop measures
	minOps    int     // timed ops the loop makes even if seconds run out first
	warmup    int     // ops made and discarded before timing starts
	setups    int     // times set-up is repeated; setup_s is their median
	oracleOps int     // the sequential oracle replays this many ops of the script
	refreshes int     // reactions that seed restart.10k's log (and the probe log) before Close
	probeReps int     // times the traced pass repeats every layer probe
	shrink    int     // tier divisor; 1 except in the smoke test
	scratch   string  // directory for durable logs
	binDir    string  // directory the built server binary is kept in
	tr        *tracer // nil on the untraced pass
}

// result is what one pass measured.
type result struct {
	name        string
	attempted   int
	failed      int
	notes       []string // why ops failed or a check did not hold
	fingerprint string   // reader-visible state at a fixed point of the script

	setupS []float64
	opMS   []float64     // latency of every timed op
	busy   time.Duration // Σ wall of the timed ops, mutation through last delivery
	extras map[string]float64

	// What the traced pass reads.
	gapMS, deliverMS       []float64
	stages                 map[string][]float64 // the program's own per-stage stats, ms
	shardsResolved         int
	shardsReused           int
	procStart, procEnd     procSample
	heapStartMB, heapEndMB float64
	childCPU               time.Duration // serve.sse.1k: the server process
	childRSSKB             int64
	probeOn                *synth.Universe // where the layer probes run
}

// offset is the seed as a non-negative round-robin starting point.
func (e *env) offset() int { return int(uint64(e.seed) % 1009) }

func newResult(name string) *result {
	return &result{name: name, extras: map[string]float64{}, stages: map[string][]float64{}}
}

func (r *result) fail(format string, args ...any) {
	r.failed++
	if len(r.notes) < 8 {
		r.notes = append(r.notes, fmt.Sprintf(format, args...))
	}
}

// mismatch records a failed output check: it fails every op of the
// workload, so a wrong answer can never look like a fast one.
func (r *result) mismatch(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
	r.failed = r.attempted
}

// reportTail adds <name>_tail_<unit> and <name>_tail_pct to the reported
// extras when there are samples enough for a tail.
func (r *result) reportTail(name, unit string, xs []float64) {
	if v, pct := tail(xs); pct > 0 {
		r.extras[name+"_tail_"+unit], r.extras[name+"_tail_pct"] = v, pct
	}
}

func (r *result) correct() bool { return r.failed == 0 && r.attempted > 0 }

// sample is what one op reports back to drive; drive keeps the timed ones.
type sample struct {
	latency time.Duration // the user-visible wait
	busy    time.Duration // everything the op made the system do

	gap      time.Duration            // facade call's wall minus the Duration its stats report
	deliver  time.Duration            // version's commit stamp to the last watcher's receipt
	stages   map[string]time.Duration // the program's own per-stage attribution
	resolved int
	reused   int
}

func (r *result) add(s sample) {
	r.opMS = append(r.opMS, ms(s.latency))
	r.busy += s.busy
	r.gapMS = append(r.gapMS, ms(s.gap))
	r.deliverMS = append(r.deliverMS, ms(s.deliver))
	for k, d := range s.stages {
		r.stages[k] = append(r.stages[k], ms(d))
	}
	r.shardsResolved += s.resolved
	r.shardsReused += s.reused
}

// drive makes the warm-up ops, then timed ops until both e.seconds and
// e.minOps are met. An op that fails is counted and ends the loop: the
// version sequence the next op would wait on is no longer known.
func (e *env) drive(res *result, op func(i int) (sample, error)) {
	attempt := func(i int) (sample, bool) {
		res.attempted++
		t, err := op(i)
		if err != nil {
			res.fail("op %d: %v", i, err)
		}
		return t, err == nil
	}
	for i := 0; i < e.warmup; i++ {
		if _, ok := attempt(i); !ok {
			return
		}
	}
	res.heapStartMB = heapLiveMB()
	res.procStart = sampleProc()
	limit := time.Duration(e.seconds * float64(time.Second))
	for i, start := e.warmup, time.Now(); len(res.opMS) < e.minOps || time.Since(start) < limit; i++ {
		t, ok := attempt(i)
		if !ok {
			break
		}
		res.add(t)
	}
	res.procEnd = sampleProc()
	res.heapEndMB = heapLiveMB()
}

// rig is one set-up reaction session: universe, session, subscribers.
type rig struct {
	u    *synth.Universe
	s    *wrangle.Session
	feed *feed
	dir  string
}

func (r *rig) teardown() {
	if r.feed != nil {
		r.feed.close()
	}
	// A failed Close loses nothing a benchmark needs.
	_ = r.s.Close()
	if r.dir != "" {
		_ = os.RemoveAll(r.dir)
	}
}

// reaction describes a closed-loop reaction workload: one writer reacts
// to one event at a time and every watcher must receive the version
// before the next event is made.
type reaction struct {
	name     string
	tier     string
	full     bool // full serving config (else default)
	watchers int
	reader   bool // run the paced `/table` reader beside the loop
	// script binds the workload's event stream to a session; offset (from
	// the seed) is where it starts in its round robin.
	script func(u *synth.Universe, s *wrangle.Session, offset int) (script, error)
}

// script is a workload's event stream bound to a session: mutate makes
// event i exist, call hands it to the facade.
type script struct {
	mutate func(i int)
	call   func(ctx context.Context, i int) (wrangle.ReactStats, error)
}

// refreshScript is source churn: the world moves, one source (round
// robin) is re-acquired.
func refreshScript(u *synth.Universe, s *wrangle.Session, offset int) (script, error) {
	ids := s.SelectedSources()
	if len(ids) == 0 {
		return script{}, fmt.Errorf("no sources selected")
	}
	return script{
		mutate: func(int) { u.World.Evolve(0.05) },
		call: func(ctx context.Context, i int) (wrangle.ReactStats, error) {
			return s.Refresh(ctx, ids[(offset+i)%len(ids)])
		},
	}, nil
}

// feedbackScript is pay-as-you-go value feedback: a reviewer marks one
// fused price wrong, blaming its first supporter. The world stands still.
func feedbackScript(_ *synth.Universe, s *wrangle.Session, offset int) (script, error) {
	var lines []wrangle.ReportLine
	for _, l := range s.Report("review", "price").Lines {
		if len(l.Supporters) > 0 {
			lines = append(lines, l)
		}
	}
	if len(lines) == 0 {
		return script{}, fmt.Errorf("no report line has supporters")
	}
	var item wrangle.Feedback
	return script{
		mutate: func(i int) {
			l := lines[((offset+i)*37)%len(lines)]
			item = wrangle.Feedback{Kind: wrangle.ValueIncorrect, SourceID: l.Supporters[0],
				Entity: l.Entity, Attribute: l.Attribute, Cost: 0.1}
		},
		call: func(ctx context.Context, _ int) (wrangle.ReactStats, error) {
			return s.ApplyFeedback(ctx, item)
		},
	}, nil
}

// setup builds the universe, the session, its cold run and its
// subscribers: everything setup_s covers.
func (w reaction) setup(e *env) (*rig, error) {
	r := &rig{u: tiers[w.tier].universe(e.seed, e.shrink)}
	opts := defaultOpts(r.u)
	if w.full {
		dir, err := os.MkdirTemp(e.scratch, "log-")
		if err != nil {
			return nil, err
		}
		r.dir = dir
		opts = fullOpts(r.u, dir)
	}
	s, err := wrangle.New(opts...)
	if err != nil {
		return nil, err
	}
	r.s = s
	if _, err := s.Run(context.Background()); err != nil {
		r.teardown()
		return nil, err
	}
	v, err := s.View()
	if err != nil {
		r.teardown()
		return nil, err
	}
	if r.feed, err = openFeed(s, v.Version(), w.watchers); err != nil {
		r.teardown()
		return nil, err
	}
	return r, nil
}

// repeatSetup sets up the given number of times, tearing down all but
// the last, and returns the last with every set-up's duration.
func repeatSetup[T any](times int, setup func() (T, error), teardown func(T)) (T, []float64, error) {
	var kept T
	var secs []float64
	for k := 0; k < times; k++ {
		start := time.Now()
		r, err := setup()
		if err != nil {
			return kept, nil, err
		}
		secs = append(secs, time.Since(start).Seconds())
		if k < times-1 {
			teardown(r)
		} else {
			kept = r
		}
	}
	return kept, secs, nil
}

// reacted closes an op's root span over its three children — the event
// being made, the facade call, and delivery to the last watcher — and
// returns when the op ended. A nil tracer only computes the end.
func (t *tracer) reacted(root, op int, begin, exists, returned time.Time, last arrival) time.Time {
	end := returned
	if last.at.After(returned) {
		end = last.at
		t.add(root, op, "watch.deliver", returned, last.at)
	}
	t.add(root, op, "mutate", begin, exists)
	t.add(root, op, "session.call", exists, returned)
	t.close(root, begin, end)
	return end
}

func (w reaction) run(e *env) (*result, error) {
	res := newResult(w.name)
	r, secs, err := repeatSetup(e.setups, func() (*rig, error) { return w.setup(e) }, (*rig).teardown)
	if err != nil {
		return nil, fmt.Errorf("%s: set-up: %w", w.name, err)
	}
	defer r.teardown()
	res.setupS = secs
	res.probeOn = r.u
	sc, err := w.script(r.u, r.s, e.offset())
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	ctx := context.Background()

	var reader *tableReader
	if w.reader {
		// From the first warm-up op on: two ops' worth of reads in two
		// thousand do not move a median.
		reader = startTableReader(r.s, 200)
	}
	e.drive(res, func(i int) (sample, error) {
		v, err := r.s.View()
		if err != nil {
			return sample{}, err
		}
		root := e.tr.open(i, "reaction")
		begin := time.Now()
		sc.mutate(i)
		exists := time.Now()
		stats, err := sc.call(ctx, i)
		returned := time.Now()
		if err != nil {
			return sample{}, err
		}
		last, err := r.feed.await(v.Version() + 1)
		if err != nil {
			return sample{}, err
		}
		end := e.tr.reacted(root, i, begin, exists, returned, last)
		if i == e.oracleOps-1 {
			// Between ops, outside every timed interval.
			if cur, err := r.s.View(); err == nil {
				res.fingerprint = fingerprint(cur)
			}
		}
		return sample{
			latency: last.at.Sub(exists), busy: end.Sub(begin),
			gap: returned.Sub(exists) - stats.Duration, deliver: last.at.Sub(last.published),
			stages: stats.Stages, resolved: stats.ShardsResolved, reused: stats.ShardsReused,
		}, nil
	})
	if reader != nil {
		reader.halt()
		lat := make([]float64, len(reader.latency))
		for i, d := range reader.latency {
			lat[i] = us(d)
		}
		late := make([]float64, len(reader.late))
		service := make([]float64, len(reader.late))
		for i, d := range reader.late {
			late[i] = us(d)
			service[i] = lat[i] - late[i]
		}
		res.extras["reads"] = float64(len(lat))
		res.extras["read_p50_us"] = median(lat)
		res.reportTail("read", "us", lat)
		res.extras["read_late_p50_us"] = median(late)
		res.extras["read_service_p50_us"] = median(service)
	}
	if ds, ok := r.s.Durability(); ok {
		res.extras["log_mb"] = float64(ds.Bytes) / (1 << 20)
	}

	// The output check: a sequential default-config session replays the
	// first ops of the same script on a universe generated from the same
	// seed; its table must be the one the measured session served.
	if res.failed == 0 {
		want, err := w.oracle(e)
		if err != nil {
			return nil, fmt.Errorf("%s: oracle: %w", w.name, err)
		}
		if res.fingerprint != want {
			res.mismatch("fingerprint at op %d is %s, sequential oracle says %s", e.oracleOps, res.fingerprint, want)
		}
	}
	return res, nil
}

func (w reaction) oracle(e *env) (string, error) {
	u := tiers[w.tier].universe(e.seed, e.shrink)
	s, err := wrangle.New(wrangle.WithProvider(u), wrangle.WithSequential())
	if err != nil {
		return "", err
	}
	ctx := context.Background()
	if _, err := s.Run(ctx); err != nil {
		return "", err
	}
	sc, err := w.script(u, s, e.offset())
	if err != nil {
		return "", err
	}
	for i := 0; i < e.oracleOps; i++ {
		sc.mutate(i)
		if _, err := sc.call(ctx, i); err != nil {
			return "", err
		}
	}
	v, err := s.View()
	if err != nil {
		return "", err
	}
	return fingerprint(v), nil
}

// coldRun is one cold.10k op: build a session, subscribe, run the whole
// pipeline, wait for version 1 to arrive. It returns the fingerprint of
// the table the run served.
func coldRun(tr *tracer, op int, opts ...wrangle.Option) (sample, string, error) {
	root := tr.open(op, "run")
	begin := time.Now()
	s, err := wrangle.New(opts...)
	if err != nil {
		return sample{}, "", err
	}
	f, err := openFeed(s, 0, 1)
	if err != nil {
		return sample{}, "", err
	}
	defer f.close()
	built := time.Now()
	if _, err := s.Run(context.Background()); err != nil {
		return sample{}, "", err
	}
	returned := time.Now()
	last, err := f.await(1)
	if err != nil {
		return sample{}, "", err
	}
	end := tr.reacted(root, op, begin, built, returned, last)
	v, err := s.View()
	if err != nil {
		return sample{}, "", err
	}
	st := s.Stats()
	return sample{
		latency: end.Sub(begin), busy: end.Sub(begin),
		gap: returned.Sub(built) - st.Duration, deliver: last.at.Sub(last.published), stages: st.Stages,
	}, fingerprint(v), nil
}

// runCold is batch time-to-first-table: every op builds a fresh session
// over one shared universe, runs the whole pipeline and waits for
// version 1 to reach a subscriber.
func runCold(e *env) (*result, error) {
	res := newResult("cold.10k")
	// Set-up is the universe plus a first cold run, like every other
	// workload's; only the universe survives it.
	u, secs, err := repeatSetup(e.setups, func() (*synth.Universe, error) {
		u := tiers["10k"].universe(e.seed, e.shrink)
		_, _, err := coldRun(nil, -1, defaultOpts(u)...)
		return u, err
	}, func(*synth.Universe) {})
	if err != nil {
		return nil, fmt.Errorf("cold.10k: set-up: %w", err)
	}
	res.setupS = secs
	res.probeOn = u

	e.drive(res, func(i int) (sample, error) {
		t, fp, err := coldRun(e.tr, i, defaultOpts(u)...)
		if err != nil {
			return sample{}, err
		}
		if res.fingerprint == "" {
			res.fingerprint = fp
		} else if fp != res.fingerprint {
			return sample{}, fmt.Errorf("fingerprint %s differs from the first run's %s", fp, res.fingerprint)
		}
		return t, nil
	})

	if res.failed == 0 {
		_, want, err := coldRun(nil, -1, wrangle.WithProvider(u), wrangle.WithSequential())
		if err != nil {
			return nil, fmt.Errorf("cold.10k: oracle: %w", err)
		}
		if res.fingerprint != want {
			res.mismatch("fingerprint %s, sequential oracle says %s", res.fingerprint, want)
		}
	}
	return res, nil
}

// seededLog is restart.10k's set-up product: a closed durable log and
// the fingerprint its session served just before Close.
type seededLog struct {
	u           *synth.Universe
	dir         string
	fingerprint string
	bytes       int64
}

func seedLog(e *env) (*seededLog, error) {
	u := tiers["10k"].universe(e.seed, e.shrink)
	dir, err := os.MkdirTemp(e.scratch, "seed-")
	if err != nil {
		return nil, err
	}
	s, err := wrangle.New(fullOpts(u, dir)...)
	if err != nil {
		return nil, err
	}
	ctx := context.Background()
	if _, err := s.Run(ctx); err != nil {
		return nil, err
	}
	ids := s.SelectedSources()
	for i := 0; i < e.refreshes; i++ {
		u.World.Evolve(0.05)
		if _, err := s.Refresh(ctx, ids[i%len(ids)]); err != nil {
			return nil, err
		}
	}
	v, err := s.View()
	if err != nil {
		return nil, err
	}
	sl := &seededLog{u: u, dir: dir, fingerprint: fingerprint(v)}
	if ds, ok := s.Durability(); ok {
		sl.bytes = ds.Bytes
	}
	if err := s.Close(); err != nil {
		return nil, err
	}
	return sl, nil
}

// restartOp is one restart.10k op: reopen a copy of the seeded log, which
// must restore; serve the first view, which must be the table served
// before Close; then make one reaction, to show the restored state is
// warm. The op's latency is the restore; its busy time is all of it.
func restartOp(e *env, sl *seededLog, i int) (s sample, firstReact time.Duration, err error) {
	dir := filepath.Join(e.scratch, fmt.Sprintf("restart-%d", i))
	defer os.RemoveAll(dir)
	root := e.tr.open(i, "restore")
	begin := time.Now()
	if err := copyDir(sl.dir, dir); err != nil {
		return s, 0, err
	}
	copied := time.Now()
	sess, err := wrangle.New(fullOpts(sl.u, dir)...)
	if err != nil {
		return s, 0, err
	}
	defer sess.Close()
	v, err := sess.View()
	serving := time.Now()
	if err != nil || !sess.Restored() {
		return s, 0, fmt.Errorf("not restored from the log (%v)", err)
	}
	e.tr.add(root, i, "mutate", begin, copied)
	e.tr.add(root, i, "session.call", copied, serving)
	e.tr.close(root, begin, serving)
	if fp := fingerprint(v); fp != sl.fingerprint {
		return s, 0, fmt.Errorf("restored fingerprint %s, served before Close %s", fp, sl.fingerprint)
	}

	f, err := openFeed(sess, v.Version(), 2)
	if err != nil {
		return s, 0, err
	}
	defer f.close()
	ids := sess.SelectedSources()
	react := e.tr.open(i, "reaction")
	reactBegin := time.Now()
	sl.u.World.Evolve(0.05)
	exists := time.Now()
	stats, err := sess.Refresh(context.Background(), ids[(e.offset()+i)%len(ids)])
	returned := time.Now()
	if err != nil {
		return s, 0, fmt.Errorf("first reaction: %w", err)
	}
	last, err := f.await(v.Version() + 1)
	if err != nil {
		return s, 0, fmt.Errorf("first reaction: %w", err)
	}
	end := e.tr.reacted(react, i, reactBegin, exists, returned, last)
	closing := time.Now()
	if err := sess.Close(); err != nil {
		return s, 0, err
	}
	return sample{
		latency: serving.Sub(copied),
		busy:    serving.Sub(begin) + end.Sub(reactBegin) + time.Since(closing),
		gap:     returned.Sub(exists) - stats.Duration, deliver: last.at.Sub(last.published),
		stages: stats.Stages, resolved: stats.ShardsResolved, reused: stats.ShardsReused,
	}, last.at.Sub(exists), nil
}

// runRestart is restart-to-serving, what an operator waits for after a
// deploy.
func runRestart(e *env) (*result, error) {
	res := newResult("restart.10k")
	// Seeding the log is nine reactions; three set-ups are what a run affords.
	sl, secs, err := repeatSetup(min(e.setups, 3), func() (*seededLog, error) { return seedLog(e) },
		func(s *seededLog) { _ = os.RemoveAll(s.dir) })
	if err != nil {
		return nil, fmt.Errorf("restart.10k: set-up: %w", err)
	}
	defer os.RemoveAll(sl.dir)
	res.setupS = secs
	res.probeOn = sl.u
	res.fingerprint = sl.fingerprint
	res.extras["log_mb"] = float64(sl.bytes) / (1 << 20)
	var firstReactMS []float64
	e.drive(res, func(i int) (sample, error) {
		s, first, err := restartOp(e, sl, i)
		if err == nil && i >= e.warmup {
			firstReactMS = append(firstReactMS, ms(first))
		}
		return s, err
	})
	res.extras["first_react_p50_ms"] = median(firstReactMS)
	res.reportTail("first_react", "ms", firstReactMS)
	return res, nil
}

// copyDir copies the regular files of src into a new directory dst.
func copyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	entries, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, ent := range entries {
		if !ent.Type().IsRegular() {
			continue
		}
		if err := copyFile(filepath.Join(src, ent.Name()), filepath.Join(dst, ent.Name())); err != nil {
			return err
		}
	}
	return nil
}

func copyFile(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}

// workloads is the suite, in the order BENCHMARK.json declares it.
var workloads = []struct {
	name string
	run  func(e *env) (*result, error)
}{
	{"cold.10k", runCold},
	{"refresh.1k", reaction{name: "refresh.1k", tier: "1k", watchers: 1, reader: true, script: refreshScript}.run},
	{"refresh.10k", reaction{name: "refresh.10k", tier: "10k", full: true, watchers: 2, script: refreshScript}.run},
	{"feedback.10k", reaction{name: "feedback.10k", tier: "10k", full: true, watchers: 2, script: feedbackScript}.run},
	{"restart.10k", runRestart},
	{"serve.sse.1k", runServeSSE},
}
