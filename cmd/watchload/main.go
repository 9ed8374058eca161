// Command watchload is the change-feed load harness: it stands up a
// synthetic wrangling session, subscribes N concurrent watchers through
// Session.Watch, and drives continuous churn — alternating source
// refreshes and value feedback — for a fixed duration, measuring what the
// subscribers actually observe:
//
//   - publish-to-delivery latency (p50/p95/p99) across every delivery,
//   - bytes per subscriber, serialised the way /watch frames are
//     (changed records only; shared pages elided),
//   - stream integrity: every watcher's feed must be gapless and
//     strictly monotonic until it ends or is explicitly evicted,
//   - eviction count: slow consumers must be cut loose deterministically
//     rather than ever blocking a publish.
//
// Usage:
//
//	watchload [-subscribers N] [-duration d] [-seed N] [-sources N]
//	          [-shards N] [-buffer N] [-retain N] [-churn f] [-smoke]
//	          [-metrics-dump]
//
// -smoke runs the CI configuration (100 subscribers, 5s) and exits
// non-zero if any stream gapped, nobody received anything, or a draining
// subscriber was evicted — the wired-into-make loadtest gate.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/wrangle"
	"repro/wrangle/synth"
)

func main() {
	subscribers := flag.Int("subscribers", 1000, "concurrent watch subscribers")
	duration := flag.Duration("duration", 30*time.Second, "how long to drive churn")
	seed := flag.Int64("seed", 1, "deterministic seed")
	nSources := flag.Int("sources", 8, "synthetic sources")
	shards := flag.Int("shards", 4, "integration shards (delta publication)")
	buffer := flag.Int("buffer", 64, "per-subscriber watch buffer")
	retain := flag.Int("retain", 8, "snapshot versions to retain")
	churn := flag.Float64("churn", 0.05, "world churn per refresh tick")
	smoke := flag.Bool("smoke", false, "CI smoke: 100 subscribers for 5s, strict exit code")
	stateDir := flag.String("state", "", "durable state directory: log committed versions and write a fingerprint sidecar per publish")
	verifyState := flag.Bool("verify-state", false, "crash-recovery check: reopen -state, compare against the sidecar, strict exit")
	metricsDump := flag.Bool("metrics-dump", false, "enable session telemetry and print the final registry scrape (Prometheus text format)")
	flag.Parse()
	if *smoke {
		*subscribers, *duration = 100, 5*time.Second
	}
	if *verifyState {
		if *stateDir == "" {
			fmt.Fprintln(os.Stderr, "watchload: -verify-state requires -state")
			os.Exit(2)
		}
		if err := verify(*stateDir, *seed, *nSources, *shards, *buffer, *retain); err != nil {
			fmt.Fprintln(os.Stderr, "watchload: verify:", err)
			os.Exit(1)
		}
		return
	}
	if err := run(*subscribers, *duration, *seed, *nSources, *shards, *buffer, *retain, *churn, *smoke, *stateDir, *metricsDump); err != nil {
		fmt.Fprintln(os.Stderr, "watchload:", err)
		os.Exit(1)
	}
}

// subscriberStats is what one watcher observed over its stream.
type subscriberStats struct {
	delivered int
	gaps      int
	evicted   bool
	lastSeen  uint64
}

func run(subscribers int, duration time.Duration, seed int64, nSources, shards, buffer, retain int, churn float64, strict bool, stateDir string, metricsDump bool) error {
	world := synth.NewWorld(seed, 200, 0)
	for i := 0; i < 12; i++ {
		world.Evolve(0.15)
	}
	u := synth.Generate(world, synth.DefaultConfig(seed, nSources))
	opts := []wrangle.Option{
		wrangle.WithProvider(u),
		wrangle.WithIntegrationShards(shards),
		wrangle.WithRetainVersions(retain),
		wrangle.WithWatchBuffer(buffer),
	}
	if stateDir != "" {
		opts = append(opts, wrangle.WithDurableLog(stateDir))
	}
	if metricsDump {
		opts = append(opts, wrangle.WithMetrics())
	}
	s, err := wrangle.New(opts...)
	if err != nil {
		return err
	}
	defer s.Close()
	// Delivery latency accumulates into one shared fixed-bucket histogram
	// (allocation-free on the delivery path); with -metrics-dump it is
	// registered on the session registry so the final scrape includes it.
	latency := wrangle.NewHistogram(wrangle.DurationBuckets())
	if reg := s.Metrics(); reg != nil {
		latency = reg.Histogram("watchload_delivery_seconds", wrangle.DurationBuckets())
		reg.Help("watchload_delivery_seconds", "Publish-to-delivery latency observed by load subscribers.")
	}
	start := time.Now()
	if s.Restored() {
		fmt.Printf("warm restart from %s\n", stateDir)
	} else if _, err := s.Run(context.Background()); err != nil {
		return err
	}
	first, err := s.View()
	if err != nil {
		return err
	}
	fmt.Printf("session up in %s: %d sources, %d shards, %d rows, retain %d, buffer %d\n",
		time.Since(start).Round(time.Millisecond), nSources, shards, first.Table().Len(), retain, buffer)

	// Subscribers: each drains its own feed, asserting order and
	// measuring publish→delivery latency from the version's commit stamp.
	ctx, stop := context.WithCancel(context.Background())
	defer stop()
	stats := make([]subscriberStats, subscribers)
	var wg sync.WaitGroup
	for i := 0; i < subscribers; i++ {
		ch, cancel, err := s.Watch(ctx, first.Version())
		if err != nil {
			return fmt.Errorf("subscriber %d: %w", i, err)
		}
		wg.Add(1)
		go func(st *subscriberStats, ch <-chan wrangle.Change, cancel wrangle.CancelFunc) {
			defer wg.Done()
			defer cancel()
			last := first.Version()
			for c := range ch {
				if c.Evicted {
					st.evicted = true
					return
				}
				if c.Version() != last+1 {
					st.gaps++
				}
				last = c.Version()
				st.lastSeen = last
				st.delivered++
				latency.Observe(time.Since(c.View.PublishedAt()).Seconds())
			}
		}(&stats[i], ch, cancel)
	}

	// The meter: one extra subscription that serialises every version's
	// frame the way /watch does — changed records inlined, shared pages
	// elided — so bytes/subscriber reflects the wire, not the table.
	var frameBytes atomic.Int64
	meterCh, meterCancel, err := s.Watch(ctx, first.Version())
	if err != nil {
		return err
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer meterCancel()
		for c := range meterCh {
			if c.Evicted {
				return
			}
			frameBytes.Add(int64(frameSize(c)))
		}
	}()

	// The writer: churn the world and alternate refresh (one source,
	// round-robin) with value feedback, as fast as reactions complete.
	deadline := time.Now().Add(duration)
	publishes, feedbacks := 0, 0
	ids := s.SelectedSources()
	rep := s.Report("load", "price")
	var lines []wrangle.ReportLine
	for _, l := range rep.Lines {
		if len(l.Supporters) > 0 {
			lines = append(lines, l)
		}
	}
	for tick := 0; time.Now().Before(deadline); tick++ {
		if tick%4 == 3 && len(lines) > 0 {
			l := lines[tick%len(lines)]
			if _, err := s.ApplyFeedback(ctx, wrangle.Feedback{
				Kind: wrangle.ValueIncorrect, SourceID: l.Supporters[0],
				Entity: l.Entity, Attribute: l.Attribute, Cost: 0.1,
			}); err != nil {
				return fmt.Errorf("feedback reaction: %w", err)
			}
			feedbacks++
		} else {
			u.World.Evolve(churn)
			if _, err := s.Refresh(ctx, ids[tick%len(ids)]); err != nil {
				return fmt.Errorf("refresh reaction: %w", err)
			}
		}
		publishes++
		if stateDir != "" {
			// The sidecar records what a subscriber could have observed:
			// (version, table hash) after every publish, renamed into place
			// atomically so a SIGKILL never leaves a torn fingerprint. The
			// crash-recovery gate replays the log and compares against it.
			if v, err := s.View(); err == nil {
				if err := writeSidecar(stateDir, v); err != nil {
					return fmt.Errorf("sidecar: %w", err)
				}
			}
		}
	}
	elapsed := time.Since(deadline.Add(-duration))

	// Let live streams drain the tail, then detach everyone.
	time.Sleep(200 * time.Millisecond)
	stop()
	wg.Wait()

	final, _ := s.View()
	delivered, gaps, evictions, caughtUp := 0, 0, 0, 0
	for i := range stats {
		delivered += stats[i].delivered
		gaps += stats[i].gaps
		if stats[i].evicted {
			evictions++
		}
		if stats[i].lastSeen == final.Version() {
			caughtUp++
		}
	}
	p50, p95, p99 := latency.Quantile(0.50), latency.Quantile(0.95), latency.Quantile(0.99)

	fmt.Printf("\n%d reactions in %s (%d refresh, %d feedback) → versions %d..%d\n",
		publishes, elapsed.Round(time.Millisecond), publishes-feedbacks, feedbacks, first.Version()+1, final.Version())
	fmt.Printf("subscribers: %d   delivered: %d events (%.0f/s)   caught up at end: %d\n",
		subscribers, delivered, float64(delivered)/elapsed.Seconds(), caughtUp)
	fmt.Printf("latency: p50 %.1fms  p95 %.1fms  p99 %.1fms  (histogram estimate over %d deliveries)\n",
		p50*1000, p95*1000, p99*1000, latency.Count())
	fmt.Printf("bytes/subscriber: %s over %d versions (delta frames; shared pages elided)\n",
		sizeof(frameBytes.Load()), final.Version()-first.Version())
	fmt.Printf("gaps: %d   evictions: %d   watchers left: %d\n", gaps, evictions, s.Watchers())

	// Machine-readable tail line for harnesses scraping the run.
	summary, _ := json.Marshal(map[string]any{
		"subscribers": subscribers, "publishes": publishes, "delivered": delivered,
		"p50_us": p50 * 1e6, "p95_us": p95 * 1e6, "p99_us": p99 * 1e6,
		"bytesPerSubscriber": frameBytes.Load(), "gaps": gaps, "evictions": evictions,
	})
	fmt.Printf("summary: %s\n", summary)

	if reg := s.Metrics(); reg != nil {
		fmt.Println("\n-- metrics dump --")
		if err := reg.WritePrometheus(os.Stdout); err != nil {
			return err
		}
	}

	if gaps > 0 {
		return fmt.Errorf("%d subscribers observed gapped streams", gaps)
	}
	if leftover := s.Watchers(); leftover != 0 {
		return fmt.Errorf("%d watchers leaked after cancellation", leftover)
	}
	if strict {
		if publishes < 2 || delivered == 0 {
			return fmt.Errorf("smoke made no progress (%d publishes, %d deliveries)", publishes, delivered)
		}
		if evictions > 0 {
			return fmt.Errorf("smoke evicted %d draining subscribers", evictions)
		}
	}
	return nil
}

// frameSize measures one change as a /watch-shaped frame: the changed
// records' rows (all rows when the change is Full) plus the metadata.
func frameSize(c wrangle.Change) int {
	t, ents := c.View.Table(), c.View.Entities()
	names := t.Schema().Names()
	rows := map[string]map[string]any{}
	add := func(i int, e string) {
		o := make(map[string]any, len(names))
		for j, val := range t.Row(i) {
			if val.IsNull() {
				continue
			}
			switch val.Kind() {
			case wrangle.KindInt:
				o[names[j]] = val.IntVal()
			case wrangle.KindFloat:
				o[names[j]] = val.FloatVal()
			case wrangle.KindBool:
				o[names[j]] = val.BoolVal()
			default:
				o[names[j]] = val.String()
			}
		}
		rows[e] = o
	}
	if c.Changes.Full {
		for i, e := range ents {
			add(i, e)
		}
	} else {
		for _, e := range c.Changes.ChangedRecords {
			if i := sort.SearchStrings(ents, e); i < len(ents) && ents[i] == e {
				add(i, e)
			}
		}
	}
	payload, _ := json.Marshal(map[string]any{
		"version": c.Version(), "full": c.Changes.Full,
		"changedShards": c.Changes.ChangedShards, "changedPages": c.Changes.ChangedPages,
		"sharedPages": c.Changes.SharedPages, "removedRecords": c.Changes.RemovedRecords,
		"rows": rows,
	})
	return len(payload)
}

// sidecar is the per-publish fingerprint the churn loop drops next to the
// durable log: the last published version and a hash of its table. It is
// what the pre-crash process provably committed, so the recovery check
// has ground truth that does not depend on replaying the log it audits.
type sidecar struct {
	Seq  uint64 `json:"seq"`
	Hash string `json:"hash"`
}

// writeSidecar writes {seq, hash} for the view atomically (tmp + rename):
// a SIGKILL at any instant leaves either the old fingerprint or the new
// one, never a torn file.
func writeSidecar(dir string, v *wrangle.View) error {
	buf, err := json.Marshal(sidecar{Seq: v.Version(), Hash: viewHash(v)})
	if err != nil {
		return err
	}
	tmp := filepath.Join(dir, "fingerprint.tmp")
	if err := os.WriteFile(tmp, buf, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, filepath.Join(dir, "fingerprint.txt"))
}

// viewHash digests a version's table, row order and entity index — the
// reader-visible state a restart must reproduce exactly.
func viewHash(v *wrangle.View) string {
	h := fnv.New64a()
	t := v.Table()
	io.WriteString(h, t.Schema().String())
	for i := 0; i < t.Len(); i++ {
		for _, val := range t.Row(i) {
			io.WriteString(h, val.Key())
			io.WriteString(h, "|")
		}
		io.WriteString(h, "\n")
	}
	for _, e := range v.Entities() {
		io.WriteString(h, e)
		io.WriteString(h, ",")
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// verify is the crash-recovery gate: reopen the state directory a killed
// churn run left behind and hold it against the sidecar. Strict failures:
// nothing restored, the log replayed to an older version than the sidecar
// proves was committed (lost write), or the restored version's hash
// diverges from what the pre-crash process served (corrupted replay). A
// restored version newer than the sidecar is fine — the crash landed
// between a publish and its sidecar rename — but then the sidecar's own
// version, if still retained, must hash identically. Ends with one live
// reaction, proving the warm session can keep publishing.
func verify(dir string, seed int64, nSources, shards, buffer, retain int) error {
	world := synth.NewWorld(seed, 200, 0)
	for i := 0; i < 12; i++ {
		world.Evolve(0.15)
	}
	u := synth.Generate(world, synth.DefaultConfig(seed, nSources))
	s, err := wrangle.New(
		wrangle.WithProvider(u),
		wrangle.WithIntegrationShards(shards),
		wrangle.WithRetainVersions(retain),
		wrangle.WithWatchBuffer(buffer),
		wrangle.WithDurableLog(dir),
	)
	if err != nil {
		return err
	}
	defer s.Close()
	if !s.Restored() {
		return fmt.Errorf("state %s did not restore a session (no committed versions replayed)", dir)
	}
	v, err := s.View()
	if err != nil {
		return err
	}
	fmt.Printf("restored to version %d (%d rows)\n", v.Version(), v.Table().Len())

	buf, err := os.ReadFile(filepath.Join(dir, "fingerprint.txt"))
	switch {
	case errors.Is(err, os.ErrNotExist):
		fmt.Println("no fingerprint sidecar (killed before the first publish); restore alone verified")
	case err != nil:
		return err
	default:
		var sc sidecar
		if err := json.Unmarshal(buf, &sc); err != nil {
			return fmt.Errorf("sidecar: %w", err)
		}
		switch {
		case v.Version() < sc.Seq:
			return fmt.Errorf("replay lost committed versions: restored to %d, pre-crash process published %d", v.Version(), sc.Seq)
		case v.Version() == sc.Seq:
			if got := viewHash(v); got != sc.Hash {
				return fmt.Errorf("version %d diverged after restore: hash %s, pre-crash %s", sc.Seq, got, sc.Hash)
			}
			fmt.Printf("version %d hash matches the pre-crash sidecar\n", sc.Seq)
		default:
			// The kill landed between a publish and its sidecar rename; the
			// sidecar's version must still hash identically if retained.
			at, err := v.At(sc.Seq)
			if err == nil {
				if got := viewHash(at); got != sc.Hash {
					return fmt.Errorf("retained version %d diverged after restore: hash %s, pre-crash %s", sc.Seq, got, sc.Hash)
				}
				fmt.Printf("restored past the sidecar (%d > %d); retained version still matches\n", v.Version(), sc.Seq)
			} else {
				fmt.Printf("restored past the sidecar (%d > %d); sidecar version already out of retention\n", v.Version(), sc.Seq)
			}
		}
	}

	// The warm session must not just read back — it must keep going.
	ids := s.SelectedSources()
	if len(ids) == 0 {
		return fmt.Errorf("restored session selected no sources")
	}
	stats, err := s.Refresh(context.Background(), ids[0])
	if err != nil {
		return fmt.Errorf("post-restore refresh: %w", err)
	}
	v2, err := s.View()
	if err != nil {
		return err
	}
	fmt.Printf("post-restore refresh published version %d (shards resolved %d, reused %d; trust components %d)\n",
		v2.Version(), stats.ShardsResolved, stats.ShardsReused, stats.TrustComponents)
	return nil
}

// sizeof renders a byte count human-readably.
func sizeof(n int64) string {
	switch {
	case n >= 1<<20:
		return fmt.Sprintf("%.1f MiB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.1f KiB", float64(n)/(1<<10))
	default:
		return fmt.Sprintf("%d B", n)
	}
}
