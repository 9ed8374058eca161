// Package wrangle is the public entry point to the repro's data wrangling
// pipeline — the automated, context-aware, pay-as-you-go architecture of
// Furche et al., "Data Wrangling for Big Data" (EDBT 2016), Figure 1.
//
// It is a facade over the internal packages: callers configure a session
// with functional options, run it, and react to feedback — without ever
// importing repro/internal/... (which is free to churn between releases).
//
// # Quickstart
//
//	s, err := wrangle.New(
//		wrangle.WithDomain(wrangle.Products),
//		wrangle.WithSeed(42),
//	)
//	if err != nil { ... }
//	table, err := s.Run(context.Background())
//
// # Real data
//
// Point a session at CSV/JSON/KV/HTML files on disk instead of the
// synthetic universe:
//
//	p, err := wrangle.FromDir("./data")
//	s, err := wrangle.New(wrangle.WithProvider(p))
//
// Any backend implementing the Provider interface works the same way.
//
// # Lifecycle
//
// A Session wraps the pay-as-you-go loop: Run wrangles, Report renders
// reviewable output, ApplyFeedback assimilates annotations incrementally
// (only affected artefacts are recomputed), and Refresh reacts to source
// churn. All lifecycle methods take a context.Context and honour
// cancellation between pipeline stages.
//
// # Serving
//
// Every successful Run / ApplyFeedback / Refresh commits an immutable
// copy-on-write snapshot version. Readers pin one with Session.View —
// a single atomic load, never blocked by an in-flight reaction — and
// time-travel within the retention window via View.At
// (WithRetainVersions bounds it; pruned versions report ErrCompacted).
//
// Consumers that follow the output subscribe instead of polling:
// Session.Watch pushes every committed version as a Change — a View
// pinned to the version plus a ChangeSet saying exactly which records,
// and which entity ranges (pages), moved, so per-version cost is O(delta) on sessions with a
// shard count (WithIntegrationShards; without one every ChangeSet is
// Full). Streams are gapless and monotonic, catch up from any
// retained version (ErrCompacted below the window), and never block
// the pipeline: a subscriber that stops draining its bounded buffer
// (WithWatchBuffer) is evicted with one final Change{Evicted: true}.
//
// # Durability
//
// By default everything above is in-memory and dies with the process.
// WithDurableLog(dir) attaches a checksummed append-only log: every
// committed version appends what it rebuilt — a fused page is written
// once and referenced by id by every version that carries it — and
// reopening the same directory restores the session warm
// (Session.Restored reports true). A restored session serves its retained
// versions immediately (identical tables, trust state and compaction
// boundaries — View.At below the window answers ErrCompacted exactly as
// before the restart), and watchers catch up from the restored window.
// The restore decodes only the newest version; an older one decodes on
// its first View.At or Watch catch-up, and the working data is rebuilt by
// the first reaction, which pays for it (its "restore" stage). The
// rebuild leaves what a live reaction would leave warm — the plan, the
// entity names and the prepared claim groups — so the reaction then
// runs as a partial tail that re-prepares only the groups it moved,
// rather than a cold full run. Session.Checkpoint rewrites the log
// down to the retention window; WithDurableFsync selects FsyncAlways
// (fsync every commit) over the default FsyncOnCheckpoint;
// Session.Durability reports log size and checkpoint position; Close
// releases the log so another process can open it.
//
// # Observability
//
// WithMetrics turns on the telemetry spine: Session.Metrics returns a
// registry of atomic counters, gauges and fixed-bucket histograms that
// every layer stamps — per-stage and per-task durations for each run
// and reaction, shard reuse, publish delta shapes, serve reads and
// typed read errors, change-feed fan-out, and (for durable sessions)
// WAL activity. Metrics.WritePrometheus renders a deterministic
// Prometheus text exposition, safe to scrape from any goroutine while
// the session reacts; cmd/wrangle -serve mounts it at GET /metrics and
// net/http/pprof behind -pprof. Telemetry is off by default and the
// disabled path costs one nil check per site (Session.Metrics returns
// nil). The README's Observability section holds the metric catalogue.
package wrangle
