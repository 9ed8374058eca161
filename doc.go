// Package repro is a from-scratch Go reproduction of the system envisioned
// in "Data Wrangling for Big Data: Challenges and Opportunities" (Furche,
// Gottlob, Libkin, Orsi, Paton — EDBT 2016): a highly automated,
// context-aware, pay-as-you-go data wrangling architecture.
//
// The paper is a vision paper; this repository builds the architecture it
// proposes (Figure 1) together with every substrate it depends on and the
// baselines it argues against, plus an experiment harness that tests each
// of the paper's measurable claims.
//
// Start at repro/wrangle — the public facade (sessions, functional
// options, pluggable source providers) and the only supported import
// surface; everything under internal/ is free to churn. Behind the
// facade, internal/engine executes each run as a task DAG on a bounded
// worker pool: per-source extraction chains fan out in parallel
// (WithParallelism / WithSequential) and merge deterministically, so a
// parallel run is byte-identical to a sequential one. The integration
// tail — entity resolution and fusion over the global union — is one
// engine DAG every session runs, sharded by blocking key
// (WithIntegrationShards; one shard without it): block-connected
// components route whole to deterministic owner shards, resolve and fuse
// as engine tasks, and merge back byte-identically at any shard count, a
// property pinned by the internal/wrangletest determinism harness, its
// fuzz target and a reference check against one global resolve and fuse.
// Each successful run and reaction then commits an immutable
// copy-on-write snapshot version into internal/serve; Session.View pins
// the latest version with one atomic load, so heavy read traffic is
// served lock-free and untorn while feedback and refresh reactions churn
// in the background (WithRetainVersions bounds the history, cmd/wrangle
// -serve exposes it over HTTP). Versions share records by page: a
// reaction that leaves a shard's fused rows unchanged shares that shard's
// records with the predecessor version, making publication O(changed
// shard), and a session with a shard count announces each version to
// watchers as a record delta. Reactions are partial tails: the session
// memoizes its last integrated tail and the reaction planner
// (internal/core) diffs the rebuilt union against it, re-resolving only
// dirty components (cached pair scores cover the rest) and reusing
// untouched shards' clusters by reference, byte-identically to the full
// recompute. The back half runs whole — claims are grouped once, trust is
// the exact global fixpoint, every shard re-fuses its entities' groups
// under it — and reuses at one grain: prepared claim groups inside the
// trust estimation, fused records at the merge. The tail's front half is
// O(changed source): whatever is a function of one
// record — the FD profile's cell strings (internal/quality), the
// resolver's row features (internal/er) — is derived once per source
// generation, next to the source's mapped table, and dies with it; the
// union is copy-on-write (unchanged sources contribute their records by
// reference, FD repair clones before it writes), so record identity is
// the cache key for "content unchanged"; and what remains global per
// reaction is integer work — an FD kernel counting dictionary ids, a
// block index of dense block ids, one sorted packed pair list the
// re-plan merges deltas into. The trust fixpoint itself is
// partitioned by trust-coupled connected components
// (internal/fusion): sources sharing no chain of claim groups iterate
// independently, each component converging on its own break; claim
// groups are prepared on the same worker pool, and a warm estimation
// prepares only the groups whose claims moved — float-identical at
// any worker count. Source re-acquisition
// overlaps on the same worker pool for providers that opt into the
// sources.ConcurrentProvider contract. WithMetrics threads the
// internal/obs telemetry registry through all of it — stage and task
// histograms, shard reuse, publish deltas, serve reads, watch fan-out,
// WAL activity — rendered as a deterministic Prometheus scrape
// (cmd/wrangle -serve exposes /metrics and, with -pprof, the standard
// profile endpoints; benchmark/ declares the end-to-end workloads
// BENCHMARK.json runs). README.md holds the quickstart,
// CLI usage, and the architecture, shard/merge, delta-version and
// dirty-set diagrams, ROADMAP.md the north star and open
// items, and repro/wrangle/experiments the paper-claim experiment
// index that cmd/experiments prints.
//
// The root package holds the benchmark suite (bench_test.go): one
// testing.B benchmark per experiment, regenerating the tables that
// cmd/experiments prints.
package repro
