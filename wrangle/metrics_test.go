package wrangle_test

import (
	"context"
	"strings"
	"testing"

	"repro/wrangle"
)

// counter reads a counter's value from the session registry.
func counter(s *wrangle.Session, name string, labels ...string) int64 {
	return s.Metrics().Counter(name, labels...).Value()
}

// reactions reads wrangle_reactions_total for one origin.
func reactions(s *wrangle.Session, origin string) int64 {
	return counter(s, "wrangle_reactions_total", "origin", origin)
}

// stageCount reads how many observations landed in the per-origin stage
// histogram for one stage.
func stageCount(s *wrangle.Session, origin, stage string) int64 {
	return s.Metrics().
		Histogram("wrangle_stage_seconds", wrangle.DurationBuckets(), "origin", origin, "stage", stage).
		Count()
}

func TestMetricsNilWithoutOption(t *testing.T) {
	s, err := wrangle.New(wrangle.WithSeed(3), wrangle.WithSyntheticSources(4))
	if err != nil {
		t.Fatal(err)
	}
	if s.Metrics() != nil {
		t.Fatal("Metrics() should be nil without WithMetrics")
	}
	// The disabled path must still wrangle: every instrumentation site is
	// a nil check, not a nil dereference.
	if _, err := s.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Refresh(context.Background(), s.SelectedSources()[0]); err != nil {
		t.Fatal(err)
	}
}

// TestMetricsStageTimingsSequential drives every reaction origin through
// a default session (no shard count set: the tail runs at one shard) and
// asserts each stamps its stage timings: the initial run, a full-tail
// feedback reaction (source relevance), a fuse-only feedback reaction
// (value confirmation), and a refresh.
func TestMetricsStageTimingsSequential(t *testing.T) {
	s, err := wrangle.New(
		wrangle.WithSeed(7),
		wrangle.WithSyntheticSources(6),
		wrangle.WithMetrics(),
	)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, err := s.Run(ctx); err != nil {
		t.Fatal(err)
	}
	if got := reactions(s, "run"); got != 1 {
		t.Fatalf("reactions{run} = %d, want 1", got)
	}
	// A run graph is the per-source fan-out, then the integration tail,
	// timed as a whole and by DAG stage.
	for _, stage := range []string{"sources", "integrate", "replan", "resolve", "trust", "fuse", "merge"} {
		if stageCount(s, "run", stage) == 0 {
			t.Errorf("run reaction left no %s stage timing", stage)
		}
	}
	if counter(s, "wrangle_engine_tasks_total") == 0 {
		t.Error("no engine task spans recorded for the run")
	}

	ids := s.SelectedSources()
	if _, err := s.ApplyFeedback(ctx, wrangle.Feedback{
		Kind: wrangle.SourceRelevant, SourceID: ids[0], Worker: "expert", Cost: 0.1,
	}); err != nil {
		t.Fatal(err)
	}
	if got := reactions(s, "feedback"); got != 1 {
		t.Fatalf("reactions{feedback} = %d, want 1", got)
	}
	if stageCount(s, "feedback", "integrate") == 0 {
		t.Error("full-tail feedback reaction left no integrate stage timing")
	}

	// A value confirmation re-fuses without re-planning or re-resolving:
	// the fuse stage gains an observation, replan and resolve do not.
	v, err := s.View()
	if err != nil {
		t.Fatal(err)
	}
	line := v.Report().Lines[0]
	preFuse := stageCount(s, "feedback", "fuse")
	preReplan := stageCount(s, "feedback", "replan")
	preResolve := stageCount(s, "feedback", "resolve")
	if _, err := s.ApplyFeedback(ctx, wrangle.Feedback{
		Kind: wrangle.ValueCorrect, Entity: line.Entity, Attribute: line.Attribute,
		Worker: "expert", Cost: 0.1,
	}); err != nil {
		t.Fatal(err)
	}
	if got := stageCount(s, "feedback", "fuse"); got <= preFuse {
		t.Errorf("fuse-only feedback reaction left no fuse stage timing (count %d)", got)
	}
	if got := stageCount(s, "feedback", "replan"); got != preReplan {
		t.Errorf("fuse-only feedback reaction re-planned: count %d -> %d", preReplan, got)
	}
	if got := stageCount(s, "feedback", "resolve"); got != preResolve {
		t.Errorf("fuse-only feedback reaction re-resolved: count %d -> %d", preResolve, got)
	}

	if _, err := s.Refresh(ctx, ids[0]); err != nil {
		t.Fatal(err)
	}
	if got := reactions(s, "refresh"); got != 1 {
		t.Fatalf("reactions{refresh} = %d, want 1", got)
	}
	if stageCount(s, "refresh", "reextract") == 0 {
		t.Error("refresh reaction left no reextract stage timing")
	}
	if c := s.Metrics().Histogram("wrangle_reaction_seconds", wrangle.DurationBuckets(), "origin", "refresh").Count(); c != 1 {
		t.Errorf("reaction_seconds{refresh} count = %d, want 1", c)
	}
}

// TestMetricsStageTimingsSharded drives the sharded tail and
// asserts the shard-reuse telemetry: resolved/reused counters move, the
// reuse-ratio gauge stays in [0,1], and sharded sessions publish deltas.
func TestMetricsStageTimingsSharded(t *testing.T) {
	s, err := wrangle.New(
		wrangle.WithSeed(21),
		wrangle.WithSyntheticSources(6),
		wrangle.WithIntegrationShards(4),
		wrangle.WithMetrics(),
	)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, err := s.Run(ctx); err != nil {
		t.Fatal(err)
	}
	ids := s.SelectedSources()
	stats, err := s.Refresh(ctx, ids[1])
	if err != nil {
		t.Fatal(err)
	}
	resolved := counter(s, "wrangle_shards_resolved_total")
	reused := counter(s, "wrangle_shards_reused_total")
	if int(resolved) != stats.ShardsResolved || int(reused) != stats.ShardsReused {
		t.Errorf("shard counters (%d resolved, %d reused) disagree with ReactStats %+v",
			resolved, reused, stats)
	}
	if resolved+reused == 0 {
		t.Fatal("sharded refresh moved no shard counters")
	}
	if ratio := s.Metrics().Gauge("wrangle_shard_reuse_ratio").Value(); ratio < 0 || ratio > 1 {
		t.Errorf("reuse ratio gauge out of range: %g", ratio)
	}
	if stageCount(s, "refresh", "resolve") == 0 {
		t.Error("sharded refresh left no resolve stage timing")
	}
	if counter(s, "wrangle_publish_delta_total") == 0 {
		t.Error("sharded reaction did not publish a delta")
	}
}

// TestMetricsRestoredSession reopens a durable session with telemetry
// enabled and asserts the first reaction after warm restart stamps stage
// metrics and WAL activity.
func TestMetricsRestoredSession(t *testing.T) {
	dir := t.TempDir()
	opts := []wrangle.Option{
		wrangle.WithSeed(9),
		wrangle.WithSyntheticSources(6),
		wrangle.WithIntegrationShards(2),
		wrangle.WithDurableLog(dir),
	}
	s1, err := wrangle.New(opts...)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s1.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := wrangle.New(append(opts, wrangle.WithMetrics())...)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if !s2.Restored() {
		t.Fatal("session did not restore from the durable log")
	}
	// Replay happened before the registry attached, so the WAL counters
	// start from zero; the healthy log replayed without truncation.
	if got := counter(s2, "wrangle_wal_appends_total"); got != 0 {
		t.Fatalf("restored session starts with %d WAL appends recorded", got)
	}
	if got := counter(s2, "wrangle_wal_replay_truncations_total"); got != 0 {
		t.Fatalf("healthy log recorded %d replay truncations", got)
	}

	// First reaction on the warm session: stage timings stamped, the new
	// version appended (and fsynced) to the log.
	if _, err := s2.Refresh(context.Background(), s2.SelectedSources()[0]); err != nil {
		t.Fatal(err)
	}
	if got := reactions(s2, "refresh"); got != 1 {
		t.Fatalf("reactions{refresh} = %d, want 1", got)
	}
	if stageCount(s2, "refresh", "reextract") == 0 {
		t.Error("restored session's first reaction left no reextract stage timing")
	}
	if counter(s2, "wrangle_wal_appends_total") == 0 {
		t.Error("reaction on a durable session recorded no WAL appends")
	}
	if counter(s2, "wrangle_wal_appended_bytes_total") == 0 {
		t.Error("reaction on a durable session recorded no WAL bytes")
	}
}

// TestMetricsScrapeCatalogue scrapes a churning session and asserts the
// exposition carries every advertised family exactly once, in sorted
// order — deterministic modulo sample values.
func TestMetricsScrapeCatalogue(t *testing.T) {
	s, err := wrangle.New(
		wrangle.WithSeed(21),
		wrangle.WithSyntheticSources(6),
		wrangle.WithIntegrationShards(2),
		wrangle.WithMetrics(),
	)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, err := s.Run(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Refresh(ctx, s.SelectedSources()[0]); err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := s.Metrics().WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	text := b.String()
	for _, family := range []string{
		"wrangle_reactions_total",
		"wrangle_stage_seconds",
		"wrangle_reaction_seconds",
		"wrangle_task_seconds",
		"wrangle_engine_tasks_total",
		"wrangle_serve_publishes_total",
		"wrangle_serve_reads_total",
		"wrangle_shards_resolved_total",
		"wrangle_shard_reuse_ratio",
		"wrangle_rows",
		"wrangle_version",
		"wrangle_derived_rows",
	} {
		if n := strings.Count(text, "# TYPE "+family+" "); n != 1 {
			t.Errorf("family %s appears %d times in the scrape, want 1", family, n)
		}
	}
	// Two scrapes of the same registry are byte-identical: no map-order
	// leakage into the exposition.
	var b2 strings.Builder
	if err := s.Metrics().WritePrometheus(&b2); err != nil {
		t.Fatal(err)
	}
	if text != b2.String() {
		t.Error("consecutive scrapes of an idle registry differ")
	}
}
