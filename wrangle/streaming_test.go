package wrangle_test

import (
	"context"
	"testing"

	"repro/wrangle"
)

// TestWithStreamingRefreshIsNoOp pins the deprecated option: it is
// accepted with or without shards, in any order, and changes neither the
// served bytes nor the partial tail — a default session runs its tail at
// one shard, a sharded session reuses shards either way.
func TestWithStreamingRefreshIsNoOp(t *testing.T) {
	drive := func(t *testing.T, opts ...wrangle.Option) (string, wrangle.ReactStats) {
		t.Helper()
		s, err := wrangle.New(append([]wrangle.Option{wrangle.WithSeed(21), wrangle.WithSyntheticSources(6)}, opts...)...)
		if err != nil {
			t.Fatal(err)
		}
		ctx := context.Background()
		if _, err := s.Run(ctx); err != nil {
			t.Fatal(err)
		}
		ids := s.SelectedSources()
		if _, err := s.ApplyFeedback(ctx, wrangle.Feedback{
			Kind: wrangle.SourceRelevant, SourceID: ids[0], Worker: "expert", Cost: 0.2,
		}); err != nil {
			t.Fatal(err)
		}
		stats, err := s.Refresh(ctx, ids[1])
		if err != nil {
			t.Fatal(err)
		}
		return sessionFingerprint(t, s), stats
	}
	want, defStats := drive(t)
	if defStats.ShardsResolved+defStats.ShardsReused != 1 {
		t.Errorf("default session does not report a one-shard split: %+v", defStats)
	}
	got, stats := drive(t, wrangle.WithStreamingRefresh())
	if got != want {
		t.Error("WithStreamingRefresh without shards diverged from the default session")
	}
	if stats.ShardsResolved+stats.ShardsReused != 1 {
		t.Errorf("WithStreamingRefresh alone changed the shard count: %+v", stats)
	}
	for name, opts := range map[string][]wrangle.Option{
		"shards only":      {wrangle.WithIntegrationShards(4)},
		"streaming first":  {wrangle.WithStreamingRefresh(), wrangle.WithIntegrationShards(4)},
		"streaming second": {wrangle.WithIntegrationShards(4), wrangle.WithStreamingRefresh()},
	} {
		got, stats := drive(t, opts...)
		if got != want {
			t.Errorf("%s: sharded session diverged from the default session", name)
		}
		if stats.ShardsResolved+stats.ShardsReused != 4 || stats.ShardsReused == 0 {
			t.Errorf("%s: refresh was not a partial tail over 4 shards: %+v", name, stats)
		}
	}
}
