package repro

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/wrangletest"
)

// BenchmarkColdVsWarmStart is the PR-7 headline: standing a session up
// over a 24-source universe and reacting to one churned source, cold
// (full pipeline run — every source extracted, matched, mapped, selected,
// resolved and fused — then the reaction) versus warm (open the durable
// log and restore its newest version into the snapshot store, then the
// same reaction, which first rebuilds the working state and then runs as
// a partial tail over the restored tail memo). Restore
// cost scales with the log — per-source states, the retained versions and
// their deduplicated pages — not with the pipeline, so the warm path
// skips the entire extraction fan-out and integration; shards_reused/op
// confirms the first post-restart reaction really ran warm.
func BenchmarkColdVsWarmStart(b *testing.B) {
	const (
		seed     = int64(3)
		nSources = 24
		shards   = 4
		churn    = 0.1
	)
	react := func(b *testing.B, w *core.Wrangler) core.ReactStats {
		b.Helper()
		w.EvolveWorld(churn)
		stats, err := w.RefreshSource(w.SelectedSources()[0])
		if err != nil {
			b.Fatal(err)
		}
		return stats
	}
	b.Run("cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			w := wrangletest.NewWrangler(seed, nSources, shards)
			if _, err := w.Run(); err != nil {
				b.Fatal(err)
			}
			react(b, w)
		}
	})
	b.Run("warm", func(b *testing.B) {
		// One cold run seeds the log; every iteration then opens it the
		// way a restarted process would.
		dir := b.TempDir()
		seedW := wrangletest.NewWrangler(seed, nSources, shards)
		d, err := core.OpenDurableLog(dir, core.FsyncOnCheckpoint)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := seedW.AttachDurableLog(d); err != nil {
			b.Fatal(err)
		}
		if _, err := seedW.Run(); err != nil {
			b.Fatal(err)
		}
		if err := seedW.Durable().Close(); err != nil {
			b.Fatal(err)
		}
		reused := 0
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			w := wrangletest.NewWrangler(seed, nSources, shards)
			d, err := core.OpenDurableLog(dir, core.FsyncOnCheckpoint)
			if err != nil {
				b.Fatal(err)
			}
			restored, err := w.AttachDurableLog(d)
			if err != nil {
				b.Fatal(err)
			}
			if !restored {
				b.Fatal("warm start restored nothing")
			}
			stats := react(b, w)
			if stats.ShardsReused == 0 {
				b.Fatal(fmt.Sprintf("warm reaction ran cold: %+v", stats))
			}
			reused += stats.ShardsReused
			if err := w.Durable().Close(); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		b.ReportMetric(float64(reused)/float64(b.N), "shards_reused/op")
	})
}
