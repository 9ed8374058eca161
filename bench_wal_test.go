package repro

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/wrangletest"
	"repro/wrangle"
	"repro/wrangle/synth"
)

// BenchmarkColdVsWarmStart is the PR-7 headline: standing a session up
// over a 24-source universe and reacting to one churned source, cold
// (full pipeline run — every source extracted, matched, mapped, selected,
// resolved and fused — then the reaction) versus warm (open the durable
// log and restore its newest version into the snapshot store, then the
// same reaction, which first rebuilds the working state and then runs as
// a partial tail over the restored tail memo). Restore
// cost scales with the log — per-source states, the retained versions and
// their pages — not with the pipeline, so the warm path
// skips the entire extraction fan-out and integration; shards_reused/op
// confirms the first post-restart reaction really ran warm.
//
// warm-10k is the same restart at 10⁴ union rows (100 sources of 80–120
// records, four shards, eight retained versions, a log seeded by a run and
// eight refreshes): each iteration reopens a fresh copy of the log, serves
// the first view and makes one refresh. It reports that first reaction's
// wall (first_react_ms/op) and the stages a cold rebuild would show up in
// — "restore", "resolve", "trust.prepare" and "trust.claims" — in mean ms
// per op, so a first reaction that comes back cold shows without a
// profiler.
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
	b.Run("warm-10k", benchWarmStart10k)
}

// benchWarmStart10k is BenchmarkColdVsWarmStart's 10⁴-row case.
func benchWarmStart10k(b *testing.B) {
	const (
		seed      = int64(1702)
		shards    = 4
		refreshes = 8
		churn     = 0.05
	)
	world := synth.NewWorld(1, 2000, 0)
	for i := 0; i < 12; i++ {
		world.Evolve(0.15)
	}
	cfg := synth.DefaultConfig(1, 100)
	cfg.MinRecords, cfg.MaxRecords = 80, 120
	u := synth.Generate(world, cfg)
	world.Rand().Seed(seed)
	open := func(dir string) *wrangle.Session {
		s, err := wrangle.New(wrangle.WithProvider(u), wrangle.WithIntegrationShards(shards),
			wrangle.WithDurableLog(dir), wrangle.WithRetainVersions(8))
		if err != nil {
			b.Fatal(err)
		}
		return s
	}
	ctx := context.Background()
	seeded := b.TempDir()
	s := open(seeded)
	if _, err := s.Run(ctx); err != nil {
		b.Fatal(err)
	}
	ids := s.SelectedSources()
	for i := 0; i < refreshes; i++ {
		world.Evolve(churn)
		if _, err := s.Refresh(ctx, ids[i%len(ids)]); err != nil {
			b.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		b.Fatal(err)
	}
	stages := []string{"restore", "resolve", "trust.prepare", "trust.claims"}
	sums := make([]time.Duration, len(stages))
	var first time.Duration
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		dir := filepath.Join(b.TempDir(), "log")
		copyLog(b, seeded, dir)
		b.StartTimer()
		s := open(dir)
		if _, err := s.View(); err != nil || !s.Restored() {
			b.Fatalf("not restored from the log (%v)", err)
		}
		world.Evolve(churn)
		start := time.Now()
		stats, err := s.Refresh(ctx, ids[i%len(ids)])
		first += time.Since(start)
		if err != nil {
			b.Fatal(err)
		}
		for k, st := range stages {
			sums[k] += stats.Stages[st]
		}
		if err := s.Close(); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(first.Seconds()*1e3/float64(b.N), "first_react_ms/op")
	for k, st := range stages {
		b.ReportMetric(sums[k].Seconds()*1e3/float64(b.N), st+"_ms/op")
	}
}

// copyLog copies the regular files of the log directory src into a new
// directory dst.
func copyLog(b *testing.B, src, dst string) {
	b.Helper()
	if err := os.MkdirAll(dst, 0o755); err != nil {
		b.Fatal(err)
	}
	entries, err := os.ReadDir(src)
	if err != nil {
		b.Fatal(err)
	}
	for _, ent := range entries {
		if !ent.Type().IsRegular() {
			continue
		}
		in, err := os.Open(filepath.Join(src, ent.Name()))
		if err != nil {
			b.Fatal(err)
		}
		out, err := os.Create(filepath.Join(dst, ent.Name()))
		if err == nil {
			_, err = io.Copy(out, in)
			if cerr := out.Close(); err == nil {
				err = cerr
			}
		}
		in.Close()
		if err != nil {
			b.Fatal(err)
		}
	}
}
