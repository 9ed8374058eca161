package wrangle_test

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"repro/wrangle"
)

func mustRun(t *testing.T, opts ...wrangle.Option) *wrangle.Session {
	t.Helper()
	s, err := wrangle.New(opts...)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	return s
}

func TestViewBeforeRunErrors(t *testing.T) {
	s, err := wrangle.New(wrangle.WithSeed(2), wrangle.WithSyntheticSources(4))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.View(); err == nil {
		t.Fatal("View before Run should error")
	}
	if s.Wrangled() != nil {
		t.Error("Wrangled before Run should be nil")
	}
}

func TestViewVersionLifecycle(t *testing.T) {
	s := mustRun(t,
		wrangle.WithSeed(4),
		wrangle.WithSyntheticSources(6),
		wrangle.WithRetainVersions(8),
	)
	v1, err := s.View()
	if err != nil {
		t.Fatal(err)
	}
	if v1.Version() != 1 || v1.Origin() != wrangle.OriginRun {
		t.Fatalf("first view = v%d origin %q, want v1 run", v1.Version(), v1.Origin())
	}
	if v1.Step() == 0 {
		t.Error("version not stamped with a provenance step")
	}
	if v1.Table().Len() == 0 || v1.Report() == nil || len(v1.Report().Lines) == 0 {
		t.Fatal("published table/report empty")
	}
	if got, want := v1.Stats().RowsWrangled, v1.Table().Len(); got != want {
		t.Errorf("stats say %d rows, table has %d", got, want)
	}
	// Engine instrumentation: the run's wall clock attributes to stages.
	stages := v1.Stats().Stages
	for _, stage := range []string{"sources", "select", "integrate"} {
		if _, ok := stages[stage]; !ok {
			t.Errorf("Stats().Stages missing %q (got %v)", stage, stages)
		}
	}

	// A feedback reaction commits version 2 with origin feedback.
	rep := s.Report("prices", "price")
	items := make([]wrangle.Feedback, 5)
	for i := range items {
		items[i] = wrangle.Feedback{
			Kind: wrangle.ValueIncorrect, SourceID: s.SelectedSources()[0],
			Entity: rep.Lines[0].Entity, Attribute: "price", Cost: 0.5,
		}
	}
	if _, err := s.ApplyFeedback(context.Background(), items...); err != nil {
		t.Fatal(err)
	}
	v2 := v1.Latest()
	if v2.Version() != 2 || v2.Origin() != wrangle.OriginFeedback {
		t.Fatalf("after feedback: v%d origin %q, want v2 feedback", v2.Version(), v2.Origin())
	}
	if !v2.React().Refused {
		t.Error("feedback version should carry its reaction stats")
	}

	// A refresh commits version 3 with origin refresh, and its reaction
	// stages are stamped on.
	if _, err := s.Refresh(context.Background(), s.SelectedSources()[0]); err != nil {
		t.Fatal(err)
	}
	v3, err := s.View()
	if err != nil {
		t.Fatal(err)
	}
	if v3.Version() != 3 || v3.Origin() != wrangle.OriginRefresh {
		t.Fatalf("after refresh: v%d origin %q, want v3 refresh", v3.Version(), v3.Origin())
	}
	if _, ok := v3.React().Stages["reextract"]; !ok {
		t.Errorf("refresh reaction stages = %v, want reextract", v3.React().Stages)
	}

	// The pinned v1 still reads its own commit; At time-travels within the
	// retention window.
	if v1.Version() != 1 {
		t.Error("pinned view moved")
	}
	back, err := v3.At(1)
	if err != nil {
		t.Fatal(err)
	}
	if back.Version() != 1 || back.Table().Len() != v1.Table().Len() {
		t.Error("At(1) did not return the first committed version")
	}
	if got := v3.Versions(); len(got) != 3 || got[0] != 1 || got[2] != 3 {
		t.Errorf("Versions = %v, want [1 2 3]", got)
	}
}

func TestRetentionPrunesOldVersions(t *testing.T) {
	s := mustRun(t,
		wrangle.WithSeed(6),
		wrangle.WithSyntheticSources(4),
		wrangle.WithRetainVersions(2),
	)
	for i := 0; i < 3; i++ {
		if _, err := s.Refresh(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	v, err := s.View()
	if err != nil {
		t.Fatal(err)
	}
	if v.Version() != 4 {
		t.Fatalf("version = %d, want 4 (run + 3 refreshes)", v.Version())
	}
	if got := v.Versions(); len(got) != 2 || got[0] != 3 {
		t.Errorf("Versions = %v, want [3 4]", got)
	}
	if _, err := v.At(1); err == nil {
		t.Error("At(1) should report the version pruned")
	}
}

func TestRetainVersionsOptionValidation(t *testing.T) {
	if _, err := wrangle.New(wrangle.WithRetainVersions(0)); err == nil {
		t.Error("WithRetainVersions(0) should be rejected")
	}
	if _, err := wrangle.New(wrangle.WithRetainVersions(-2)); err == nil {
		t.Error("WithRetainVersions(-2) should be rejected")
	}
}

// TestWrangledImmutableAcrossReactions pins the aliasing fix: the table a
// caller got before a reaction must not change under them when the
// reaction recomputes — reads go through copy-on-write versions, not the
// live working data.
func TestWrangledImmutableAcrossReactions(t *testing.T) {
	s := mustRun(t, wrangle.WithSeed(5), wrangle.WithSyntheticSources(6))
	before := s.Wrangled()
	frozen := before.String()
	trustBefore := s.Trust()

	rep := s.Report("prices", "price")
	suspect := s.SelectedSources()[0]
	var items []wrangle.Feedback
	for i := 0; i < 5; i++ {
		items = append(items, wrangle.Feedback{
			Kind: wrangle.ValueIncorrect, SourceID: suspect,
			Entity: rep.Lines[0].Entity, Attribute: "price", Cost: 0.5,
		})
	}
	if _, err := s.ApplyFeedback(context.Background(), items...); err != nil {
		t.Fatal(err)
	}
	if before.String() != frozen {
		t.Error("table handed out before the reaction was mutated by it")
	}
	if s.Wrangled() == before {
		t.Error("reaction should publish a fresh table, not rewrite the old one")
	}
	// The old trust copy is equally frozen (the reaction lowered the
	// suspect's trust in the *new* version only).
	if tr, ok := s.Trust()[suspect]; !ok || tr >= 0.5 {
		t.Errorf("new trust[%s] = %.2f, want < 0.5", suspect, tr)
	}
	if tr := trustBefore[suspect]; tr < 0.5 && tr != 0 {
		t.Errorf("old trust copy changed to %.2f", tr)
	}
}

// TestConcurrentViewReaders is the serving-layer acceptance test: N
// goroutines continuously read pinned views while feedback and refresh
// reactions churn the session. Under -race this proves the read path is
// data-race free; the assertions prove every observed version is
// internally consistent (table, stats, report and source snapshot all
// from the same commit) and that versions and provenance steps never run
// backwards. Readers never touch the session lock, so they keep
// completing reads while reactions are in flight. The subtests run the
// default session (one shard) and a four-shard one; both publish pages
// that alias record storage across versions — the race detector proving
// no reaction ever writes through a shared page.
func TestConcurrentViewReaders(t *testing.T) {
	t.Run("sequential", func(t *testing.T) { runConcurrentViewReaders(t) })
	t.Run("sharded", func(t *testing.T) {
		runConcurrentViewReaders(t, wrangle.WithIntegrationShards(4))
	})
}

func runConcurrentViewReaders(t *testing.T, extra ...wrangle.Option) {
	s := mustRun(t, append([]wrangle.Option{
		wrangle.WithSeed(7),
		wrangle.WithSyntheticSources(6),
		wrangle.WithParallelism(2),
		wrangle.WithRetainVersions(3),
	}, extra...)...)
	first, err := s.View()
	if err != nil {
		t.Fatal(err)
	}

	const reactions = 12
	var (
		writerDone = make(chan struct{})
		reads      atomic.Int64
	)
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			lastVersion, lastStep := uint64(0), uint64(0)
			for {
				select {
				case <-writerDone:
					return
				default:
				}
				v, err := s.View()
				if err != nil {
					t.Errorf("View: %v", err)
					return
				}
				if v.Version() < lastVersion {
					t.Errorf("version ran backwards: %d after %d", v.Version(), lastVersion)
					return
				}
				if v.Step() < lastStep {
					t.Errorf("provenance step ran backwards: %d after %d", v.Step(), lastStep)
					return
				}
				lastVersion, lastStep = v.Version(), v.Step()

				// Internal consistency of the pinned version: the stats,
				// table, report and source snapshot must all describe the
				// same commit.
				tab, stats := v.Table(), v.Stats()
				if tab.Len() != stats.RowsWrangled {
					t.Errorf("v%d torn: table %d rows, stats say %d", v.Version(), tab.Len(), stats.RowsWrangled)
					return
				}
				srcs := v.Sources()
				for _, id := range v.Selected() {
					if _, ok := srcs[id]; !ok {
						t.Errorf("v%d torn: selected %s missing from sources", v.Version(), id)
						return
					}
				}
				for _, line := range v.Report().Lines {
					for _, sup := range line.Supporters {
						if _, ok := srcs[sup]; !ok {
							t.Errorf("v%d torn: supporter %s missing from sources", v.Version(), sup)
							return
						}
					}
				}
				reads.Add(1)
				// Yield so the writer makes progress even on one core;
				// readers still interleave with every reaction.
				runtime.Gosched()
			}
		}()
	}

	// The writer: alternate feedback reactions and source refreshes.
	var lines []wrangle.ReportLine
	for _, l := range first.Report().Lines {
		if len(l.Supporters) > 0 {
			lines = append(lines, l)
		}
	}
	if len(lines) == 0 {
		t.Fatal("no report lines with supporters")
	}
	for i := 0; i < reactions; i++ {
		if i%2 == 0 {
			line := lines[i%len(lines)]
			_, err = s.ApplyFeedback(context.Background(), wrangle.Feedback{
				Kind: wrangle.ValueIncorrect, SourceID: line.Supporters[0],
				Entity: line.Entity, Attribute: line.Attribute, Cost: 0.5,
			})
		} else {
			// A two-source batch keeps each reaction long enough to overlap
			// many reads without making the -race run crawl.
			ids := s.SelectedSources()
			if len(ids) > 2 {
				ids = ids[:2]
			}
			_, err = s.Refresh(context.Background(), ids...)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	close(writerDone)
	wg.Wait()

	final, err := s.View()
	if err != nil {
		t.Fatal(err)
	}
	if final.Version() != uint64(1+reactions) {
		t.Errorf("final version = %d, want %d", final.Version(), 1+reactions)
	}
	if reads.Load() == 0 {
		t.Error("readers made no progress while reactions ran")
	}
	// The pinned first view still reads version 1's data even though that
	// version may have been pruned from the retention window.
	if first.Version() != 1 || first.Table().Len() == 0 {
		t.Error("pinned first view no longer readable")
	}
}
