package serve

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestRestoreResumesExactly pins the rehydration contract: a fresh store
// restored from saved versions serves the exact sequence numbers, stamps
// and data the saved store retained, and the next Publish continues the
// sequence instead of restarting at 1.
func TestRestoreResumesExactly(t *testing.T) {
	s := NewStore[payload](3)
	saved := []RestoredVersion[payload]{
		{Seq: 7, Step: 70, Origin: OriginRun, At: time.Unix(700, 1), Data: payload{n: 7, label: "g"}, Changes: ChangeSet{Full: true}},
		{Seq: 8, Step: 81, Origin: OriginFeedback, At: time.Unix(800, 2), Data: payload{n: 8, label: "h"}, Changes: ChangeSet{ChangedShards: []int{1}}},
		{Seq: 9, Step: 95, Origin: OriginRefresh, At: time.Unix(900, 3), Data: payload{n: 9, label: "i"}},
	}
	if err := s.Restore(saved); err != nil {
		t.Fatalf("restore: %v", err)
	}
	if got := s.Versions(); len(got) != 3 || got[0] != 7 || got[2] != 9 {
		t.Fatalf("Versions = %v, want [7 8 9]", got)
	}
	if got := s.Latest(); got.Seq() != 9 || got.Data().label != "i" {
		t.Fatalf("Latest = seq %d %+v", got.Seq(), got.Data())
	}
	v8, err := s.At(8)
	if err != nil {
		t.Fatalf("At(8): %v", err)
	}
	if v8.Step() != 81 || v8.Origin() != OriginFeedback || !v8.At().Equal(time.Unix(800, 2)) {
		t.Fatalf("At(8) stamps = step %d origin %q at %v", v8.Step(), v8.Origin(), v8.At())
	}
	if ch := v8.Changes(); ch.Full || len(ch.ChangedShards) != 1 {
		t.Fatalf("At(8) changes = %+v", ch)
	}
	// Versions below the restored window answer exactly like pruned ones.
	if _, err := s.At(6); !errors.Is(err, ErrCompacted) {
		t.Fatalf("At(6) = %v, want ErrCompacted", err)
	}
	// The sequence counter resumed: the next publish is seq 10.
	v := s.Publish(payload{n: 10}, 100, OriginRefresh, time.Unix(1000, 0), ChangeSet{})
	if v.Seq() != 10 {
		t.Fatalf("post-restore Publish seq = %d, want 10", v.Seq())
	}
}

// TestRestoreTrimsToRetention: a log may hold more versions than the
// window (between compactions); Restore keeps only the newest
// retain-window's worth.
func TestRestoreTrimsToRetention(t *testing.T) {
	s := NewStore[payload](2)
	var saved []RestoredVersion[payload]
	for i := 1; i <= 5; i++ {
		saved = append(saved, RestoredVersion[payload]{Seq: uint64(i), Data: payload{n: i}})
	}
	if err := s.Restore(saved); err != nil {
		t.Fatalf("restore: %v", err)
	}
	if got := s.Versions(); len(got) != 2 || got[0] != 4 || got[1] != 5 {
		t.Fatalf("Versions = %v, want [4 5]", got)
	}
	if _, err := s.At(3); !errors.Is(err, ErrCompacted) {
		t.Fatalf("At(3) = %v, want ErrCompacted", err)
	}
}

// TestRestoreRefusesMisuse pins the construction-time guard rails: used
// stores and out-of-order sequences are refused, empty restores are
// no-ops.
func TestRestoreRefusesMisuse(t *testing.T) {
	used := NewStore[payload](2)
	used.Publish(payload{n: 1}, 1, OriginRun, time.Unix(1, 0), ChangeSet{})
	if err := used.Restore([]RestoredVersion[payload]{{Seq: 5}}); err == nil {
		t.Fatal("restore into a published store accepted")
	}

	s := NewStore[payload](2)
	if err := s.Restore([]RestoredVersion[payload]{{Seq: 2}, {Seq: 2}}); err == nil {
		t.Fatal("duplicate sequence accepted")
	}
	if err := s.Restore([]RestoredVersion[payload]{{Seq: 0}}); err == nil {
		t.Fatal("zero sequence accepted")
	}
	// The failed restores above must not have marked the store used.
	if err := s.Restore(nil); err != nil {
		t.Fatalf("empty restore: %v", err)
	}
	if err := s.Restore([]RestoredVersion[payload]{{Seq: 3, Data: payload{n: 3}}}); err != nil {
		t.Fatalf("restore after no-op: %v", err)
	}
	if got := s.Latest(); got == nil || got.Seq() != 3 {
		t.Fatalf("Latest after restore = %v", got)
	}
}

// TestRestoreWatchCatchUp pins the reason Restore keeps original seqs: a
// watcher subscribing from a version inside the restored window replays
// the retained catch-up versions exactly as if the store had never been
// saved.
func TestRestoreWatchCatchUp(t *testing.T) {
	s := NewStore[payload](3)
	err := s.Restore([]RestoredVersion[payload]{
		{Seq: 4, Data: payload{n: 4}},
		{Seq: 5, Data: payload{n: 5}},
		{Seq: 6, Data: payload{n: 6}},
	})
	if err != nil {
		t.Fatalf("restore: %v", err)
	}
	ctx := context.Background()
	ch, cancel, err := s.Watch(ctx, 4)
	if err != nil {
		t.Fatalf("watch: %v", err)
	}
	defer cancel()
	for _, want := range []uint64{5, 6} {
		select {
		case c := <-ch:
			if c.Version.Seq() != want {
				t.Fatalf("catch-up delivered seq %d, want %d", c.Version.Seq(), want)
			}
		default:
			t.Fatalf("catch-up for seq %d not buffered", want)
		}
	}
	// Below the window the watch refuses with the compaction error, same
	// as a live store.
	if _, _, err := s.Watch(ctx, 2); !errors.Is(err, ErrCompacted) {
		t.Fatalf("Watch(2) = %v, want ErrCompacted", err)
	}
}

// lazyVersions restores seqs 1..3 into a fresh store: 1 and 2 without
// their payload, loaded by load(seq); 3, the newest, with it.
func lazyVersions(t *testing.T, load func(seq uint64) (payload, error)) *Store[payload] {
	t.Helper()
	s := NewStore[payload](3)
	var vs []RestoredVersion[payload]
	for seq := uint64(1); seq <= 3; seq++ {
		rv := RestoredVersion[payload]{Seq: seq, Step: 10 * seq, Origin: OriginRefresh, At: time.Unix(int64(seq), 0)}
		if seq < 3 {
			rv.Load = func() (payload, error) { return load(seq) }
		} else {
			rv.Data = payload{n: 3}
		}
		vs = append(vs, rv)
	}
	if err := s.Restore(vs); err != nil {
		t.Fatalf("restore: %v", err)
	}
	return s
}

// TestLazyVersionLoadsOnce: a restored version without its payload loads
// it exactly once, however many goroutines reach it at the same time
// through At, Watch catch-up and Data — and each of them sees the loaded
// payload. Run under -race.
func TestLazyVersionLoadsOnce(t *testing.T) {
	var loads [3]atomic.Int32
	s := lazyVersions(t, func(seq uint64) (payload, error) {
		loads[seq].Add(1)
		time.Sleep(time.Millisecond) // widen the window for a second loader
		return payload{n: int(seq), label: "loaded"}, nil
	})
	var wg sync.WaitGroup
	errs := make(chan error, 16*3)
	check := func(v *Version[payload]) {
		if d := v.Data(); d.n != int(v.Seq()) || (v.Seq() < 3 && d.label != "loaded") {
			errs <- fmt.Errorf("version %d served %+v", v.Seq(), d)
		}
	}
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			switch g % 3 {
			case 0:
				for seq := uint64(1); seq <= 3; seq++ {
					v, err := s.At(seq)
					if err != nil {
						errs <- err
						return
					}
					check(v)
				}
			case 1:
				ch, cancel, err := s.Watch(context.Background(), 0)
				if err != nil {
					errs <- err
					return
				}
				defer cancel()
				for i := 0; i < 3; i++ {
					check((<-ch).Version)
				}
			default:
				// Data on a version handed out before its payload loaded
				// (a catch-up pinned by another goroutine's subscription).
				s.mu.RLock()
				v := s.history[g%2]
				s.mu.RUnlock()
				check(v)
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	for seq := 1; seq <= 2; seq++ {
		if n := loads[seq].Load(); n != 1 {
			t.Errorf("version %d loaded %d times, want once", seq, n)
		}
	}
}

// TestLazyVersionLoadError: a failed load is the error of every At that
// reaches the version and of every Watch whose catch-up would replay it —
// on each call, never turned into a loaded payload — while the versions
// above it and Latest keep serving.
func TestLazyVersionLoadError(t *testing.T) {
	broken := errors.New("undecodable")
	var loads atomic.Int32
	s := lazyVersions(t, func(seq uint64) (payload, error) {
		if seq == 2 {
			loads.Add(1)
			return payload{}, broken
		}
		return payload{n: int(seq)}, nil
	})
	for i := 0; i < 2; i++ {
		if _, err := s.At(2); !errors.Is(err, broken) {
			t.Fatalf("At(2) call %d = %v, want the load error", i, err)
		}
	}
	for _, from := range []uint64{0, 1} {
		if _, _, err := s.Watch(context.Background(), from); !errors.Is(err, broken) {
			t.Fatalf("Watch(%d) = %v, want the load error", from, err)
		}
	}
	if n := loads.Load(); n != 1 {
		t.Errorf("the failing load ran %d times, want once", n)
	}
	if v, err := s.At(1); err != nil || v.Data().n != 1 {
		t.Fatalf("At(1) = %v, %v", v, err)
	}
	ch, cancel, err := s.Watch(context.Background(), 2)
	if err != nil {
		t.Fatalf("Watch(2), above the broken version: %v", err)
	}
	defer cancel()
	if c := <-ch; c.Seq() != 3 {
		t.Fatalf("Watch(2) replayed seq %d, want 3", c.Seq())
	}
	if got := s.Latest().Data(); got.n != 3 {
		t.Fatalf("Latest = %+v", got)
	}
}

// TestRestoreRefusesLazyNewest: the newest restored version must carry
// its payload, because Latest never loads.
func TestRestoreRefusesLazyNewest(t *testing.T) {
	s := NewStore[payload](3)
	load := func() (payload, error) { return payload{n: 2}, nil }
	err := s.Restore([]RestoredVersion[payload]{
		{Seq: 1, Data: payload{n: 1}},
		{Seq: 2, Load: load},
	})
	if err == nil {
		t.Fatal("restore accepted a newest version with a Load and no Data")
	}
	if s.Latest() != nil || len(s.Versions()) != 0 {
		t.Fatal("the refused restore left versions behind")
	}
}
