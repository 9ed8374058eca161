package serve

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"
)

func publishN(s *Store[payload], from, to int) {
	for i := from; i <= to; i++ {
		s.Publish(payload{n: i}, uint64(i), OriginRefresh, time.Unix(int64(i), 0),
			ChangeSet{ChangedShards: []int{i % 4}, ChangedPages: 1, SharedPages: 3})
	}
}

// recv reads one change with a timeout so a delivery bug fails the test
// instead of hanging it.
func recv(t *testing.T, ch <-chan Change[payload]) (Change[payload], bool) {
	t.Helper()
	select {
	case c, ok := <-ch:
		return c, ok
	case <-time.After(5 * time.Second):
		t.Fatal("timed out waiting for change")
		return Change[payload]{}, false
	}
}

func TestWatchDeliversInOrder(t *testing.T) {
	s := NewStore[payload](8)
	ch, cancel, err := s.Watch(context.Background(), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer cancel()
	publishN(s, 1, 3)
	for want := 1; want <= 3; want++ {
		c, ok := recv(t, ch)
		if !ok {
			t.Fatalf("channel closed before seq %d", want)
		}
		if c.Evicted {
			t.Fatalf("unexpected eviction at seq %d", want)
		}
		if got := c.Seq(); got != uint64(want) {
			t.Fatalf("seq = %d, want %d", got, want)
		}
		if c.Version.Data().n != want {
			t.Fatalf("payload %d for seq %d (torn change)", c.Version.Data().n, want)
		}
		if len(c.Changes.ChangedShards) != 1 || c.Changes.ChangedShards[0] != want%4 {
			t.Fatalf("changes = %+v, want shard %d", c.Changes, want%4)
		}
	}
}

func TestWatchCatchUpReplay(t *testing.T) {
	s := NewStore[payload](8)
	publishN(s, 1, 3)
	// fromSeq = 1: the subscriber saw version 1, catch-up replays 2 and 3,
	// then the live publish of 4 follows with no gap.
	ch, cancel, err := s.Watch(context.Background(), 1)
	if err != nil {
		t.Fatal(err)
	}
	defer cancel()
	publishN(s, 4, 4)
	for want := 2; want <= 4; want++ {
		c, _ := recv(t, ch)
		if got := c.Seq(); got != uint64(want) {
			t.Fatalf("seq = %d, want %d", got, want)
		}
		// Replayed changes carry the same ChangeSet a live watcher saw.
		if c.Changes.ChangedPages != 1 || c.Changes.SharedPages != 3 {
			t.Fatalf("replayed changes = %+v", c.Changes)
		}
	}
}

// TestWatchCompactedBoundary pins the retention boundary exactly: with
// versions 4..5 retained (retain 2 after 5 publishes), the oldest
// serveable fromSeq is 3 (its successor 4 is retained) and fromSeq 2 is
// compacted (version 3 is gone). At must agree: At(3) is the same typed
// ErrCompacted, At(4) serves.
func TestWatchCompactedBoundary(t *testing.T) {
	s := NewStore[payload](2)
	publishN(s, 1, 5)

	if _, err := s.At(3); !errors.Is(err, ErrCompacted) {
		t.Fatalf("At(3) = %v, want ErrCompacted", err)
	}
	if _, err := s.At(4); err != nil {
		t.Fatalf("At(4) = %v, want retained", err)
	}
	if _, err := s.At(99); errors.Is(err, ErrCompacted) || err == nil {
		t.Fatalf("At(99) = %v, want a plain never-published error", err)
	}

	if _, _, err := s.Watch(context.Background(), 2); !errors.Is(err, ErrCompacted) {
		t.Fatalf("Watch(from=2) = %v, want ErrCompacted", err)
	}
	ch, cancel, err := s.Watch(context.Background(), 3)
	if err != nil {
		t.Fatalf("Watch(from=3) = %v, want serveable (oldest retained is 4)", err)
	}
	defer cancel()
	for want := 4; want <= 5; want++ {
		c, _ := recv(t, ch)
		if got := c.Seq(); got != uint64(want) {
			t.Fatalf("seq = %d, want %d", got, want)
		}
	}
	if _, _, err := s.Watch(context.Background(), 9); err == nil || errors.Is(err, ErrCompacted) {
		t.Fatalf("Watch(from=9) = %v, want a plain future-seq error", err)
	}
}

// TestWatchSlowConsumerEviction proves the two slow-consumer guarantees:
// Publish never blocks (every publish below returns with nothing
// draining the channel), and eviction is deterministic — with buffer b,
// a non-draining subscriber holds exactly b changes and the (b+1)-th
// publish evicts it, every run.
func TestWatchSlowConsumerEviction(t *testing.T) {
	const buf = 2
	s := NewStore[payload](8)
	s.SetWatchBuffer(buf)
	ch, cancel, err := s.Watch(context.Background(), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer cancel()

	done := make(chan struct{})
	go func() {
		// Nothing reads ch while these run: if Publish could block on a
		// full subscriber buffer this goroutine would hang and the test
		// would time out.
		publishN(s, 1, buf+5)
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Publish blocked on a slow consumer")
	}

	for want := 1; want <= buf; want++ {
		c, _ := recv(t, ch)
		if c.Evicted || c.Seq() != uint64(want) {
			t.Fatalf("change %d = seq %d evicted=%v", want, c.Seq(), c.Evicted)
		}
	}
	// The eviction notice names the first version that did not fit.
	c, ok := recv(t, ch)
	if !ok || !c.Evicted {
		t.Fatalf("want eviction notice, got ok=%v evicted=%v", ok, c.Evicted)
	}
	if got := c.Seq(); got != uint64(buf+1) {
		t.Fatalf("eviction at seq %d, want %d (deterministic)", got, buf+1)
	}
	if _, ok := recv(t, ch); ok {
		t.Fatal("channel should be closed after the eviction notice")
	}
	if got := s.Watchers(); got != 0 {
		t.Fatalf("Watchers = %d after eviction, want 0", got)
	}
}

func TestWatchCancel(t *testing.T) {
	s := NewStore[payload](8)
	ch, cancel, err := s.Watch(context.Background(), 0)
	if err != nil {
		t.Fatal(err)
	}
	publishN(s, 1, 1)
	cancel()
	cancel() // idempotent
	publishN(s, 2, 2)
	// The pending change (published before cancel) may still be read;
	// the channel then closes with no eviction notice.
	sawClose := false
	for i := 0; i < 3; i++ {
		c, ok := recv(t, ch)
		if !ok {
			sawClose = true
			break
		}
		if c.Evicted {
			t.Fatal("cancel must not deliver an eviction notice")
		}
		if c.Seq() != 1 {
			t.Fatalf("post-cancel delivery of seq %d", c.Seq())
		}
	}
	if !sawClose {
		t.Fatal("channel not closed after cancel")
	}
	if got := s.Watchers(); got != 0 {
		t.Fatalf("Watchers = %d after cancel, want 0", got)
	}
}

func TestWatchContextCancel(t *testing.T) {
	s := NewStore[payload](8)
	ctx, stop := context.WithCancel(context.Background())
	ch, _, err := s.Watch(ctx, 0)
	if err != nil {
		t.Fatal(err)
	}
	stop()
	deadline := time.After(5 * time.Second)
	for {
		select {
		case _, ok := <-ch:
			if !ok {
				return
			}
		case <-deadline:
			t.Fatal("channel not closed after context cancellation")
		}
	}
}

// TestWatchCancelRacesContextCancel pins CancelFunc's idempotence against
// itself: when a subscription's context is cancelled while its owner also
// calls cancel (a session closing under a live watcher), the ctx goroutine
// and the caller both run unwatch. Its stop channel used to be closed
// outside the lock, so the two could both find it open — "close of closed
// channel", about once in fifty benchmark runs of restart.10k.
func TestWatchCancelRacesContextCancel(t *testing.T) {
	s := NewStore[payload](8)
	for i := 0; i < 2000; i++ {
		ctx, stop := context.WithCancel(context.Background())
		_, cancel, err := s.Watch(ctx, 0)
		if err != nil {
			t.Fatal(err)
		}
		done := make(chan struct{})
		go func() {
			stop()
			close(done)
		}()
		cancel()
		<-done
	}
	// Every ctx goroutine was released; none is left to close anything.
	deadline := time.Now().Add(5 * time.Second)
	for s.Watchers() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("%d watchers left", s.Watchers())
		}
		time.Sleep(time.Millisecond)
	}
}

func TestWatchBufferDefaultsAndFloor(t *testing.T) {
	s := NewStore[payload](4)
	// A subscription with nothing to catch up on gets the set buffer,
	// plus the slot its eviction notice is always delivered through.
	for _, c := range []struct{ set, want int }{{-1, DefaultWatchBuffer}, {3, 3}, {0, DefaultWatchBuffer}} {
		if c.set >= 0 {
			s.SetWatchBuffer(c.set)
		}
		ch, cancel, err := s.Watch(context.Background(), 0)
		if err != nil {
			t.Fatal(err)
		}
		if got := cap(ch) - 1; got != c.want {
			t.Fatalf("after SetWatchBuffer(%d): buffer %d, want %d", c.set, got, c.want)
		}
		cancel()
	}

	// A catch-up longer than the buffer must not self-evict: the buffer
	// stretches to hold the replay.
	s.SetWatchBuffer(1)
	publishN(s, 1, 4)
	ch, cancel, err := s.Watch(context.Background(), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer cancel()
	for want := 1; want <= 4; want++ {
		c, _ := recv(t, ch)
		if c.Evicted || c.Seq() != uint64(want) {
			t.Fatalf("catch-up change = seq %d evicted=%v, want %d", c.Seq(), c.Evicted, want)
		}
	}
}

// TestWatchConcurrentWatchers races 16 watchers (subscribing at random
// points mid-stream) against a publisher: every watcher must observe a
// gapless, strictly monotonic seq stream from its start until close or
// eviction, with payloads matching their seq (no torn changes).
func TestWatchConcurrentWatchers(t *testing.T) {
	const versions = 300
	s := NewStore[payload](versions) // full retention: any fromSeq is serveable
	s.SetWatchBuffer(versions + 1)   // focus on ordering, not eviction
	// Every start point exists before the watchers go: a watcher that
	// subscribed from a seq not yet published would be refused, not raced.
	const head = 6
	publishN(s, 1, head)
	var wg sync.WaitGroup
	start := make(chan struct{})
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			from := uint64(i * 3 % 7)
			ch, cancel, err := s.Watch(context.Background(), from)
			if err != nil {
				t.Errorf("watcher %d: %v", i, err)
				return
			}
			defer cancel()
			next := from + 1
			for c := range ch {
				if c.Evicted {
					return
				}
				if c.Seq() != next {
					t.Errorf("watcher %d: seq %d, want %d (gap or duplicate)", i, c.Seq(), next)
					return
				}
				if c.Version.Data().n != int(c.Seq()) {
					t.Errorf("watcher %d: torn change %d/%d", i, c.Version.Data().n, c.Seq())
					return
				}
				next++
				if next > versions {
					return
				}
			}
		}(i)
	}
	close(start)
	publishN(s, head+1, versions)
	wg.Wait()
}

// FuzzWatchResume drives random interleavings of publish, subscribe (at
// any resume point), drain and cancel, asserting the change-feed
// invariants: no subscriber ever sees a duplicate, out-of-order, or torn
// Change, catch-up is gapless from the resume point, and a full buffer
// ends the stream with exactly one eviction notice.
func FuzzWatchResume(f *testing.F) {
	f.Add(int64(1), []byte{0, 1, 0, 2, 3, 0, 1})
	f.Add(int64(7), []byte{1, 0, 0, 0, 0, 2, 1, 0, 3})
	f.Add(int64(42), []byte{0, 0, 1, 1, 2, 2, 3, 3, 0, 1, 2})
	f.Fuzz(func(t *testing.T, seed int64, script []byte) {
		rng := rand.New(rand.NewSource(seed))
		s := NewStore[payload](4)
		s.SetWatchBuffer(1 + rng.Intn(4))

		type sub struct {
			ch     <-chan Change[payload]
			cancel CancelFunc
			next   uint64 // next expected seq
			done   bool
		}
		var subs []*sub
		seq := 0

		// drain consumes everything currently queued on one subscriber,
		// checking the stream invariants.
		drain := func(w *sub) {
			for !w.done {
				select {
				case c, ok := <-w.ch:
					if !ok {
						w.done = true
						return
					}
					if c.Evicted {
						// Exactly one notice, then close.
						if _, open := <-w.ch; open {
							t.Fatal("delivery after eviction notice")
						}
						w.done = true
						return
					}
					if c.Seq() != w.next {
						t.Fatalf("subscriber expected seq %d, got %d", w.next, c.Seq())
					}
					if c.Version.Data().n != int(c.Seq()) {
						t.Fatalf("torn change: payload %d for seq %d", c.Version.Data().n, c.Seq())
					}
					w.next++
				default:
					return
				}
			}
		}

		for _, op := range script {
			switch op % 4 {
			case 0: // publish
				seq++
				s.Publish(payload{n: seq}, uint64(seq), OriginRefresh, time.Unix(int64(seq), 0),
					ChangeSet{ChangedShards: []int{seq % 3}})
			case 1: // subscribe at a random resume point
				from := uint64(rng.Intn(seq + 1))
				ch, cancel, err := s.Watch(context.Background(), from)
				if err != nil {
					if !errors.Is(err, ErrCompacted) {
						t.Fatalf("Watch(from=%d) with seq=%d: %v", from, seq, err)
					}
					// Legitimately compacted: resume from the oldest
					// serveable point instead, like a real client would.
					vs := s.Versions()
					from = vs[0] - 1
					if ch, cancel, err = s.Watch(context.Background(), from); err != nil {
						t.Fatalf("Watch(oldest-1=%d): %v", from, err)
					}
				}
				subs = append(subs, &sub{ch: ch, cancel: cancel, next: from + 1})
			case 2: // drain one subscriber
				if len(subs) > 0 {
					drain(subs[rng.Intn(len(subs))])
				}
			case 3: // cancel one subscriber
				if len(subs) > 0 {
					w := subs[rng.Intn(len(subs))]
					w.cancel()
					// Consume any in-flight deliveries; the close must
					// arrive and the prefix must stay well-ordered.
					for !w.done {
						c, ok := recvFuzz(t, w.ch)
						if !ok {
							w.done = true
							break
						}
						if c.Evicted {
							w.done = true
							break
						}
						if c.Seq() != w.next {
							t.Fatalf("post-cancel drain expected %d, got %d", w.next, c.Seq())
						}
						w.next++
					}
				}
			}
		}
		for _, w := range subs {
			w.cancel()
		}
	})
}

func recvFuzz(t *testing.T, ch <-chan Change[payload]) (Change[payload], bool) {
	t.Helper()
	select {
	case c, ok := <-ch:
		return c, ok
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled subscriber's channel never closed")
		return Change[payload]{}, false
	}
}

func TestChangeSetNormalizedOnPublish(t *testing.T) {
	s := NewStore[payload](4)
	v := s.Publish(payload{n: 1}, 1, OriginRun, time.Unix(1, 0), ChangeSet{
		ChangedShards:  []int{3, 1, 2},
		ChangedRecords: []string{"b", "a"},
		RemovedRecords: []string{"z", "y"},
	})
	cs := v.Changes()
	if fmt.Sprint(cs.ChangedShards) != "[1 2 3]" ||
		fmt.Sprint(cs.ChangedRecords) != "[a b]" ||
		fmt.Sprint(cs.RemovedRecords) != "[y z]" {
		t.Fatalf("change set not normalized: %+v", cs)
	}
}
