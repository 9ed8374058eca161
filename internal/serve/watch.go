package serve

// This file is the push side of the serving layer: a change-feed over the
// versioned snapshot store. Readers that poll Latest re-download state
// they mostly already have; a watcher instead subscribes once and is
// handed every committed version as it lands, together with the
// publisher's own summary of what changed (the ChangeSet the delta
// publication path already computes) — so a subscriber's per-version cost
// is O(delta), not O(snapshot).
//
// The design constraints, in order:
//
//  1. Publish never blocks. A publisher is the wrangling loop itself;
//     one stuck subscriber must not stall every other consumer. Every
//     delivery is a non-blocking send into a bounded per-subscriber
//     buffer.
//  2. Streams are gapless and monotonic. Subscription and delivery
//     happen under the store's writer lock, so a subscriber sees every
//     version from its start seq onwards, exactly once, in order — or
//     an explicit eviction notice, never a silent gap.
//  3. Eviction is deterministic. When a subscriber's buffer is full at
//     delivery time it is evicted: one final Change with Evicted set is
//     placed in a reserved buffer slot and the channel is closed. Which
//     publish evicts a non-draining subscriber depends only on the
//     buffer size and the number of publishes, not on scheduling.
//
// Catch-up: Watch(fromSeq) replays the retained versions after fromSeq
// before going live, atomically with registration. A fromSeq whose
// successor has already been pruned reports ErrCompacted — the same
// typed error At returns for a pruned seq — telling the subscriber to
// re-bootstrap from a full snapshot instead.

import (
	"context"
	"errors"
	"fmt"
	"sort"
)

// ErrCompacted reports that a requested version precedes the store's
// retention window: it was published once but has been pruned, so neither
// time-travel (At) nor change-feed catch-up (Watch) can serve it. The
// caller should re-bootstrap from Latest.
var ErrCompacted = errors.New("serve: version compacted out of the retention window")

// DefaultWatchBuffer is the per-subscriber delivery buffer used when the
// caller does not choose: enough to ride out a multi-version catch-up and
// short consumer stalls while keeping per-subscriber memory bounded.
const DefaultWatchBuffer = 16

// ChangeSet is the publisher's summary of what a version changed relative
// to its predecessor — the delta-publication knowledge (which shard pages
// were rebuilt, which were shared by pointer) threaded through Publish so
// subscribers receive O(delta) payloads. The zero ChangeSet means "the
// publisher made no claim"; a publisher with no delta knowledge should set
// Full instead.
type ChangeSet struct {
	// Full marks a version whose entire payload must be treated as
	// changed: the first publication, a sequential (non-delta) pipeline,
	// or any path that cannot bound the delta. When Full is set the
	// per-shard and per-record fields are meaningless and left empty.
	Full bool
	// ChangedShards lists, ascending, the pages that changed a record for
	// this version: a page is one fuse part's output, a contiguous range
	// of entities, numbered from 0 in entity order. Pages not listed kept
	// every record shared by pointer with the predecessor version.
	ChangedShards []int
	// ChangedPages and SharedPages count the pages that did versus did
	// not add, rewrite or drop a record — the delta-publication
	// observability numbers, denominated in pages.
	ChangedPages int
	SharedPages  int
	// ChangedRecords lists the ids of records that are new or carry
	// different values than in the predecessor version, ascending.
	ChangedRecords []string
	// RemovedRecords lists the ids of records present in the predecessor
	// but absent from this version, ascending.
	RemovedRecords []string
}

// Delta reports whether the change set bounds the change (not Full): only
// the listed shards and records moved, everything else is shared.
func (c ChangeSet) Delta() bool { return !c.Full }

// Change is one change-feed event: the committed version plus the
// publisher's change summary. For an eviction notice (Evicted set)
// Version identifies the publication the subscriber could not accept;
// the subscriber's stream ends immediately after.
type Change[T any] struct {
	// Version is the committed version this event announces. It carries
	// the seq/step/origin/at metadata and the immutable payload; for the
	// versions a ChangeSet declares shared, the payload's storage is
	// shared by pointer with the predecessor, so holding many changes
	// costs O(sum of deltas), not O(versions × snapshot).
	Version *Version[T]
	// Changes summarises what this version changed — what the
	// publisher passed to Publish.
	Changes ChangeSet
	// Evicted marks the final event of a subscriber that fell behind:
	// its buffer was full when Version was published. The channel is
	// closed right after; re-subscribe with Watch(lastSeenSeq) to
	// resume (or re-bootstrap if already compacted).
	Evicted bool
}

// Seq returns the announced version's sequence number.
func (c Change[T]) Seq() uint64 { return c.Version.Seq() }

// CancelFunc detaches a watcher. Idempotent and safe to call
// concurrently; after it returns no further deliveries are made and the
// subscription channel is (or will immediately be) closed.
type CancelFunc func()

// watcher is one subscription's server-side state. All fields are guarded
// by the store's writer mutex.
type watcher[T any] struct {
	id uint64
	ch chan Change[T]
	// limit is the number of queued-but-undelivered changes that forces
	// eviction on the next delivery; cap(ch) is limit+1, reserving one
	// slot so the eviction notice itself can always be delivered.
	limit int
	// gone marks a watcher already removed (evicted or cancelled), so
	// the losing side of a cancel/evict race does not close ch twice.
	gone bool
}

// SetWatchBuffer sets the per-subscriber delivery buffer for subsequent
// Watch calls (n < 1 restores DefaultWatchBuffer). Existing subscriptions
// keep the buffer they were created with.
func (s *Store[T]) SetWatchBuffer(n int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if n < 1 {
		n = 0
	}
	s.watchBuf = n
}

// WatchBuffer returns the per-subscriber buffer bound new subscriptions
// get.
func (s *Store[T]) WatchBuffer() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.watchBuf < 1 {
		return DefaultWatchBuffer
	}
	return s.watchBuf
}

// Watch subscribes to the change feed from just after fromSeq: the
// returned channel first replays every retained version with seq >
// fromSeq (catch-up), then delivers each subsequent publication, gapless
// and in order. fromSeq is the last version the subscriber has already
// seen — 0 subscribes from the beginning, Latest().Seq() from "now".
//
// Errors: ErrCompacted if a needed version has already been pruned
// (fromSeq below the retention window — re-bootstrap from Latest), a
// plain error if fromSeq exceeds the latest published seq, or the load
// error of a restored catch-up version whose payload could not be loaded
// (RestoredVersion.Load).
//
// Delivery is push with a bounded per-subscriber buffer (SetWatchBuffer):
// a subscriber whose buffer is full at publish time receives one final
// Change with Evicted set and its channel is closed — Publish never
// blocks on a slow consumer. Cancelling (the CancelFunc, or ctx) closes
// the channel without an eviction notice. The channel is closed in every
// termination path, so consumers may simply range over it.
func (s *Store[T]) Watch(ctx context.Context, fromSeq uint64) (<-chan Change[T], CancelFunc, error) {
	if err := s.materializeAfter(fromSeq); err != nil {
		return nil, nil, err
	}
	s.mu.Lock()
	if latest := s.seq; fromSeq > latest {
		s.mu.Unlock()
		if m := s.met; m != nil {
			m.errNotFound.Inc()
		}
		return nil, nil, fmt.Errorf("serve: watch from %d: version not yet published (latest is %d)", fromSeq, latest)
	}
	var replay []*Version[T]
	for _, v := range s.history {
		if v.seq > fromSeq {
			replay = append(replay, v)
		}
	}
	// The subscriber needs every version in (fromSeq, seq]; retention
	// must still hold all of them. The boundary is exact: with oldest
	// retained seq O, fromSeq = O-1 is serveable and fromSeq = O-2 is
	// not (version O-1 is gone).
	if want := s.seq - fromSeq; uint64(len(replay)) < want {
		s.mu.Unlock()
		if m := s.met; m != nil {
			m.errCompacted.Inc()
		}
		return nil, nil, fmt.Errorf("serve: watch from %d: %d of %d catch-up versions %w", fromSeq, want-uint64(len(replay)), want, ErrCompacted)
	}
	buf := s.watchBuf
	if buf < 1 {
		buf = DefaultWatchBuffer
	}
	// The buffer always admits the whole catch-up: replay is bounded by
	// retention, so this stays O(retain) even for tiny buffers, and a
	// subscriber is never evicted by its own subscription.
	if len(replay) > buf {
		buf = len(replay)
	}
	s.watchSeq++
	w := &watcher[T]{id: s.watchSeq, ch: make(chan Change[T], buf+1), limit: buf}
	for _, v := range replay {
		w.ch <- Change[T]{Version: v, Changes: v.changes}
	}
	s.watchers = append(s.watchers, w)
	if m := s.met; m != nil {
		m.subscribes.Inc()
		m.deliveries.Add(int64(len(replay)))
		m.watchers.Set(float64(len(s.watchers)))
	}
	s.mu.Unlock()

	stop := make(chan struct{})
	cancel := func() { s.unwatch(w, stop) }
	if ctx != nil && ctx.Done() != nil {
		go func() {
			select {
			case <-ctx.Done():
				cancel()
			case <-stop:
			}
		}()
	}
	return w.ch, cancel, nil
}

// materializeAfter loads the payload of every restored version a catch-up
// from fromSeq would replay, outside the writer lock (a load may decode,
// and publishers must not wait on it). Only Restore makes such versions,
// before anything publishes, so each one Watch's locked replay can find
// is already in this snapshot. A failed load fails the subscription.
func (s *Store[T]) materializeAfter(fromSeq uint64) error {
	s.mu.RLock()
	var lazy []*Version[T]
	for _, v := range s.history {
		if v.seq > fromSeq && v.load != nil {
			lazy = append(lazy, v)
		}
	}
	s.mu.RUnlock()
	for _, v := range lazy {
		if err := v.materialize(); err != nil {
			return fmt.Errorf("serve: watch from %d: version %d: %w", fromSeq, v.seq, err)
		}
	}
	return nil
}

// Watchers reports the number of live subscriptions.
func (s *Store[T]) Watchers() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.watchers)
}

// unwatch detaches a watcher: the CancelFunc path. It closes the channel
// only if the publisher has not already evicted (and closed) it.
func (s *Store[T]) unwatch(w *watcher[T], stop chan struct{}) {
	s.mu.Lock()
	if !w.gone {
		w.gone = true
		s.removeWatcher(w.id)
		close(w.ch)
		if m := s.met; m != nil {
			m.watchers.Set(float64(len(s.watchers)))
		}
	}
	// Release the ctx goroutine. Guarded, and under the lock: CancelFunc is
	// idempotent and may race itself — the caller's cancel against the ctx
	// goroutine's when a session closes under a live subscription.
	select {
	case <-stop:
	default:
		close(stop)
	}
	s.mu.Unlock()
}

// removeWatcher drops the watcher with the given id from the registry.
// Callers hold s.mu.
func (s *Store[T]) removeWatcher(id uint64) {
	for i, w := range s.watchers {
		if w.id == id {
			s.watchers = append(s.watchers[:i], s.watchers[i+1:]...)
			return
		}
	}
}

// notifyWatchers delivers a freshly committed version to every
// subscriber. Callers hold s.mu, so delivery is atomic with the commit:
// no publication can interleave between a subscriber's catch-up and its
// first live delivery, and every subscriber sees versions in seq order.
//
// Deliveries are non-blocking by construction: a watcher with buffer
// space gets the change; a watcher whose buffer is full is evicted —
// deterministically, in subscription order — via the reserved
// eviction slot. Publish therefore never waits on any consumer.
func (s *Store[T]) notifyWatchers(v *Version[T]) {
	if len(s.watchers) == 0 {
		return
	}
	c := Change[T]{Version: v, Changes: v.changes}
	var evicted []*watcher[T]
	for _, w := range s.watchers {
		if len(w.ch) >= w.limit {
			// Buffer full: the reserved slot carries the eviction notice
			// (metadata only — the payload the subscriber missed is not
			// pinned into its queue).
			w.gone = true
			w.ch <- Change[T]{Version: v, Evicted: true}
			close(w.ch)
			evicted = append(evicted, w)
			continue
		}
		w.ch <- c
	}
	for _, w := range evicted {
		s.removeWatcher(w.id)
	}
	if m := s.met; m != nil {
		m.deliveries.Add(int64(len(s.watchers)))
		if len(evicted) > 0 {
			m.evictions.Add(int64(len(evicted)))
			m.watchers.Set(float64(len(s.watchers)))
		}
	}
}

// normalize sorts a ChangeSet's slices so equal change sets compare and
// serialise identically regardless of how the publisher assembled them.
func (c *ChangeSet) normalize() {
	sort.Ints(c.ChangedShards)
	sort.Strings(c.ChangedRecords)
	sort.Strings(c.RemovedRecords)
}
