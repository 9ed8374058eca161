// Package serve is the read side of the wrangling architecture: an
// immutable, versioned, copy-on-write snapshot store. The wrangling loop
// is write-heavy — run, react to feedback, refresh churned sources — but
// the north-star workload is read-heavy: many concurrent consumers
// querying the wrangled data while the session reacts in the background.
// Reconciling the two is the store's job: writers *compute* a full new
// publication off to the side (reusing the pipeline's compute/install
// split) and then commit it with one atomic pointer swap; readers load
// that pointer without any lock and hold an immutable version that no
// later reaction can tear or mutate.
//
// Every committed version is stamped with a monotonically increasing
// sequence number, the provenance step that produced it, the origin of
// the publication (run, feedback, refresh) and a wall-clock timestamp. A
// bounded history of recent versions is retained so a reader can pin a
// version across several requests (time-travel within the retention
// window); older versions are pruned, which bounds memory to
// O(retain × snapshot size).
package serve

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// Origin says which reaction path committed a version.
type Origin string

// The publication origins.
const (
	// OriginRun is a full pipeline run.
	OriginRun Origin = "run"
	// OriginFeedback is an incremental feedback reaction.
	OriginFeedback Origin = "feedback"
	// OriginRefresh is a source-churn refresh.
	OriginRefresh Origin = "refresh"
)

// DefaultRetain is the number of versions a store keeps when the caller
// does not choose: enough for a reader to pin a version across a short
// interaction while keeping memory bounded.
const DefaultRetain = 4

// Version is one committed publication: an immutable payload plus the
// metadata identifying when and why it was committed. Versions are never
// mutated after Publish returns — readers on any goroutine may hold one
// indefinitely without synchronisation.
type Version[T any] struct {
	seq     uint64
	step    uint64
	origin  Origin
	at      time.Time
	data    T
	changes ChangeSet

	// load materialises data on first use for a version restored without
	// it (RestoredVersion.Load), once, whoever asks first; nil otherwise.
	load func() (T, error)
	once sync.Once
	err  error
}

// Seq returns the version's monotonically increasing sequence number
// (1 for the first publication).
func (v *Version[T]) Seq() uint64 { return v.seq }

// Step returns the provenance step that produced this version — the
// logical clock of the derivation graph at commit time, which links the
// served snapshot back to the lineage that explains it.
func (v *Version[T]) Step() uint64 { return v.step }

// Origin returns which reaction path committed the version.
func (v *Version[T]) Origin() Origin { return v.origin }

// At returns the wall-clock commit time.
func (v *Version[T]) At() time.Time { return v.at }

// Data returns the published payload. The payload and everything
// reachable from it is frozen at publish time; treat it as read-only. A
// restored version that arrived without its payload loads it here on
// first use; if that load failed, Data is the zero T — At and Watch
// report the error instead of handing such a version out.
func (v *Version[T]) Data() T {
	if v.load != nil {
		v.materialize()
	}
	return v.data
}

// materialize runs a restored version's Load once and returns its error
// to every caller, then and later: a failed load is never taken for a
// loaded payload.
func (v *Version[T]) materialize() error {
	if v.load == nil {
		return nil
	}
	v.once.Do(func() { v.data, v.err = v.load() })
	return v.err
}

// Changes returns the publisher's summary of what this version changed
// relative to its predecessor — retained so change-feed catch-up replays
// the same O(delta) events a live watcher saw.
func (v *Version[T]) Changes() ChangeSet { return v.changes }

// Store is a versioned copy-on-write snapshot store. One writer at a
// time publishes (publishers serialise on an internal mutex, but the
// pipeline already computes the payload before calling Publish, so the
// critical section is a pointer swap plus history bookkeeping); any
// number of readers call Latest concurrently, lock-free.
type Store[T any] struct {
	latest atomic.Pointer[Version[T]]

	mu      sync.RWMutex // guards history, seq and the watch registry; never held by Latest
	history []*Version[T]
	seq     uint64
	retain  int

	// Change-feed state (watch.go): live subscriptions, the id counter
	// that orders them, and the per-subscriber buffer bound.
	watchers []*watcher[T]
	watchSeq uint64
	watchBuf int

	// met is nil until Instrument enables telemetry (metrics.go). Set
	// before the store is shared; read without synchronisation on the
	// lock-free Latest path.
	met *storeMetrics
}

// NewStore creates a store retaining the given number of versions.
// retain < 1 falls back to DefaultRetain.
func NewStore[T any](retain int) *Store[T] {
	if retain < 1 {
		retain = DefaultRetain
	}
	return &Store[T]{retain: retain}
}

// Publish commits data as the next version and returns it. The new
// version becomes visible to Latest atomically: a reader sees either the
// previous version or the new one, never a mixture. The oldest retained
// version beyond the retention bound is dropped. changes is the
// publisher's summary of what this version changed relative to its
// predecessor (set Full when the publisher cannot bound the delta); it
// is stamped onto the version and pushed to every watcher (watch.go) —
// deliveries never block, slow subscribers are evicted.
func (s *Store[T]) Publish(data T, step uint64, origin Origin, at time.Time, changes ChangeSet) *Version[T] {
	changes.normalize()
	s.mu.Lock()
	s.seq++
	v := &Version[T]{seq: s.seq, step: step, origin: origin, at: at, data: data, changes: changes}
	s.history = append(s.history, v)
	if len(s.history) > s.retain {
		// Drop in place so the backing array does not grow without bound.
		n := copy(s.history, s.history[len(s.history)-s.retain:])
		for i := n; i < len(s.history); i++ {
			s.history[i] = nil
		}
		s.history = s.history[:n]
	}
	// The swap happens under the writer lock so concurrent publishers
	// cannot commit out of sequence order; readers only Load, so the lock
	// never touches the read path. The single atomic store is the entire
	// commit point: a reader sees the version fully built or not at all.
	s.latest.Store(v)
	s.notifyWatchers(v)
	s.mu.Unlock()
	if m := s.met; m != nil {
		m.publishes.Inc()
	}
	return v
}

// Latest returns the most recently committed version, or nil before the
// first publication. It is a single atomic load: it never blocks on
// publishers and can be called from any number of goroutines.
func (s *Store[T]) Latest() *Version[T] {
	if m := s.met; m != nil {
		m.reads.Inc()
	}
	return s.latest.Load()
}

// At returns the retained version with the given sequence number. It
// reports a plain error for sequence numbers never published, and the
// typed ErrCompacted for versions already pruned from the retention
// window — the same error Watch reports when catch-up would need a
// pruned version, so callers handle both staleness paths uniformly. A
// restored version loads its payload on the first At that reaches it —
// outside the store's lock, so publishers never wait on a load — and a
// failed load is At's error, on that call and every later one.
func (s *Store[T]) At(seq uint64) (*Version[T], error) {
	v, err := s.at(seq)
	if err != nil {
		return nil, err
	}
	if err := v.materialize(); err != nil {
		return nil, fmt.Errorf("serve: version %d: %w", seq, err)
	}
	return v, nil
}

// at finds the retained version with the given sequence number.
func (s *Store[T]) at(seq uint64) (*Version[T], error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	for _, v := range s.history {
		if v.seq == seq {
			if m := s.met; m != nil {
				m.timeTravel.Inc()
			}
			return v, nil
		}
	}
	if seq == 0 || seq > s.seq {
		if m := s.met; m != nil {
			m.errNotFound.Inc()
		}
		return nil, fmt.Errorf("serve: version %d does not exist (latest is %d)", seq, s.seq)
	}
	if m := s.met; m != nil {
		m.errCompacted.Inc()
	}
	return nil, fmt.Errorf("serve: version %d (retaining %d of %d) %w", seq, len(s.history), s.seq, ErrCompacted)
}

// Versions returns the sequence numbers currently retained, oldest first.
func (s *Store[T]) Versions() []uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]uint64, len(s.history))
	for i, v := range s.history {
		out[i] = v.seq
	}
	return out
}

// Retain returns the store's retention bound.
func (s *Store[T]) Retain() int { return s.retain }
