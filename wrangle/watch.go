package wrangle

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/serve"
)

// ErrCompacted reports that a requested version precedes the session
// store's retention window: it was published once but has been pruned, so
// neither View.At nor Watch catch-up can serve it. Re-bootstrap from the
// latest version (View / Watch from View.Version()).
var ErrCompacted = serve.ErrCompacted

// ChangeSet is the publisher's summary of what one committed version
// changed relative to its predecessor. Sessions with a shard count
// (WithIntegrationShards) bound the delta — which shards were rebuilt,
// which records changed or vanished — while a session without one
// publishes Full change sets. Slices are sorted and read-only.
type ChangeSet = serve.ChangeSet

// CancelFunc detaches a change-feed subscription. Idempotent and safe to
// call concurrently; the subscription channel closes promptly after.
type CancelFunc = serve.CancelFunc

// Change is one change-feed event: a view pinned to the committed version
// plus the publisher's change summary. Consumers that maintain a mirror
// apply Changes against View (ChangedRecords resolve to rows via
// View.Entities, which is sorted); consumers that only need a
// notification read Version() and fetch lazily.
type Change struct {
	// View is pinned to the version this event announces — the same
	// immutable, copy-on-write snapshot Session.View hands out, so
	// holding many changes retains the shard pages each version rebuilt,
	// not a table copy per event.
	View *View
	// Changes summarises what this version changed against its
	// predecessor (Full when the session could not bound it).
	Changes ChangeSet
	// Evicted marks the final event of a subscription that fell behind:
	// its buffer was full when View's version was published. The channel
	// closes right after; resume with Watch(lastSeenVersion), or
	// re-bootstrap from Session.View if that version is already
	// compacted.
	Evicted bool
}

// Version returns the announced version's sequence number.
func (c Change) Version() uint64 { return c.View.Version() }

// WithWatchBuffer sets the per-subscriber delivery buffer for the
// session's change feed (n >= 1; default serve.DefaultWatchBuffer). A
// subscriber that falls more than n undelivered versions behind is
// evicted — publications never block on a slow consumer — so n trades
// per-subscriber memory against tolerance for consumer stalls.
func WithWatchBuffer(n int) Option {
	return func(s *settings) error {
		if n < 1 {
			return fmt.Errorf("watch buffer must be at least 1, got %d", n)
		}
		s.watchBuffer = n
		return nil
	}
}

// Watch subscribes to the session's change feed from just after
// fromVersion: the channel first replays every retained version with a
// higher sequence number (catch-up), then pushes each subsequent
// publication — Run, ApplyFeedback, Refresh — as it commits, gapless and
// in order. fromVersion is the last version the caller has already seen:
// 0 subscribes from the beginning, View.Version() from "now".
//
// Errors: ErrCompacted when catch-up would need a version already pruned
// from the retention window (re-bootstrap from Session.View), or a plain
// error when fromVersion has not been published yet.
//
// Delivery is push with a bounded per-subscriber buffer (WithWatchBuffer):
// a subscriber that stops draining receives one final Change with Evicted
// set and its channel is closed — publishers never block, so one stuck
// watcher cannot stall reactions or other subscribers. Cancelling (the
// CancelFunc, or ctx) closes the channel without an eviction notice. The
// channel is closed on every termination path; range over it.
func (s *Session) Watch(ctx context.Context, fromVersion uint64) (<-chan Change, CancelFunc, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	inner, cancel, err := s.w.Serve.Watch(ctx, fromVersion)
	if err != nil {
		return nil, nil, fmt.Errorf("wrangle: %w", err)
	}
	// Translate the store's generic events into facade Changes. The out
	// channel is unbuffered on purpose: backpressure lands on the store's
	// per-subscriber buffer, so eviction accounting stays in one place
	// (the effective slack is the store buffer plus the one change in
	// flight here).
	out := make(chan Change)
	done := make(chan struct{})
	var once sync.Once
	stop := func() {
		once.Do(func() { close(done) })
		cancel()
	}
	go func() {
		// Detach from the store before closing out (LIFO defers), so a
		// consumer that sees the feed close also sees Watchers drop.
		defer close(out)
		defer cancel()
		for c := range inner {
			ev := Change{
				View:    &View{store: s.w.Serve, v: c.Version},
				Changes: c.Changes,
				Evicted: c.Evicted,
			}
			select {
			case out <- ev:
			case <-done:
				return
			case <-ctx.Done():
				return
			}
		}
	}()
	return out, stop, nil
}

// Watchers reports the session's live change-feed subscriptions.
func (s *Session) Watchers() int { return s.w.Serve.Watchers() }
