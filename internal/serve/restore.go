package serve

import (
	"errors"
	"fmt"
	"time"
)

// RestoredVersion is one version to rehydrate into a fresh store — the
// durable-log replay shape. Unlike Publish, the caller supplies the
// original sequence number, commit time and change set, so a reopened
// store is indistinguishable from the live one it was saved from: At,
// Versions and Watch catch-up serve the exact versions that were
// retained, with their original stamps.
//
// A version may arrive without its payload: Load, when set, produces Data
// on first use — the first At, Watch catch-up or Data call that reaches
// the version runs it, once. Its error is returned by At and Watch every
// time they reach the version, never taken for a payload. The newest
// version must carry Data (Load nil): Latest is one atomic load and never
// loads anything.
type RestoredVersion[T any] struct {
	Seq     uint64
	Step    uint64
	Origin  Origin
	At      time.Time
	Data    T
	Load    func() (T, error)
	Changes ChangeSet
}

// Restore installs replayed versions into an unused store: the history,
// the latest pointer and the sequence counter resume exactly where the
// saved store left off. Versions must be in strictly increasing
// sequence order; only the newest retain-window's worth are kept (the
// log may hold more between compactions). Restore is a construction-time
// operation — it refuses a store that has already published, restored or
// acquired watchers, so the atomic-latest/watch invariants never see a
// half-restored state.
func (s *Store[T]) Restore(versions []RestoredVersion[T]) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.seq != 0 || len(s.history) > 0 || len(s.watchers) > 0 {
		return errors.New("serve: restore requires an unused store")
	}
	if len(versions) == 0 {
		return nil
	}
	var prev uint64
	for i := range versions {
		if versions[i].Seq == 0 || versions[i].Seq <= prev {
			return fmt.Errorf("serve: restore: version %d out of order after %d (sequence numbers must be positive and strictly increasing)", versions[i].Seq, prev)
		}
		prev = versions[i].Seq
	}
	if last := versions[len(versions)-1]; last.Load != nil {
		return fmt.Errorf("serve: restore: the newest version %d must carry its Data, not a Load", last.Seq)
	}
	if len(versions) > s.retain {
		versions = versions[len(versions)-s.retain:]
	}
	for _, rv := range versions {
		rv.Changes.normalize()
		v := &Version[T]{seq: rv.Seq, step: rv.Step, origin: rv.Origin, at: rv.At, data: rv.Data, load: rv.Load, changes: rv.Changes}
		s.history = append(s.history, v)
	}
	last := s.history[len(s.history)-1]
	s.seq = last.seq
	s.latest.Store(last)
	return nil
}
