package wrangle

import (
	"fmt"

	"repro/internal/core"
)

// Durability: a session opened with WithDurableLog appends every committed
// publication to a compact binary log under the state directory, and a new
// session opened over the same directory restores the snapshot store (with
// its original sequence numbers, retention window and change sets), the
// working data and the tail memo inputs — so the process can die and
// come back warm: readers resume at the exact retained versions, and the
// first reaction after restart recomputes a partial tail, not a cold run.

// FsyncPolicy says when the durable log calls fsync (see the constants).
type FsyncPolicy = core.FsyncPolicy

// The fsync policies.
const (
	// FsyncOnCheckpoint (the default) fsyncs at checkpoints, compactions
	// and close: crash-safe against process death, bounded loss (since the
	// last checkpoint) against power failure.
	FsyncOnCheckpoint = core.FsyncOnCheckpoint
	// FsyncAlways fsyncs after every published version — durable against
	// power loss before the publish returns, at a per-publish cost.
	FsyncAlways = core.FsyncAlways
)

// DurableStats reports a session's durable-log state (Session.Durability).
type DurableStats = core.DurableStats

// WithDurableLog makes the session durable: committed versions append to a
// log in dir (created if missing), and if the directory already holds a
// log written by a compatible session (same domain schema, shard count
// and retention), the new session restores it — Run may be
// skipped (see Session.Restored) and reactions continue from the restored
// state. A log written under a different configuration is refused.
func WithDurableLog(dir string) Option {
	return func(s *settings) error {
		if dir == "" {
			return fmt.Errorf("empty durable log directory")
		}
		s.durableDir = dir
		return nil
	}
}

// WithDurableFsync selects the log's fsync policy; requires WithDurableLog.
func WithDurableFsync(p FsyncPolicy) Option {
	return func(s *settings) error {
		if p != FsyncOnCheckpoint && p != FsyncAlways {
			return fmt.Errorf("unknown fsync policy %d", p)
		}
		s.durableFsync = p
		s.durableFsyncSet = true
		return nil
	}
}

// Restored reports whether this session was rehydrated from a durable log
// holding committed versions. A restored session can serve (View, Watch,
// Wrangled) and react (ApplyFeedback, Refresh) immediately, without a Run.
func (s *Session) Restored() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.restored
}

// Durability returns the durable log's state; ok is false for in-memory
// sessions.
func (s *Session) Durability() (stats DurableStats, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	d := s.w.Durable()
	if d == nil {
		return DurableStats{}, false
	}
	return d.Stats(), true
}

// RetainedVersions reports the serving store's retention bound — how many
// committed versions View.At and Watch catch-up can reach back.
func (s *Session) RetainedVersions() int {
	return s.w.Serve.Retain()
}

// Checkpoint compacts the durable log down to the retention window and
// fsyncs it: on return every committed version is durable against power
// loss regardless of the fsync policy. It is an error on an in-memory
// session.
func (s *Session) Checkpoint() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.w.Checkpoint()
}

// Close flushes and closes the session's durable log (no-op for in-memory
// sessions). The session must not be used afterwards.
func (s *Session) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	d := s.w.Durable()
	if d == nil {
		return nil
	}
	return d.Close()
}
