package wrangle_test

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"testing"

	"repro/wrangle"
)

func TestWithIntegrationShardsValidation(t *testing.T) {
	if _, err := wrangle.New(wrangle.WithIntegrationShards(0)); err == nil {
		t.Error("WithIntegrationShards(0) should be rejected")
	}
	if _, err := wrangle.New(wrangle.WithIntegrationShards(-3)); err == nil {
		t.Error("WithIntegrationShards(-3) should be rejected")
	}
	if _, err := wrangle.New(wrangle.WithIntegrationShards(4)); err != nil {
		t.Errorf("WithIntegrationShards(4) rejected: %v", err)
	}
}

// sessionFingerprint renders the externally visible read-side of a
// session: full table bytes, report lines and trust.
func sessionFingerprint(t *testing.T, s *wrangle.Session) string {
	t.Helper()
	var b strings.Builder
	tab := s.Wrangled()
	for i := 0; i < tab.Len(); i++ {
		for _, v := range tab.Row(i) {
			b.WriteString(v.String())
			b.WriteByte('|')
		}
		b.WriteByte('\n')
	}
	for _, l := range s.Report("fp").Lines {
		fmt.Fprintf(&b, "%s/%s=%s conf=%g sup=%v\n", l.Entity, l.Attribute, l.Value, l.Confidence, l.Supporters)
	}
	trust := s.Trust()
	srcs := make([]string, 0, len(trust))
	for src := range trust {
		srcs = append(srcs, src)
	}
	sort.Strings(srcs)
	for _, src := range srcs {
		fmt.Fprintf(&b, "trust %s=%g\n", src, trust[src])
	}
	return b.String()
}

// TestShardedSessionByteIdentical is the facade-level identity check: the
// same universe wrangled by a default session and at shard counts
// 1/2/4/8 serves byte-identical tables, reports and trust, after the run
// and after a feedback + refresh round-trip.
func TestShardedSessionByteIdentical(t *testing.T) {
	drive := func(t *testing.T, shards int) string {
		t.Helper()
		opts := []wrangle.Option{wrangle.WithSeed(21), wrangle.WithSyntheticSources(6)}
		if shards > 0 {
			opts = append(opts, wrangle.WithIntegrationShards(shards))
		}
		s := mustRun(t, opts...)
		rep := s.Report("prices", "price")
		if len(rep.Lines) == 0 {
			t.Fatal("no report lines")
		}
		l := rep.Lines[0]
		src := s.SelectedSources()[0]
		if len(l.Supporters) > 0 {
			src = l.Supporters[0]
		}
		if _, err := s.ApplyFeedback(context.Background(), wrangle.Feedback{
			Kind: wrangle.ValueIncorrect, SourceID: src,
			Entity: l.Entity, Attribute: l.Attribute, Cost: 0.5,
		}); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Refresh(context.Background(), s.SelectedSources()[0]); err != nil {
			t.Fatal(err)
		}
		return sessionFingerprint(t, s)
	}
	want := drive(t, 0)
	for _, shards := range []int{1, 2, 4, 8} {
		if got := drive(t, shards); got != want {
			t.Errorf("shards=%d served different bytes than the default session", shards)
		}
	}
}

// TestChangeFeedFullUnlessSharded pins the one behaviour that tells a
// default session from WithIntegrationShards(1), although both run the
// same one-shard tail and serve the same bytes: the default session
// publishes every version — run, refresh and value feedback — as a full
// change, while the explicit shard count publishes record deltas over its
// one page once there is a predecessor to diff against.
func TestChangeFeedFullUnlessSharded(t *testing.T) {
	drive := func(t *testing.T, opts ...wrangle.Option) []wrangle.ChangeSet {
		t.Helper()
		s := mustRun(t, append([]wrangle.Option{wrangle.WithSeed(21), wrangle.WithSyntheticSources(6)}, opts...)...)
		changes := func() wrangle.ChangeSet {
			t.Helper()
			v, err := s.View()
			if err != nil {
				t.Fatal(err)
			}
			return v.Changes()
		}
		out := []wrangle.ChangeSet{changes()}
		if _, err := s.Refresh(context.Background(), s.SelectedSources()[0]); err != nil {
			t.Fatal(err)
		}
		out = append(out, changes())
		l := s.Report("prices", "price").Lines[0]
		if _, err := s.ApplyFeedback(context.Background(), wrangle.Feedback{
			Kind: wrangle.ValueIncorrect, SourceID: s.SelectedSources()[0],
			Entity: l.Entity, Attribute: l.Attribute, Cost: 0.5,
		}); err != nil {
			t.Fatal(err)
		}
		return append(out, changes())
	}
	stages := []string{"run", "refresh", "value feedback"}
	for i, cs := range drive(t) {
		if !cs.Full {
			t.Errorf("default session, %s: published a delta %+v, want a full change", stages[i], cs)
		}
	}
	for i, cs := range drive(t, wrangle.WithIntegrationShards(1)) {
		if i == 0 {
			if !cs.Full {
				t.Errorf("one shard, run: %+v has no predecessor and must be a full change", cs)
			}
			continue
		}
		if cs.Full || cs.ChangedPages+cs.SharedPages != 1 {
			t.Errorf("one shard, %s: published %+v, want a record delta over one page", stages[i], cs)
		}
	}
}

// TestShardedViewSharesDeltaPages drives the delta path end to end
// through the facade: consecutive View versions after reactions share
// the unchanged records by pointer, which is what keeps retention
// O(changed record) for sharded sessions.
func TestShardedViewSharesDeltaPages(t *testing.T) {
	s := mustRun(t,
		wrangle.WithSeed(21),
		wrangle.WithSyntheticSources(8),
		wrangle.WithIntegrationShards(4),
		wrangle.WithRetainVersions(8),
	)
	v1, err := s.View()
	if err != nil {
		t.Fatal(err)
	}
	// Refresh one source with zero churn several times; across the whole
	// window at least some shards must stay untouched and share records
	// with the previous version.
	sharedTotal, rows := 0, 0
	prev := v1
	for i := 0; i < 3; i++ {
		if _, err := s.Refresh(context.Background(), s.SelectedSources()[i%len(s.SelectedSources())]); err != nil {
			t.Fatal(err)
		}
		cur, err := s.View()
		if err != nil {
			t.Fatal(err)
		}
		if cur.Version() != prev.Version()+1 {
			t.Fatalf("refresh %d: version %d after %d", i, cur.Version(), prev.Version())
		}
		sharedTotal += sharedRecords(prev.Table(), cur.Table())
		rows += cur.Table().Len()
		prev = cur
	}
	if sharedTotal == 0 {
		t.Errorf("no records shared across %d one-source refreshes (%d rows served); delta publication inactive", 3, rows)
	}
}

// sharedRecords counts rows of cur whose record storage is pointer-shared
// with some row of prev.
func sharedRecords(prev, cur *wrangle.Table) int {
	seen := map[*wrangle.Value]bool{}
	for i := 0; i < prev.Len(); i++ {
		if r := prev.Row(i); len(r) > 0 {
			seen[&r[0]] = true
		}
	}
	n := 0
	for i := 0; i < cur.Len(); i++ {
		if r := cur.Row(i); len(r) > 0 && seen[&r[0]] {
			n++
		}
	}
	return n
}
