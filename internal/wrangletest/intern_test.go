package wrangletest

import (
	"context"
	"testing"
)

// TestInternedKeysFingerprintStable pins the PR-9 allocation squeeze's
// identity contract directly: interned row keys, per-row normalized
// feature state and the memoized similarity path must not change a
// single byte of any published artefact. The default (one-shard)
// session's fingerprint is the baseline; every shard count must
// reproduce it exactly, both after
// the initial run and after a refresh that rebuilds the union through
// the interner's reuse path.
func TestInternedKeysFingerprintStable(t *testing.T) {
	const seed, nSources = 11, 6
	base := NewWrangler(seed, nSources, 0)
	if _, err := base.Run(); err != nil {
		t.Fatal(err)
	}
	wantRun := Fingerprint(base)
	if _, err := base.RefreshSourcesContext(context.Background(), nil); err != nil {
		t.Fatal(err)
	}
	wantRefresh := Fingerprint(base)

	for _, shards := range shardCounts {
		w := NewWrangler(seed, nSources, shards)
		if _, err := w.Run(); err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		if got := Fingerprint(w); got != wantRun {
			t.Errorf("shards=%d: fingerprint after run diverges from the default session", shards)
		}
		if _, err := w.RefreshSourcesContext(context.Background(), nil); err != nil {
			t.Fatalf("shards=%d refresh: %v", shards, err)
		}
		if got := Fingerprint(w); got != wantRefresh {
			t.Errorf("shards=%d: fingerprint after refresh diverges from the default session", shards)
		}
	}
}
