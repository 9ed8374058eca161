package core

import (
	"bytes"
	"reflect"
	"testing"
	"time"

	"repro/internal/wal"
)

// TestVersionRecordSkipsFuseSignature pins the one place the version
// record's layout and its reader disagree on purpose: the five fields
// after the memo flag once held the fuse signature of the memoized tail.
// They are written as zeros now and read past whatever they hold, so a
// record from a log written before — with a policy, a default trust, a
// tolerance, a clock and a half-life in them — decodes to the same
// version.
func TestVersionRecordSkipsFuseSignature(t *testing.T) {
	w, _ := newDeltaWrangler(4)
	if _, err := w.Run(); err != nil {
		t.Fatal(err)
	}
	if w.tail.plan == nil {
		t.Fatal("a sharded run installs a plan")
	}
	payload := wal.Encode(fullRecord(w, w.Serve.Latest(), w.lastPub, len(w.Config.Target)), codeVersion)
	want := &loggedVersion{}
	if err := wal.Decode(payload, want, codeVersion); err != nil || !want.memoValid {
		t.Fatalf("decode of a fresh record: memoValid=%v err=%v", want.memoValid, err)
	}

	type tail struct {
		policy                  int64
		defaultTrust, tolerance float64
		now                     time.Time
		halfLife                time.Duration
	}
	signature := func(policy int64, defaultTrust, tolerance float64, now time.Time, halfLife time.Duration) []byte {
		return wal.Encode(&tail{policy, defaultTrust, tolerance, now, halfLife}, func(c *wal.Codec, t *tail) {
			memo := true
			c.Bool(&memo)
			c.Varint(&t.policy)
			c.F64(&t.defaultTrust)
			c.F64(&t.tolerance)
			c.Time(&t.now)
			c.Duration(&t.halfLife)
		})
	}
	reserved := signature(0, 0, 0, time.Time{}, 0)
	if !bytes.HasSuffix(payload, reserved) {
		t.Fatal("the record no longer ends in the memo flag and the five reserved fields")
	}
	old := append(bytes.TrimSuffix(payload, reserved),
		signature(3, 0.8, 0.01, time.Unix(1_700_000_000, 5), 24*time.Hour)...)
	got := &loggedVersion{}
	if err := wal.Decode(old, got, codeVersion); err != nil {
		t.Fatalf("a record carrying a fuse signature no longer decodes: %v", err)
	}
	if len(got.sources) != len(want.sources) {
		t.Errorf("decoded %d source reports, want %d", len(got.sources), len(want.sources))
	}
	got.sources, want.sources = nil, nil // unscored accuracy is NaN, which never compares equal
	if !reflect.DeepEqual(got, want) {
		t.Errorf("the signature fields leaked into the decoded version:\n got %+v\nwant %+v", got, want)
	}
}
