package wal

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"
)

func openT(t *testing.T, path string) (*Log, *ReplayResult) {
	t.Helper()
	l, rep, err := Open(path, SyncOnCheckpoint)
	if err != nil {
		t.Fatalf("open %s: %v", path, err)
	}
	return l, rep
}

func appendT(t *testing.T, l *Log, kind Kind, payload []byte) {
	t.Helper()
	if err := l.Append(kind, payload); err != nil {
		t.Fatalf("append: %v", err)
	}
	if err := l.Commit(); err != nil {
		t.Fatalf("commit: %v", err)
	}
}

// TestRoundTrip pins the basic contract: records appended and committed
// come back from a reopen in order, byte-exact, with the right kinds.
func TestRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.wal")
	l, rep := openT(t, path)
	if len(rep.Records) != 0 || rep.Truncated {
		t.Fatalf("fresh log replayed %+v", rep)
	}
	want := []Data{
		{KindConfig, []byte("cfg")},
		{KindSource, nil},
		{KindPage, bytes.Repeat([]byte{0xAB}, 4096)},
		{KindVersion, []byte{0}},
	}
	for _, d := range want {
		appendT(t, l, d.Kind, d.Payload)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	l, rep = openT(t, path)
	defer l.Close()
	if rep.Truncated {
		t.Fatalf("clean log reported truncation: %v", rep.Reason)
	}
	if len(rep.Records) != len(want) {
		t.Fatalf("replayed %d records, want %d", len(rep.Records), len(want))
	}
	for i, r := range rep.Records {
		if r.Kind != want[i].Kind || !bytes.Equal(r.Payload, want[i].Payload) {
			t.Fatalf("record %d = kind %#x payload %d bytes, want kind %#x payload %d bytes",
				i, r.Kind, len(r.Payload), want[i].Kind, len(want[i].Payload))
		}
	}
}

// TestUncommittedNotVisible pins the Commit barrier: appends that were
// never committed are buffered, not on disk, so a reopen does not see
// them — the torn-tail guarantee by construction.
func TestUncommittedNotVisible(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.wal")
	l, _ := openT(t, path)
	appendT(t, l, KindConfig, []byte("cfg"))
	if err := l.Append(KindVersion, []byte("never committed")); err != nil {
		t.Fatalf("append: %v", err)
	}
	// Reopen without Close: simulates the process dying with a buffered
	// append in flight.
	l2, rep := openT(t, path)
	defer l2.Close()
	if len(rep.Records) != 1 || rep.Records[0].Kind != KindConfig {
		t.Fatalf("replayed %d records, want just the committed config", len(rep.Records))
	}
}

// TestTruncatedTailHealing pins crash recovery: cutting a committed log
// at every possible byte length must replay the longest valid record
// prefix, report truncation, and leave the file reopenable — and a
// subsequent append must extend the healed log cleanly.
func TestTruncatedTailHealing(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "t.wal")
	l, _ := openT(t, path)
	payloads := [][]byte{[]byte("alpha"), []byte("beta"), bytes.Repeat([]byte{7}, 100)}
	for _, p := range payloads {
		appendT(t, l, KindVersion, p)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	// Frame boundaries: after the header, each record is kind+len+payload+crc.
	bounds := []int{headerSize}
	off := headerSize
	for _, p := range payloads {
		off += frameOverhead + len(p)
		bounds = append(bounds, off)
	}
	wantValid := func(cut int) int {
		n := 0
		for _, b := range bounds[1:] {
			if cut >= b {
				n++
			}
		}
		return n
	}

	for cut := 0; cut <= len(full); cut++ {
		cp := filepath.Join(dir, "cut.wal")
		if err := os.WriteFile(cp, full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		if cut < headerSize && cut > 0 {
			// A torn header is refused outright (can't even validate the
			// format), not healed.
			if _, _, err := Open(cp, SyncOnCheckpoint); err == nil {
				t.Fatalf("cut=%d: torn header accepted", cut)
			}
			continue
		}
		l2, rep, err := Open(cp, SyncOnCheckpoint)
		if err != nil {
			t.Fatalf("cut=%d: open: %v", cut, err)
		}
		if got, want := len(rep.Records), wantValid(cut); got != want {
			t.Fatalf("cut=%d: replayed %d records, want %d", cut, got, want)
		}
		if wantTrunc := cut != 0 && cut != len(full) && cut != bounds[len(rep.Records)]; rep.Truncated != wantTrunc {
			t.Fatalf("cut=%d: truncated=%v, want %v (reason %v)", cut, rep.Truncated, wantTrunc, rep.Reason)
		}
		// The healed log must keep working: append, close, reopen.
		if err := l2.Append(KindCheckpoint, []byte("x")); err != nil {
			t.Fatalf("cut=%d: append after heal: %v", cut, err)
		}
		if err := l2.Commit(); err != nil {
			t.Fatalf("cut=%d: commit after heal: %v", cut, err)
		}
		if err := l2.Close(); err != nil {
			t.Fatalf("cut=%d: close: %v", cut, err)
		}
		_, rep2, err := Open(cp, SyncOnCheckpoint)
		if err != nil {
			t.Fatalf("cut=%d: reopen after heal: %v", cut, err)
		}
		if n := len(rep2.Records); n != wantValid(cut)+1 {
			t.Fatalf("cut=%d: reopen after heal replayed %d records, want %d", cut, n, wantValid(cut)+1)
		}
	}
}

// TestCorruptionDetected pins the checksum: flipping any single byte of a
// record's frame invalidates that record and everything after it, never
// yields a wrong payload, and never panics.
func TestCorruptionDetected(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "t.wal")
	l, _ := openT(t, path)
	appendT(t, l, KindVersion, []byte("payload-one"))
	appendT(t, l, KindVersion, []byte("payload-two"))
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	for i := headerSize; i < len(full); i++ {
		mut := append([]byte(nil), full...)
		mut[i] ^= 0xFF
		cp := filepath.Join(dir, "mut.wal")
		if err := os.WriteFile(cp, mut, 0o644); err != nil {
			t.Fatal(err)
		}
		l2, rep, err := Open(cp, SyncOnCheckpoint)
		if err != nil {
			t.Fatalf("flip@%d: open: %v", i, err)
		}
		l2.Close()
		if !rep.Truncated {
			t.Fatalf("flip@%d: corruption not detected", i)
		}
		for _, r := range rep.Records {
			if string(r.Payload) != "payload-one" && string(r.Payload) != "payload-two" {
				t.Fatalf("flip@%d: replay surfaced a corrupted payload %q", i, r.Payload)
			}
		}
	}
}

// TestHeaderValidation pins the format gate: wrong magic and wrong
// format version are refused with an error, not scanned.
func TestHeaderValidation(t *testing.T) {
	dir := t.TempDir()
	bad := map[string][]byte{
		"magic.wal":   []byte("NOPE\x01\x00"),
		"version.wal": []byte("WRGL\x63\x00"),
	}
	for name, buf := range bad {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, buf, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, _, err := Open(p, SyncOnCheckpoint); err == nil {
			t.Fatalf("%s: accepted", name)
		}
	}
}

// TestOversizedLengthRefused pins the allocation guard: a frame whose
// length field exceeds MaxPayload is corruption, cut off at its offset.
func TestOversizedLengthRefused(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.wal")
	l, _ := openT(t, path)
	appendT(t, l, KindConfig, []byte("ok"))
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Hand-frame a record claiming a huge payload.
	buf = append(buf, byte(KindVersion), 0xFF, 0xFF, 0xFF, 0xFF)
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		t.Fatal(err)
	}
	l2, rep, err := Open(path, SyncOnCheckpoint)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer l2.Close()
	if len(rep.Records) != 1 || !rep.Truncated {
		t.Fatalf("oversized frame: records=%d truncated=%v", len(rep.Records), rep.Truncated)
	}
}

// TestCompact pins the rewrite cycle: Compact replaces the file's
// contents with exactly the given records (atomically, via rename), the
// handle keeps appending afterwards, and a reopen sees rewrite + tail.
func TestCompact(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.wal")
	l, _ := openT(t, path)
	for i := 0; i < 50; i++ {
		appendT(t, l, KindVersion, bytes.Repeat([]byte{byte(i)}, 200))
	}
	grown := l.Size()
	keep := []Data{
		{KindConfig, []byte("cfg")},
		{KindVersion, []byte("latest")},
		{KindCheckpoint, []byte("ckpt")},
	}
	if err := l.Compact(keep); err != nil {
		t.Fatalf("compact: %v", err)
	}
	if l.Size() >= grown {
		t.Fatalf("compact did not shrink: %d -> %d bytes", grown, l.Size())
	}
	appendT(t, l, KindVersion, []byte("after"))
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	_, rep := openT(t, path)
	if rep.Truncated {
		t.Fatalf("compacted log truncated: %v", rep.Reason)
	}
	var kinds []Kind
	for _, r := range rep.Records {
		kinds = append(kinds, r.Kind)
	}
	want := []Kind{KindConfig, KindVersion, KindCheckpoint, KindVersion}
	for i := range want {
		if i >= len(kinds) || kinds[i] != want[i] {
			t.Fatalf("after compact replayed kinds %v, want %v", kinds, want)
		}
	}
	if got := string(rep.Records[3].Payload); got != "after" {
		t.Fatalf("tail after compact = %q", got)
	}
}

// TestStickyError pins the poisoned-handle contract: once a write fails,
// every later operation returns the same first error instead of writing
// a half-consistent tail.
func TestStickyError(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.wal")
	l, _ := openT(t, path)
	appendT(t, l, KindConfig, []byte("cfg"))
	// Close the fd behind the log's back to force the next flush to fail.
	if err := l.f.Close(); err != nil {
		t.Fatal(err)
	}
	if err := l.Append(KindVersion, []byte("x")); err != nil {
		t.Fatalf("buffered append should not fail: %v", err)
	}
	err := l.Commit()
	if err == nil {
		t.Fatal("commit on closed fd succeeded")
	}
	if got := l.Err(); !errors.Is(got, err) && got == nil {
		t.Fatalf("sticky error not recorded: %v", got)
	}
	if err2 := l.Append(KindVersion, []byte("y")); err2 == nil {
		t.Fatal("append after poison succeeded")
	}
}

// TestCodecRoundTrip pins the primitive codec in both directions,
// including the edge values a varint or float codec gets wrong first: one
// code function encodes the values and decodes them back into zeroed
// targets.
func TestCodecRoundTrip(t *testing.T) {
	type prims struct {
		u8        uint8
		u32       uint32
		u64       uint64
		uv0, uv60 uint64
		vNeg, v40 int64
		yes, no   bool
		pi, zero  float64
		s, empty  string
		ts        time.Time
		d         time.Duration
		ss, nilSS []string
	}
	code := func(c *Codec, p *prims) {
		c.U8(&p.u8)
		c.U32(&p.u32)
		c.U64(&p.u64)
		c.Uvarint(&p.uv0)
		c.Uvarint(&p.uv60)
		c.Varint(&p.vNeg)
		c.Varint(&p.v40)
		c.Bool(&p.yes)
		c.Bool(&p.no)
		c.F64(&p.pi)
		c.F64(&p.zero)
		c.String(&p.s)
		c.String(&p.empty)
		c.Time(&p.ts)
		c.Duration(&p.d)
		c.Strings(&p.ss)
		c.Strings(&p.nilSS)
	}
	ts := time.Unix(1722500000, 987654321)
	in := prims{
		u8: 0xAB, u32: 0xDEADBEEF, u64: 1<<63 + 12345, uv0: 0, uv60: 1 << 60,
		vNeg: -1, v40: 1 << 40, yes: true, no: false, pi: 3.14159, zero: 0,
		s: "hello, wal", empty: "", ts: ts, d: 42 * time.Millisecond,
		ss: []string{"a", "b", "c"}, nilSS: nil,
	}
	var out prims
	if err := Decode(Encode(&in, code), &out, code); err != nil {
		t.Fatalf("done: %v", err)
	}
	if v := out.u8; v != 0xAB {
		t.Fatalf("u8 = %#x", v)
	}
	if v := out.u32; v != 0xDEADBEEF {
		t.Fatalf("u32 = %#x", v)
	}
	if v := out.u64; v != 1<<63+12345 {
		t.Fatalf("u64 = %d", v)
	}
	if v := out.uv0; v != 0 {
		t.Fatalf("uvarint = %d", v)
	}
	if v := out.uv60; v != 1<<60 {
		t.Fatalf("uvarint = %d", v)
	}
	if v := out.vNeg; v != -1 {
		t.Fatalf("varint = %d", v)
	}
	if v := out.v40; v != 1<<40 {
		t.Fatalf("varint = %d", v)
	}
	if !out.yes || out.no {
		t.Fatal("bools")
	}
	if v := out.pi; v != 3.14159 {
		t.Fatalf("f64 = %v", v)
	}
	if v := out.zero; v != 0 {
		t.Fatalf("f64 zero = %v", v)
	}
	if v := out.s; v != "hello, wal" {
		t.Fatalf("string = %q", v)
	}
	if v := out.empty; v != "" {
		t.Fatalf("empty string = %q", v)
	}
	if v := out.ts; !v.Equal(ts) {
		t.Fatalf("time = %v", v)
	}
	if v := out.d; v != 42*time.Millisecond {
		t.Fatalf("duration = %v", v)
	}
	if v := out.ss; len(v) != 3 || v[2] != "c" {
		t.Fatalf("strings = %v", v)
	}
	if v := out.nilSS; v != nil {
		t.Fatalf("nil strings = %v", v)
	}
}

// TestDecoderBounds pins the defensive decoder: short buffers and
// oversized length fields produce sticky errors with offsets, never
// panics or giant allocations.
func TestDecoderBounds(t *testing.T) {
	abc := "abc"
	buf := Encode(&abc, (*Codec).String)

	for cut := 0; cut < len(buf); cut++ {
		err := Decode(buf[:cut], new(string), func(c *Codec, s *string) {
			c.String(s)
			if c.Err() == nil {
				t.Fatalf("cut=%d: truncated string decoded without error", cut)
			}
			// Sticky: further reads keep the first error.
			var u uint64
			c.U64(&u)
			if c.Err() == nil {
				t.Fatalf("cut=%d: error did not stick", cut)
			}
		})
		if err == nil {
			t.Fatalf("cut=%d: Decode reported no error", cut)
		}
	}

	// A length field claiming more bytes than exist must fail bounded.
	huge := uint64(1 << 40)
	var ss []string
	if err := Decode(Encode(&huge, (*Codec).Uvarint), &ss, (*Codec).Strings); err == nil {
		t.Fatal("absurd element count accepted")
	}

	// Done must reject trailing garbage.
	if err := Decode([]byte{1, 2, 3}, new(struct{}), func(*Codec, *struct{}) {}); err == nil {
		t.Fatal("Done accepted unconsumed bytes")
	}
}

// TestDecoderNaN pins bit-exact float round-tripping (trust maps can in
// principle hold any float the estimator produced).
func TestDecoderNaN(t *testing.T) {
	in := 0.1 + 0.2 // not representable exactly; must round-trip bit-exact
	var out float64
	if err := Decode(Encode(&in, (*Codec).F64), &out, (*Codec).F64); err != nil || out != 0.1+0.2 {
		t.Fatalf("f64 = %v (%v)", out, err)
	}
}
