package wal

import (
	"bytes"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"
)

// FuzzWALReplay feeds arbitrary bytes — seeded with real logs, truncated
// tails and bit-flipped frames — through the replay scanner and asserts
// the recovery contract:
//
//   - replay never panics and never allocates from a hostile length field;
//   - every replayed record is internally consistent (offset within the
//     input, payload within bounds);
//   - the valid-prefix property: re-scanning the prefix replay reports
//     clean yields exactly the same records with no truncation — so Open's
//     heal-by-truncate always lands on a stable file;
//   - a healed log accepts appends and replays them back.
func FuzzWALReplay(f *testing.F) {
	// Seed with a realistic log: config, a couple of sources, a page, two
	// versions, a checkpoint.
	var seedLog bytes.Buffer
	seedLog.Write(header())
	type frameHead struct {
		kind uint8
		n    uint32
	}
	write := func(kind Kind, payload []byte) {
		head := frameHead{uint8(kind), uint32(len(payload))}
		frame := append(Encode(&head, func(c *Codec, h *frameHead) {
			c.U8(&h.kind)
			c.U32(&h.n)
		}), payload...)
		seedLog.Write(frame)
		crc := crcOf(frame)
		seedLog.Write(Encode(&crc, (*Codec).U32))
	}
	write(KindConfig, []byte("schema|shards=4|streaming"))
	write(KindSource, []byte("src-1 state"))
	write(KindSource, nil)
	write(KindPage, bytes.Repeat([]byte{0x42}, 512))
	write(KindVersion, []byte("version 1 -> page 1"))
	write(KindFeedback, []byte("fb"))
	write(KindVersion, []byte("version 2 -> page 1"))
	write(KindCheckpoint, []byte("ckpt@2"))
	full := seedLog.Bytes()

	f.Add(full)
	f.Add(full[:0])
	f.Add(full[:headerSize])
	f.Add(full[:len(full)-3]) // torn tail
	f.Add(append([]byte(nil), full[:headerSize+4]...))
	mut := append([]byte(nil), full...)
	mut[headerSize+2] ^= 0x10 // corrupt first frame's length
	f.Add(mut)
	f.Add([]byte("WRGL"))
	f.Add([]byte("not a log at all"))
	// One record of largePayload bytes, written between two small ones by
	// a real Log, which buffers it by reference.
	large := filepath.Join(f.TempDir(), "large.wal")
	l, _, err := Open(large, SyncOnCheckpoint)
	if err != nil {
		f.Fatal(err)
	}
	for _, d := range []Data{{KindConfig, []byte("cfg")}, {KindPage, bytes.Repeat([]byte{0x5a}, largePayload)}, {KindVersion, []byte("v1")}} {
		if err := l.Append(d.Kind, d.Payload); err != nil {
			f.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		f.Fatal(err)
	}
	largeLog, err := os.ReadFile(large)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(largeLog)

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<20 {
			return // keep the corpus cheap; framing bugs don't need megabytes
		}
		recs, valid, reason := scanInput(data)
		if valid < 0 || valid > int64(len(data)) {
			t.Fatalf("valid prefix %d out of range [0,%d]", valid, len(data))
		}
		for i, r := range recs {
			if r.Offset < headerSize || r.Offset >= valid {
				t.Fatalf("record %d offset %d outside valid prefix %d", i, r.Offset, valid)
			}
			if len(r.Payload) > MaxPayload {
				t.Fatalf("record %d payload %d exceeds MaxPayload", i, len(r.Payload))
			}
		}
		// Stability: the reported valid prefix must itself scan clean, to
		// the same records — Open truncates to it and must not cascade.
		if valid >= headerSize {
			recs2, valid2, reason2 := scanInput(data[:valid])
			if reason2 != nil {
				t.Fatalf("valid prefix re-scan failed: %v (first scan: %v)", reason2, reason)
			}
			if valid2 != valid || len(recs2) != len(recs) {
				t.Fatalf("valid prefix unstable: %d/%d records, %d/%d bytes", len(recs2), len(recs), valid2, valid)
			}
			for i := range recs {
				if recs2[i].Kind != recs[i].Kind || !bytes.Equal(recs2[i].Payload, recs[i].Payload) {
					t.Fatalf("record %d changed across re-scan", i)
				}
			}
		}

		// End-to-end: Open the mutated bytes as a file. It must either
		// refuse (bad header) or heal to the valid prefix and keep working.
		dir := t.TempDir()
		path := filepath.Join(dir, "fuzz.wal")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		l, rep, err := Open(path, SyncOnCheckpoint)
		if err != nil {
			return // refused outright (torn/invalid header) — fine
		}
		defer l.Close()
		if len(rep.Records) != len(recs) {
			t.Fatalf("Open replayed %d records, scan found %d", len(rep.Records), len(recs))
		}
		if err := l.Append(KindCheckpoint, []byte("post-heal")); err != nil {
			t.Fatalf("append after heal: %v", err)
		}
		if err := l.Commit(); err != nil {
			t.Fatalf("commit after heal: %v", err)
		}
		if err := l.Close(); err != nil {
			t.Fatalf("close after heal: %v", err)
		}
		_, rep2, err := Open(path, SyncOnCheckpoint)
		if err != nil {
			t.Fatalf("reopen after heal: %v", err)
		}
		if rep2.Truncated {
			t.Fatalf("healed log still truncated: %v", rep2.Reason)
		}
		if len(rep2.Records) != len(recs)+1 {
			t.Fatalf("healed log lost records: %d, want %d", len(rep2.Records), len(recs)+1)
		}
	})
}

// scanInput runs the replay scanner over raw bytes, tolerating inputs
// too short to hold a header (reported as zero valid bytes).
func scanInput(data []byte) ([]Record, int64, error) {
	if err := checkHeader(data); err != nil {
		return nil, 0, err
	}
	return scan(data)
}

// crcOf checksums a frame (kind + length + payload) exactly like Append.
func crcOf(frame []byte) uint32 {
	return crc32.Checksum(frame, castagnoli)
}
