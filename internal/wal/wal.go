// Package wal is a compact binary append log with length-prefixed,
// checksummed records — the persistence layer under the durable session.
// It is deliberately generic: the framing knows record kinds, lengths and
// CRCs, while the domain payloads (versions, pages, feedback, provenance)
// are encoded by the owner (internal/core) with this package's Codec:
// one code function per record kind states its layout for both
// directions.
//
// On-disk layout:
//
//	+--------+---------+   +------+--------+---------+-------+
//	| "WRGL" | version |   | kind | length | payload | crc32 |  ...
//	| 4 B    | u16 LE  |   | u8   | u32 LE | n bytes | u32 LE|
//	+--------+---------+   +------+--------+---------+-------+
//
// The CRC (Castagnoli) covers kind+length+payload, so any single flipped
// bit — header or body — is detected. Replay accepts the longest valid
// prefix: the first record that is truncated, oversized or checksum-bad
// ends the scan, everything before it is intact (appends are strictly
// sequential, so a valid prefix is always a consistent point-in-time
// state). Open truncates the file back to that prefix, which is how a
// crash mid-append heals on restart.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"

	"repro/internal/obs"
)

const (
	magic = "WRGL"
	// FormatVersion is bumped on any incompatible layout change; Open
	// refuses logs written by a different format.
	FormatVersion = 1
	headerSize    = 6 // magic + u16 version
	// frameOverhead is the per-record framing cost: kind + length + crc.
	frameOverhead = 9
	// MaxPayload bounds a single record. Anything larger in a length
	// field is treated as corruption, not an allocation request.
	MaxPayload = 1 << 28
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Kind tags a record's payload type. Values are stable on-disk bytes;
// the domain layer defines meaning. Mnemonic ASCII so hexdumps read.
type Kind uint8

// Record kinds written by the durable session layer.
const (
	KindConfig     Kind = 0x43 // 'C' — session configuration fingerprint
	KindSource     Kind = 0x53 // 'S' — one source's committed state
	KindFeedback   Kind = 0x46 // 'F' — one feedback item
	KindProv       Kind = 0x44 // 'D' — a batch of provenance derivations
	KindPage       Kind = 0x50 // 'P' — one page of a full version's output, referenced by id; read only, written by older logs
	KindVersion    Kind = 0x56 // 'V' — one published version: a patch on the one before or on the empty version
	KindCheckpoint Kind = 0x4b // 'K' — durability marker: state consistent through seq
)

// Record is one replayed log record. Payload aliases the replay buffer,
// which Open reads fresh and never reuses: a caller may keep a payload
// undecoded for as long as it likes, and it keeps that buffer alive.
type Record struct {
	Kind    Kind
	Payload []byte
	// Offset is the file offset of the record's kind byte — stable
	// addressing for corruption reports.
	Offset int64
}

// Data is a record to be written — the input shape for Compact.
type Data struct {
	Kind    Kind
	Payload []byte
}

// ReplayResult is what Open recovered from an existing log.
type ReplayResult struct {
	// Records is the longest valid record prefix, in append order.
	Records []Record
	// Truncated reports that the file held garbage past the valid
	// prefix — a torn append or corruption — which Open cut off.
	Truncated bool
	// TruncatedAt is the offset of the first invalid byte (= the new
	// file size) when Truncated.
	TruncatedAt int64
	// Reason is the validation failure that ended the scan, nil when the
	// log was clean.
	Reason error
}

// SyncPolicy says when the log calls fsync. Every append batch is
// flushed to the OS regardless (a SIGKILL loses nothing once write(2)
// returned); fsync only matters for power loss and is the expensive
// call, so it is a policy.
type SyncPolicy int

const (
	// SyncOnCheckpoint fsyncs only at checkpoints and compactions (and
	// on Close). The default: crash-safe against process death, bounded
	// loss (since the last checkpoint) against power failure.
	SyncOnCheckpoint SyncPolicy = iota
	// SyncAlways fsyncs after every committed batch — every published
	// version is durable against power loss before the publish returns.
	SyncAlways
)

// Log is an open append handle. Not safe for concurrent use; the owner
// serialises access (the session lock, in practice).
type Log struct {
	path   string
	f      *os.File
	w      *bufWriter
	size   int64
	policy SyncPolicy
	err    error       // sticky: first write failure poisons the handle
	met    *logMetrics // nil unless Instrument enabled telemetry
}

// logMetrics are the WAL activity counters, resolved once at Instrument.
type logMetrics struct {
	appends       *obs.Counter
	appendedBytes *obs.Counter
	commits       *obs.Counter
	fsyncs        *obs.Counter
	compactions   *obs.Counter
}

// Instrument registers the log's activity counters on reg and starts
// recording appends (and their framed bytes), commits, fsyncs and
// compactions. Compact's rewrite appends are not counted — only records
// the owner newly appended. Call under the owner's serialisation, like
// every other Log method; a nil reg is a no-op.
func (l *Log) Instrument(reg *obs.Registry) {
	if reg == nil {
		return
	}
	reg.Help("wrangle_wal_appended_bytes_total", "Bytes appended to the durable log, framing included.")
	reg.Help("wrangle_wal_fsyncs_total", "fsync calls issued by commits, checkpoints and compactions.")
	l.met = &logMetrics{
		appends:       reg.Counter("wrangle_wal_appends_total"),
		appendedBytes: reg.Counter("wrangle_wal_appended_bytes_total"),
		commits:       reg.Counter("wrangle_wal_commits_total"),
		fsyncs:        reg.Counter("wrangle_wal_fsyncs_total"),
		compactions:   reg.Counter("wrangle_wal_compactions_total"),
	}
}

// largePayload is the size from which bufWriter keeps a write by
// reference instead of copying it.
const largePayload = 64 << 10

// bufWriter is a minimal buffered writer (avoids bufio's Reset dance
// across Compact's handle swap). Small writes — frame headers, CRCs,
// small payloads — are copied into buf. A write of largePayload bytes or
// more is kept by reference, with the buf offset it follows, and flush
// writes it in its place: a large payload reaches the file with no copy
// in between, so its bytes must hold still until the flush returns.
type bufWriter struct {
	f    *os.File
	buf  []byte
	refs []bufRef // large writes, in order
}

// bufRef is one large write kept by reference: p goes to the file right
// after buf[:at].
type bufRef struct {
	at int
	p  []byte
}

func (b *bufWriter) write(p []byte) {
	if len(p) >= largePayload {
		b.refs = append(b.refs, bufRef{at: len(b.buf), p: p})
		return
	}
	b.buf = append(b.buf, p...)
}

// flush writes everything buffered, in write order, and drops its
// references to large writes either way.
func (b *bufWriter) flush() error {
	err := b.writeOut()
	b.buf = b.buf[:0]
	clear(b.refs)
	b.refs = b.refs[:0]
	return err
}

func (b *bufWriter) writeOut() error {
	off := 0
	for _, r := range b.refs {
		if err := b.writeFile(b.buf[off:r.at]); err != nil {
			return err
		}
		if err := b.writeFile(r.p); err != nil {
			return err
		}
		off = r.at
	}
	return b.writeFile(b.buf[off:])
}

func (b *bufWriter) writeFile(p []byte) error {
	if len(p) == 0 {
		return nil
	}
	_, err := b.f.Write(p)
	return err
}

// Open opens (or creates) the log at path, replays and validates its
// contents, truncates any torn tail, and returns the handle positioned
// for append plus the replay result. A file that exists but does not
// start with a valid header is an error — Open never silently clobbers
// a file it does not recognise.
func Open(path string, policy SyncPolicy) (*Log, *ReplayResult, error) {
	buf, err := os.ReadFile(path)
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		return nil, nil, fmt.Errorf("wal: open %s: %w", path, err)
	}
	fresh := errors.Is(err, os.ErrNotExist) || len(buf) == 0
	res := &ReplayResult{}
	validSize := int64(headerSize)
	if !fresh {
		if err := checkHeader(buf); err != nil {
			return nil, nil, fmt.Errorf("wal: %s: %w", path, err)
		}
		res.Records, validSize, res.Reason = scan(buf)
		if res.Reason != nil {
			res.Truncated = true
			res.TruncatedAt = validSize
		}
	}
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("wal: open %s: %w", path, err)
	}
	l := &Log{path: path, f: f, w: &bufWriter{f: f}, policy: policy}
	if fresh {
		hdr := header()
		if _, err := f.Write(hdr); err != nil {
			f.Close()
			return nil, nil, fmt.Errorf("wal: write header %s: %w", path, err)
		}
		if err := f.Sync(); err != nil {
			f.Close()
			return nil, nil, fmt.Errorf("wal: sync header %s: %w", path, err)
		}
		l.size = int64(headerSize)
		return l, res, nil
	}
	// Heal a torn tail: cut the file back to the valid prefix so the
	// next append starts on a record boundary.
	if validSize < int64(len(buf)) {
		if err := f.Truncate(validSize); err != nil {
			f.Close()
			return nil, nil, fmt.Errorf("wal: truncate torn tail %s: %w", path, err)
		}
	}
	if _, err := f.Seek(validSize, io.SeekStart); err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("wal: seek %s: %w", path, err)
	}
	l.size = validSize
	return l, res, nil
}

func header() []byte {
	hdr := make([]byte, headerSize)
	copy(hdr, magic)
	binary.LittleEndian.PutUint16(hdr[4:], FormatVersion)
	return hdr
}

func checkHeader(buf []byte) error {
	if len(buf) < headerSize {
		return fmt.Errorf("offset 0x0: file shorter than the %d-byte header", headerSize)
	}
	if string(buf[:4]) != magic {
		return fmt.Errorf("offset 0x0: bad magic %q (not a wrangle log)", buf[:4])
	}
	if v := binary.LittleEndian.Uint16(buf[4:]); v != FormatVersion {
		return fmt.Errorf("offset 0x4: unsupported log format version %d (want %d)", v, FormatVersion)
	}
	return nil
}

// Scan validates buf as a complete log image (header + records) and
// returns the longest valid record prefix. The error, if any, describes
// why the scan stopped; records before it are intact either way. It
// never panics on arbitrary input.
func Scan(buf []byte) ([]Record, int64, error) {
	if err := checkHeader(buf); err != nil {
		return nil, 0, err
	}
	return scan(buf)
}

func scan(buf []byte) ([]Record, int64, error) {
	off := int64(headerSize)
	var recs []Record
	for off < int64(len(buf)) {
		rem := int64(len(buf)) - off
		if rem < frameOverhead {
			return recs, off, fmt.Errorf("wal: offset 0x%x: truncated record frame (%d bytes left, need at least %d)", off, rem, frameOverhead)
		}
		kind := Kind(buf[off])
		n := binary.LittleEndian.Uint32(buf[off+1:])
		if n > MaxPayload {
			return recs, off, fmt.Errorf("wal: offset 0x%x: implausible record length %d", off, n)
		}
		total := int64(frameOverhead) + int64(n)
		if rem < total {
			return recs, off, fmt.Errorf("wal: offset 0x%x: truncated record: need %d bytes, %d left", off, total, rem)
		}
		body := buf[off : off+5+int64(n)]
		want := binary.LittleEndian.Uint32(buf[off+5+int64(n):])
		if got := crc32.Checksum(body, castagnoli); got != want {
			return recs, off, fmt.Errorf("wal: offset 0x%x: checksum mismatch on record kind 0x%x (%d bytes): got %08x want %08x", off, kind, n, crc32.Checksum(body, castagnoli), want)
		}
		recs = append(recs, Record{Kind: kind, Payload: body[5:], Offset: off})
		off += total
	}
	return recs, off, nil
}

// Append buffers one record. Nothing is guaranteed on disk until
// Commit; batch the records of one logical commit, then Commit once.
// A large payload is buffered by reference, not copied: the caller must
// not modify a payload until the next Commit, Sync, Compact or Close
// returns.
func (l *Log) Append(kind Kind, payload []byte) error {
	if l.err != nil {
		return l.err
	}
	if len(payload) > MaxPayload {
		return fmt.Errorf("wal: record kind 0x%x payload %d bytes exceeds limit %d", kind, len(payload), MaxPayload)
	}
	var hdr [5]byte
	hdr[0] = byte(kind)
	binary.LittleEndian.PutUint32(hdr[1:], uint32(len(payload)))
	crc := crc32.Checksum(hdr[:], castagnoli)
	crc = crc32.Update(crc, castagnoli, payload)
	var tail [4]byte
	binary.LittleEndian.PutUint32(tail[:], crc)
	l.w.write(hdr[:])
	l.w.write(payload)
	l.w.write(tail[:])
	l.size += int64(frameOverhead + len(payload))
	if m := l.met; m != nil {
		m.appends.Inc()
		m.appendedBytes.Add(int64(frameOverhead + len(payload)))
	}
	return nil
}

// Commit flushes buffered records to the OS; under SyncAlways it also
// fsyncs. One Commit per logical publish keeps the valid prefix aligned
// with committed versions.
func (l *Log) Commit() error {
	if l.err != nil {
		return l.err
	}
	if err := l.w.flush(); err != nil {
		l.err = fmt.Errorf("wal: flush %s: %w", l.path, err)
		return l.err
	}
	if l.policy == SyncAlways {
		if err := l.f.Sync(); err != nil {
			l.err = fmt.Errorf("wal: sync %s: %w", l.path, err)
			return l.err
		}
		if m := l.met; m != nil {
			m.fsyncs.Inc()
		}
	}
	if m := l.met; m != nil {
		m.commits.Inc()
	}
	return nil
}

// Sync flushes and fsyncs regardless of policy (checkpoints, Close).
func (l *Log) Sync() error {
	if l.err != nil {
		return l.err
	}
	if err := l.w.flush(); err != nil {
		l.err = fmt.Errorf("wal: flush %s: %w", l.path, err)
		return l.err
	}
	if err := l.f.Sync(); err != nil {
		l.err = fmt.Errorf("wal: sync %s: %w", l.path, err)
		return l.err
	}
	if m := l.met; m != nil {
		m.fsyncs.Inc()
	}
	return nil
}

// Size returns the log's current size in bytes (including buffered
// appends).
func (l *Log) Size() int64 { return l.size }

// Err returns the sticky write error, if any.
func (l *Log) Err() error { return l.err }

// Close flushes, fsyncs and closes the handle. The log can be reopened
// with Open.
func (l *Log) Close() error {
	if l.f == nil {
		return l.err
	}
	syncErr := l.Sync()
	closeErr := l.f.Close()
	l.f = nil
	if syncErr != nil {
		return syncErr
	}
	if closeErr != nil {
		return fmt.Errorf("wal: close %s: %w", l.path, closeErr)
	}
	return nil
}

// Compact atomically replaces the log's contents with the given records:
// they are written to a temporary file in the same directory, fsynced,
// and renamed over the log, after which the handle continues appending
// to the new file. Readers of the old file are unaffected (rename
// semantics); a crash at any point leaves either the old or the new log
// fully intact. Compact keeps no payload once it returns, but large ones
// are written from where they lie, so they must hold still until then.
func (l *Log) Compact(recs []Data) error {
	if l.err != nil {
		return l.err
	}
	if err := l.w.flush(); err != nil {
		l.err = fmt.Errorf("wal: flush %s: %w", l.path, err)
		return l.err
	}
	tmpPath := l.path + ".compact"
	tmp, err := os.OpenFile(tmpPath, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("wal: compact %s: %w", l.path, err)
	}
	nl := &Log{path: tmpPath, f: tmp, w: &bufWriter{f: tmp}, policy: l.policy, size: int64(headerSize)}
	cleanup := func(err error) error {
		tmp.Close()
		os.Remove(tmpPath)
		return err
	}
	if _, err := tmp.Write(header()); err != nil {
		return cleanup(fmt.Errorf("wal: compact %s: write header: %w", l.path, err))
	}
	for _, r := range recs {
		if err := nl.Append(r.Kind, r.Payload); err != nil {
			return cleanup(err)
		}
	}
	if err := nl.w.flush(); err != nil {
		return cleanup(fmt.Errorf("wal: compact %s: flush: %w", l.path, err))
	}
	if err := tmp.Sync(); err != nil {
		return cleanup(fmt.Errorf("wal: compact %s: sync: %w", l.path, err))
	}
	if err := tmp.Close(); err != nil {
		return cleanup(fmt.Errorf("wal: compact %s: close: %w", l.path, err))
	}
	if err := os.Rename(tmpPath, l.path); err != nil {
		os.Remove(tmpPath)
		return fmt.Errorf("wal: compact %s: rename: %w", l.path, err)
	}
	// Durability of the rename itself: fsync the directory entry. The
	// rename already happened, so a failure here poisons the handle like
	// any other failed sync.
	dir, err := os.Open(filepath.Dir(l.path))
	if err == nil {
		err = dir.Sync()
		dir.Close()
	}
	if err != nil {
		l.err = fmt.Errorf("wal: compact %s: sync directory: %w", l.path, err)
		return l.err
	}
	f, err := os.OpenFile(l.path, os.O_RDWR, 0o644)
	if err != nil {
		l.err = fmt.Errorf("wal: reopen after compact %s: %w", l.path, err)
		return l.err
	}
	if _, err := f.Seek(0, io.SeekEnd); err != nil {
		f.Close()
		l.err = fmt.Errorf("wal: seek after compact %s: %w", l.path, err)
		return l.err
	}
	l.f.Close()
	l.f = f
	l.w = &bufWriter{f: f}
	l.size = nl.size
	if m := l.met; m != nil {
		m.compactions.Inc()
		m.fsyncs.Inc() // the tmp-file sync that made the new image durable
	}
	return nil
}
