package core

import (
	"bytes"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/dataset"
	"repro/internal/er"
	"repro/internal/extract"
	"repro/internal/feedback"
	"repro/internal/fusion"
	"repro/internal/obs"
	"repro/internal/provenance"
	"repro/internal/report"
	"repro/internal/serve"
	"repro/internal/wal"
)

// This file is the durable session layer: the bridge between the wrangler's
// working data and the generic append log in internal/wal. Every committed
// publication appends the feedback items and source states that changed
// since the last publish, the provenance derivations since the last
// recorded step, the version's shard pages and one version record
// referencing them. Every publish follows a tail, and every tail fuses
// fresh pages, so each page is written once, under a fresh id, whole: a
// record the merge adopted from the predecessor is written again.
// Because the wrangler only publishes after a fully successful run or
// reaction, the log tail is always a coherent committed snapshot: reopening
// it restores the session exactly as of its last publish (uncommitted
// working-set mutations are the only loss, by design).
//
// Compaction is bounded by the serve store's retention window: once 2×retain
// versions accumulate since the last checkpoint, the log is rewritten to
// config + full feedback/provenance/source state + the pages still referenced
// by retained versions + the retained version records + a checkpoint marker.
//
// Each record kind's payload layout is one code function over wal.Codec
// (see "record layouts" below); TestParentWrittenLogs pins it against logs
// the earlier hand-paired encoders wrote.

// FsyncPolicy says when the durable log calls fsync; see wal.SyncPolicy.
type FsyncPolicy = wal.SyncPolicy

// The fsync policies, re-exported so facade callers need not import wal.
const (
	// FsyncOnCheckpoint fsyncs at checkpoints, compactions and close —
	// crash-safe against process death, bounded loss on power failure.
	FsyncOnCheckpoint = wal.SyncOnCheckpoint
	// FsyncAlways fsyncs after every published version.
	FsyncAlways = wal.SyncAlways
)

// logFileName is the log's file name inside the state directory.
const logFileName = "wrangle.wal"

// DurableStats reports the durable log's state for health endpoints.
type DurableStats struct {
	Dir               string
	Bytes             int64
	LastCheckpointSeq uint64
	RetainedVersions  int
}

// sourceSig is what appendVersion compares to detect a changed source
// state without deep comparison: computeSource installs a fresh pointer,
// and selection mutates selected/utility in place on the shared state.
type sourceSig struct {
	st       *sourceState
	selected bool
	utility  float64
}

// retainedVersion is one version inside the compaction ring: its encoded
// record (reused verbatim by Compact) and the page ids it references —
// for a version read back from the log, those of its body, which decodes
// when compaction first asks.
type retainedVersion struct {
	seq      uint64
	payload  []byte
	pageIDs  []uint64
	replayed *replayedVersion
}

// loggedPage is one page record. A page read back from the log keeps its
// payload — aliasing the replay buffer, and written back verbatim by
// compaction — and decodes on first use (loadPage), once, on whichever
// goroutine asks first: the restore, or a reader loading an older
// retained version. A page this session built carries its page instead.
type loggedPage struct {
	payload []byte
	offset  int64 // the replayed record's file offset, for decode errors
	once    sync.Once
	page    *shardPage
	err     error
}

// replayedVersion is one version record read back from the log. Open
// decodes only its header (codeVersionHeader); the body decodes on first
// use (body), once: at attach for the newest version, from a reader's
// Load for an older retained one, at compaction for its page ids.
type replayedVersion struct {
	lv     *loggedVersion // the header from open; whole once the body decoded
	bodyAt int            // where the body starts in lv.payload
	offset int64          // the record's file offset, for decode errors
	once   sync.Once
	err    error
}

// DurableLog is an open durable session log. It is driven entirely by the
// owning wrangler (under the session lock); it is not safe for concurrent
// use on its own. The one exception is the lazy decode of replayed
// records, which readers of older restored versions run on their own
// goroutines: it touches only the records it decodes, each behind its
// own sync.Once, and the decode counters.
type DurableLog struct {
	dir string
	log *wal.Log
	rep *replayedLog // replayed state, consumed by AttachDurableLog

	configPayload []byte
	schema        dataset.Schema

	pagesByID  map[uint64]*loggedPage
	nextPageID uint64

	// decoded counts the page and version bodies decoded since open.
	decoded struct{ pages, versions atomic.Int64 }

	lastProvStep    uint64
	lastFeedbackSeq int
	srcSig          map[string]sourceSig

	// pageSize and versionSize are the lengths of the last page and
	// version record encoded, which presize the next one's buffer.
	pageSize, versionSize int

	retained       []retainedVersion
	retain         int
	sinceCompact   int
	lastCheckpoint uint64

	// replayTruncated records whether Open healed a torn tail — surfaced
	// as wrangle_wal_replay_truncations_total when telemetry attaches.
	replayTruncated bool
}

// replayedLog is everything OpenDurableLog recovered, pending attachment.
type replayedLog struct {
	feedback []feedback.Item
	prov     []provenance.Record
	states   map[string]*sourceState
	versions []*replayedVersion
}

// loggedVersion is one version record: built from a publish by
// versionRecord, or decoded on replay.
type loggedVersion struct {
	seq      uint64
	step     uint64
	origin   serve.Origin
	at       time.Time
	changes  serve.ChangeSet
	trust    map[string]float64
	sources  map[string]SourceReport
	selected []string
	rep      *report.Report
	stats    RunStats
	react    ReactStats

	// Output payload: mode 1 references shard pages in shard order; mode 0
	// (empty tails, and every version of logs written when unsharded
	// sessions ran a separate sequential tail) carries table, results and
	// entities inline.
	pages    []uint64
	table    *dataset.Table
	results  []fusion.Result
	entities []string

	// Working tail needed to resume incrementally.
	clusters  *er.Clustering
	lastSeq   int
	dirty     []string
	memoValid bool

	payload []byte // the encoded record, for the compaction ring
}

// --- record layouts -------------------------------------------------------
//
// Each record kind's byte layout is stated once, by one code function over
// wal.Codec that both encodes (append, compaction) and decodes (replay).
// The layout is frozen: every log written since the durable layer landed
// must still attach. Decoded values keep the nil-versus-empty shape the
// restore path has always seen — an empty slice or map decodes nil unless
// its code function starts it from an empty one.

// configRecord fingerprints the session shape the log was written under.
// Attach refuses a log whose config differs: the byte format of pages and
// versions (schema width) and the restore semantics (shards, retention)
// all hang off it.
type configRecord struct {
	target          dataset.Schema
	keyColumn       string
	nameColumn      string
	secondaryColumn string
	numericColumn   string
	timeColumn      string
	shards          int
	retain          int
}

func newConfigRecord(w *Wrangler, retain int) *configRecord {
	return &configRecord{
		target:          w.Config.Target,
		keyColumn:       w.Config.KeyColumn,
		nameColumn:      w.Config.NameColumn,
		secondaryColumn: w.Config.SecondaryColumn,
		numericColumn:   w.Config.NumericColumn,
		timeColumn:      w.Config.TimeColumn,
		shards:          w.IntegrationShards,
		retain:          retain,
	}
}

func codeConfig(c *wal.Codec, r *configRecord) {
	c.Schema(&r.target)
	c.String(&r.keyColumn)
	c.String(&r.nameColumn)
	c.String(&r.secondaryColumn)
	c.String(&r.numericColumn)
	c.String(&r.timeColumn)
	c.Int(&r.shards)
	// Was the StreamingRefresh knob; sharded sessions now always stream,
	// and every log a sharded session wrote carried true here. Read and
	// dropped.
	streaming := r.shards > 0
	c.Bool(&streaming)
	c.Int(&r.retain)
}

// sourceRecord is one source's committed working state; a nil state is a
// tombstone (the source vanished from the session). The raw extraction
// and the mapping object are not persisted: nothing reads them after
// install — reactions re-derive both when they re-process the source.
type sourceRecord struct {
	id string
	st *sourceState
}

func codeSource(c *wal.Codec, r *sourceRecord) {
	c.String(&r.id)
	deleted := r.st == nil
	c.Bool(&deleted)
	if deleted {
		return
	}
	if c.Decoding() {
		r.st = &sourceState{}
	}
	st := r.st
	wal.Opt(c, &st.wrapper, codeWrapper)
	mapped := st.mapped != nil
	c.Bool(&mapped)
	if mapped {
		c.Table(&st.mapped)
	}
	c.F64(&st.quality.Accuracy)
	c.F64(&st.quality.Completeness)
	c.F64(&st.quality.Coverage)
	c.Int(&st.quality.Rows)
	c.F64(&st.scorecard.Completeness)
	c.F64(&st.scorecard.Accuracy)
	c.F64(&st.scorecard.Timeliness)
	c.F64(&st.scorecard.Consistency)
	c.Int(&st.scorecard.Rows)
	c.Bool(&st.selected)
	c.F64(&st.utility)
}

func codeWrapper(c *wal.Codec, wr *extract.Wrapper) {
	c.String(&wr.SourceID)
	c.String(&wr.RecordSelector)
	wal.Slice(c, &wr.Fields, 4, func(c *wal.Codec, f *extract.FieldRule) {
		c.String(&f.Selector)
		c.String(&f.Property)
		c.String(&f.Header)
		c.Int(&f.Index)
	})
	c.F64(&wr.Confidence)
}

func codeFeedback(c *wal.Codec, it *feedback.Item) {
	c.Int(&it.Seq)
	c.String((*string)(&it.Kind))
	c.String(&it.SourceID)
	c.String(&it.Entity)
	c.String(&it.Attribute)
	c.String(&it.PairKey)
	c.String(&it.Worker)
	c.F64(&it.Cost)
	c.F64(&it.Weight)
}

// codeProv codes a batch of provenance derivations (non-nil when decoded,
// even empty).
func codeProv(c *wal.Codec, recs *[]provenance.Record) {
	if c.Decoding() {
		*recs = []provenance.Record{}
	}
	wal.Slice(c, recs, 6, func(c *wal.Codec, r *provenance.Record) {
		codeRef(c, &r.Artefact)
		c.String(&r.Component)
		wal.Slice(c, &r.Inputs, 2, codeRef)
		c.Uvarint(&r.Step)
		c.String(&r.Note)
	})
}

func codeRef(c *wal.Codec, r *provenance.Ref) {
	c.String((*string)(&r.Kind))
	c.String(&r.ID)
}

func codeResults(c *wal.Codec, rs *[]fusion.Result) {
	wal.Slice(c, rs, 6, func(c *wal.Codec, r *fusion.Result) {
		c.String(&r.Entity)
		c.String(&r.Attribute)
		c.Value(&r.Value)
		c.F64(&r.Confidence)
		c.Int(&r.Support)
		c.Bool(&r.Conflict)
	})
}

// pageRecord is one fused shard page, written whole when the version
// whose tail fused it is appended, and written back by compaction while a
// retained version references it.
type pageRecord struct {
	id   uint64
	page *shardPage
}

// codePage returns the page layout for a session whose target schema is
// width columns wide (rows carry no width of their own).
func codePage(width int) func(*wal.Codec, *pageRecord) {
	return func(c *wal.Codec, r *pageRecord) {
		codePageID(c, &r.id)
		if c.Decoding() {
			r.page = &shardPage{}
		}
		p := r.page
		n := len(p.entities)
		c.Len(&n, 1+width)
		if c.Decoding() && n > 0 {
			p.entities, p.rows = make([]string, n), make([]dataset.Record, n)
		}
		for i := 0; i < n && c.Err() == nil; i++ {
			c.String(&p.entities[i])
			c.Record(&p.rows[i], width)
		}
		codeResults(c, &p.results)
	}
}

// codePageID is a page record's head, its id: all that replay reads of a
// page at open.
func codePageID(c *wal.Codec, id *uint64) { c.Uvarint(id) }

// checkpointRecord marks the log consistent through seq.
type checkpointRecord struct {
	seq uint64
	at  time.Time
}

func codeCheckpoint(c *wal.Codec, r *checkpointRecord) {
	c.U64(&r.seq)
	c.Time(&r.at)
}

// versionRecord gathers one published version for the log: its store
// metadata, the full Published payload (pages by reference when a tail
// built them, inline otherwise), and the working tail a
// restart needs to resume incrementally — clusters, feedback watermark,
// dirty-source scope and whether a tail memo stood behind the version.
func versionRecord(w *Wrangler, v *PublishedVersion, pids []uint64) *loggedVersion {
	pub := v.Data()
	lv := &loggedVersion{
		seq:       v.Seq(),
		step:      v.Step(),
		origin:    v.Origin(),
		at:        v.At(),
		changes:   v.Changes(),
		trust:     pub.Trust,
		sources:   pub.Sources,
		selected:  pub.Selected,
		rep:       pub.Report,
		stats:     pub.Stats,
		react:     pub.React,
		pages:     pids,
		clusters:  w.clusters,
		lastSeq:   w.lastSeq,
		dirty:     slices.Sorted(maps.Keys(w.dirtySources)),
		memoValid: w.memo != nil,
	}
	if pids == nil {
		lv.table, lv.results, lv.entities = pub.Table, w.results, pub.Entities
	}
	return lv
}

// codeVersion is a version record's layout: its header, then its body.
func codeVersion(c *wal.Codec, lv *loggedVersion) {
	codeVersionHeader(c, lv)
	codeVersionBody(c, lv)
}

// codeVersionHeader is what the store needs of a version before its
// payload: seq, step, origin, commit time and change set. Replay decodes
// only this at open.
func codeVersionHeader(c *wal.Codec, lv *loggedVersion) {
	c.U64(&lv.seq)
	c.U64(&lv.step)
	c.String((*string)(&lv.origin))
	c.Time(&lv.at)
	codeChangeSet(c, &lv.changes)
}

// codeVersionBody is the rest: the published payload and the working tail.
func codeVersionBody(c *wal.Codec, lv *loggedVersion) {
	if c.Decoding() {
		lv.trust, lv.sources = map[string]float64{}, map[string]SourceReport{}
	}
	wal.Map(c, &lv.trust, 9, (*wal.Codec).String, (*wal.Codec).F64)
	wal.Map(c, &lv.sources, 2, (*wal.Codec).String, func(c *wal.Codec, sr *SourceReport) {
		c.Bool(&sr.Selected)
		c.F64(&sr.Utility)
		c.Int(&sr.Rows)
		c.F64(&sr.Completeness)
		c.F64(&sr.Accuracy)
		c.F64(&sr.Timeliness)
		c.F64(&sr.Coverage)
	})
	c.Strings(&lv.selected)

	// The report is persisted inline: its supporter lists derive from this
	// version's union-time fusion bookkeeping, which is not reconstructible
	// for older retained versions. The table goes by page reference.
	wal.Opt(c, &lv.rep, func(c *wal.Codec, rep *report.Report) {
		c.String(&rep.Title)
		wal.Slice(c, &rep.Lines, 12, func(c *wal.Codec, ln *report.Line) {
			c.String(&ln.Entity)
			c.String(&ln.Attribute)
			c.String(&ln.Value)
			c.F64(&ln.Confidence)
			c.Bool(&ln.Conflict)
			c.Strings(&ln.Supporters)
		})
	})

	st := &lv.stats
	c.Int(&st.SourcesProcessed)
	c.Int(&st.SourcesSelected)
	c.Int(&st.RowsExtracted)
	c.Int(&st.RowsWrangled)
	c.Strings(&st.Reextracted)
	c.Int(&st.WrapperRepairs)
	wal.Map(c, &st.Failures, 2, (*wal.Codec).String, (*wal.Codec).String)
	c.Duration(&st.Duration)
	codeStages(c, &st.Stages)

	rs := &lv.react
	c.Int(&rs.FeedbackItems)
	c.Int(&rs.SourcesReextracted)
	c.Int(&rs.Remapped)
	c.Bool(&rs.Reclustered)
	c.Bool(&rs.Refused)
	c.Int(&rs.ShardsResolved)
	c.Int(&rs.ShardsReused)
	c.Duration(&rs.Duration)
	codeStages(c, &rs.Stages)

	// Output payload: mode 1 references shard pages in shard order; mode 0
	// (empty tails, and older logs' unsharded sessions) carries table,
	// results and entities inline. The mode, not nil-ness, says which: a
	// mode-1 version with no pages still decodes a non-nil page list.
	var mode uint8
	if lv.pages != nil {
		mode = 1
	}
	c.U8(&mode)
	switch mode {
	case 1:
		if c.Decoding() {
			lv.pages = []uint64{}
		}
		wal.Slice(c, &lv.pages, 1, (*wal.Codec).Uvarint)
	case 0:
		c.Table(&lv.table)
		codeResults(c, &lv.results)
		c.Strings(&lv.entities)
	default:
		c.Failf("invalid version payload mode 0x%x", mode)
	}

	wal.Opt(c, &lv.clusters, func(c *wal.Codec, cl *er.Clustering) {
		c.Int(&cl.Num)
		if c.Decoding() {
			cl.Assign = []int{}
		}
		wal.Slice(c, &cl.Assign, 1, (*wal.Codec).Int)
	})
	c.Int(&lv.lastSeq)
	c.Strings(&lv.dirty)
	c.Bool(&lv.memoValid)
	if lv.memoValid {
		// Reserved: five fields (policy, default trust, tolerance, clock,
		// half-life) that held a fuse signature nothing reads any more.
		// Written as zeros so the layout stays the one older logs carry;
		// read past whatever they hold.
		var policy int64
		var defaultTrust, tolerance float64
		var now time.Time
		var halfLife time.Duration
		c.Varint(&policy)
		c.F64(&defaultTrust)
		c.F64(&tolerance)
		c.Time(&now)
		c.Duration(&halfLife)
	}
}

func codeChangeSet(c *wal.Codec, cs *serve.ChangeSet) {
	c.Bool(&cs.Full)
	wal.Slice(c, &cs.ChangedShards, 1, (*wal.Codec).Int)
	c.Int(&cs.ChangedPages)
	c.Int(&cs.SharedPages)
	c.Strings(&cs.ChangedRecords)
	c.Strings(&cs.RemovedRecords)
}

func codeStages(c *wal.Codec, m *map[string]time.Duration) {
	wal.Map(c, m, 2, (*wal.Codec).String, (*wal.Codec).Duration)
}

// --- open / replay --------------------------------------------------------

// OpenDurableLog opens (or creates) the durable log in dir and replays it.
// The result carries the replayed state until a wrangler attaches it; a
// torn tail is healed by the wal layer. Config, source, feedback,
// provenance and checkpoint records decode in full; of a page only its id
// and of a version only its header decode here — their bodies keep their
// bytes and decode on first use. Any record that fails decoding fails the
// call that decodes it (the open, for everything open reads) with the
// record's file offset.
func OpenDurableLog(dir string, policy FsyncPolicy) (*DurableLog, error) {
	if dir == "" {
		return nil, fmt.Errorf("core: durable log needs a directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("core: durable log: %w", err)
	}
	log, rr, err := wal.Open(filepath.Join(dir, logFileName), policy)
	if err != nil {
		return nil, err
	}
	d := &DurableLog{
		dir:             dir,
		log:             log,
		pagesByID:       map[uint64]*loggedPage{},
		nextPageID:      1,
		srcSig:          map[string]sourceSig{},
		rep:             &replayedLog{states: map[string]*sourceState{}},
		replayTruncated: rr.Truncated,
	}
	fail := func(rec wal.Record, err error) (*DurableLog, error) {
		log.Close()
		return nil, recordError(rec.Kind, rec.Offset, err)
	}
	haveConfig := false
	for _, rec := range rr.Records {
		if !haveConfig && rec.Kind != wal.KindConfig {
			return fail(rec, fmt.Errorf("expected config as first record"))
		}
		switch rec.Kind {
		case wal.KindConfig:
			if haveConfig {
				return fail(rec, fmt.Errorf("duplicate config record"))
			}
			var cfg configRecord
			if err := wal.Decode(rec.Payload, &cfg, codeConfig); err != nil {
				return fail(rec, err)
			}
			d.configPayload = append([]byte(nil), rec.Payload...)
			d.schema = cfg.target
			haveConfig = true
		case wal.KindSource:
			var sr sourceRecord
			if err := wal.Decode(rec.Payload, &sr, codeSource); err != nil {
				return fail(rec, err)
			}
			if sr.st == nil {
				delete(d.rep.states, sr.id)
			} else {
				d.rep.states[sr.id] = sr.st
			}
		case wal.KindFeedback:
			var it feedback.Item
			if err := wal.Decode(rec.Payload, &it, codeFeedback); err != nil {
				return fail(rec, err)
			}
			if it.Seq != len(d.rep.feedback)+1 {
				return fail(rec, fmt.Errorf("feedback seq %d out of order (want %d)", it.Seq, len(d.rep.feedback)+1))
			}
			d.rep.feedback = append(d.rep.feedback, it)
			d.lastFeedbackSeq = it.Seq
		case wal.KindProv:
			var recs []provenance.Record
			if err := wal.Decode(rec.Payload, &recs, codeProv); err != nil {
				return fail(rec, err)
			}
			d.rep.prov = append(d.rep.prov, recs...)
			for _, r := range recs {
				if r.Step > d.lastProvStep {
					d.lastProvStep = r.Step
				}
			}
		case wal.KindPage:
			var id uint64
			if _, err := wal.DecodePrefix(rec.Payload, &id, codePageID); err != nil {
				return fail(rec, err)
			}
			if _, dup := d.pagesByID[id]; dup {
				return fail(rec, fmt.Errorf("duplicate page id %d", id))
			}
			d.pagesByID[id] = &loggedPage{payload: rec.Payload, offset: rec.Offset}
			if id >= d.nextPageID {
				d.nextPageID = id + 1
			}
		case wal.KindVersion:
			rv := &replayedVersion{lv: &loggedVersion{payload: rec.Payload}, offset: rec.Offset}
			n, err := wal.DecodePrefix(rec.Payload, rv.lv, codeVersionHeader)
			if err != nil {
				return fail(rec, err)
			}
			rv.bodyAt = n
			if n := len(d.rep.versions); n > 0 && rv.lv.seq <= d.rep.versions[n-1].lv.seq {
				return fail(rec, fmt.Errorf("version seq %d out of order after %d", rv.lv.seq, d.rep.versions[n-1].lv.seq))
			}
			d.rep.versions = append(d.rep.versions, rv)
			d.sinceCompact++
		case wal.KindCheckpoint:
			var ck checkpointRecord
			if err := wal.Decode(rec.Payload, &ck, codeCheckpoint); err != nil {
				return fail(rec, err)
			}
			d.lastCheckpoint = ck.seq
			d.sinceCompact = 0
		default:
			return fail(rec, fmt.Errorf("unknown record kind"))
		}
	}
	return d, nil
}

func recordError(kind wal.Kind, offset int64, err error) error {
	return fmt.Errorf("core: durable log: record kind 0x%x at offset 0x%x: %w", uint8(kind), offset, err)
}

// body returns a replayed version whole, decoding its body on first use.
func (d *DurableLog) body(rv *replayedVersion) (*loggedVersion, error) {
	rv.once.Do(func() {
		if err := wal.DecodeAt(rv.lv.payload, rv.bodyAt, rv.lv, codeVersionBody); err != nil {
			rv.err = recordError(wal.KindVersion, rv.offset, err)
			return
		}
		d.decoded.versions.Add(1)
	})
	return rv.lv, rv.err
}

// loadPage returns a replayed page, decoding it on first use.
func (d *DurableLog) loadPage(lp *loggedPage) (*shardPage, error) {
	lp.once.Do(func() {
		var pr pageRecord
		if err := wal.Decode(lp.payload, &pr, codePage(len(d.schema))); err != nil {
			lp.err = recordError(wal.KindPage, lp.offset, err)
			return
		}
		lp.page = pr.page
		d.decoded.pages.Add(1)
	})
	return lp.page, lp.err
}

// instrument wires the underlying WAL's activity counters onto reg and
// records whether this log's open had to heal a torn tail.
func (d *DurableLog) instrument(reg *obs.Registry) {
	d.log.Instrument(reg)
	reg.Help(mReplayTrunc, "Torn WAL tails healed by replay at open.")
	c := reg.Counter(mReplayTrunc)
	if d.replayTruncated {
		c.Inc()
	}
}

// Err returns the log's sticky write error, if any.
func (d *DurableLog) Err() error { return d.log.Err() }

// Stats reports the log's durability state.
func (d *DurableLog) Stats() DurableStats {
	return DurableStats{
		Dir:               d.dir,
		Bytes:             d.log.Size(),
		LastCheckpointSeq: d.lastCheckpoint,
		RetainedVersions:  len(d.retained),
	}
}

// Close flushes and closes the underlying log file.
func (d *DurableLog) Close() error { return d.log.Close() }

// --- attach / restore -----------------------------------------------------

// AttachDurableLog wires the log into the wrangler: a fresh log records the
// session config; an existing one restores the session as of its last
// publish. It must be called on a freshly constructed wrangler (before
// any run). restored reports whether the log held committed versions —
// when true, the caller can serve immediately without a run.
//
// A restore does up front only what the first read needs. Feedback, source
// states and provenance install, and the newest retained version decodes
// — body and pages — and becomes the store's latest. Every older retained
// version enters the store unloaded and decodes on its first At or Watch
// catch-up. The working data and the tail memo are rebuilt by resume
// (restoreWorkingState) when the first reaction or accessor needs them;
// a rebuild that fails there fails that call and every later one, while
// the restored versions keep serving.
func (w *Wrangler) AttachDurableLog(d *DurableLog) (restored bool, err error) {
	if d == nil || d.log == nil {
		return false, fmt.Errorf("core: attach: nil durable log")
	}
	if w.log != nil {
		return false, fmt.Errorf("core: attach: wrangler already has a durable log")
	}
	if d.rep == nil {
		return false, fmt.Errorf("core: attach: durable log already attached")
	}
	if w.Serve == nil || w.Serve.Latest() != nil {
		return false, fmt.Errorf("core: attach requires a fresh serve store")
	}
	d.retain = w.Serve.Retain()
	cfg := wal.Encode(newConfigRecord(w, d.retain), codeConfig)
	if d.configPayload == nil {
		if err := d.log.Append(wal.KindConfig, cfg); err != nil {
			return false, err
		}
		if err := d.log.Commit(); err != nil {
			return false, err
		}
		d.configPayload = cfg
	} else if !bytes.Equal(d.configPayload, cfg) {
		return false, fmt.Errorf("core: attach: durable log %s was written under a different session configuration (schema/shards/retention)", d.dir)
	}
	d.schema = w.Config.Target
	rep := d.rep
	d.rep = nil

	// Feedback replays through the store so derived state (spent budget,
	// sequence) rebuilds exactly; the store re-assigns the same seqs
	// because items were logged in order.
	for _, it := range rep.feedback {
		got := w.Feedback.Add(it)
		if got.Seq != it.Seq {
			return false, fmt.Errorf("core: attach: feedback replay drift (seq %d became %d)", it.Seq, got.Seq)
		}
	}
	for id, st := range rep.states {
		w.states[id] = st
		d.srcSig[id] = sourceSig{st: st, selected: st.selected, utility: st.utility}
	}
	var floor uint64
	if n := len(rep.versions); n > 0 {
		floor = rep.versions[n-1].lv.step
	}
	w.Prov.Apply(rep.prov, floor)

	if len(rep.versions) == 0 {
		w.log = d
		return false, nil
	}

	versions := rep.versions
	if len(versions) > d.retain {
		versions = versions[len(versions)-d.retain:]
	}
	// Older versions load through the replayed page table on readers'
	// goroutines, so the session stops writing to it and keeps a copy.
	replayed := d.pagesByID
	d.pagesByID = maps.Clone(replayed)
	newest := versions[len(versions)-1]
	pub, pages, err := d.published(newest, replayed)
	if err != nil {
		return false, err
	}
	restoredVersions := make([]serve.RestoredVersion[Published], len(versions))
	for i, rv := range versions {
		lv := rv.lv
		restoredVersions[i] = serve.RestoredVersion[Published]{Seq: lv.seq, Step: lv.step, Origin: lv.origin, At: lv.at, Changes: lv.changes}
		if rv == newest {
			restoredVersions[i].Data = pub
		} else {
			restoredVersions[i].Load = func() (Published, error) {
				pub, _, err := d.published(rv, replayed)
				return pub, err
			}
		}
	}
	if err := w.Serve.Restore(restoredVersions); err != nil {
		return false, err
	}
	for _, rv := range versions {
		d.retained = append(d.retained, retainedVersion{seq: rv.lv.seq, payload: rv.lv.payload, replayed: rv})
	}
	w.LastStats = newest.lv.stats
	w.restore = &pendingRestore{lv: newest.lv, pages: pages}
	w.log = d
	return true, nil
}

// pendingRestore is the restored version whose working state resume has
// yet to rebuild, with its decoded pages.
type pendingRestore struct {
	lv    *loggedVersion
	pages []*shardPage
}

// resume rebuilds the working state a restore deferred, the first time
// anything needs it: every reaction and every exported accessor of working
// state calls it first. It reports how long the rebuild it ran took (zero
// when there was none to run). A failed rebuild is sticky — this call and
// every later one return its error — and leaves the store serving the
// restored versions.
func (w *Wrangler) resume() (time.Duration, error) {
	r := w.restore
	if r == nil {
		return 0, w.restoreErr
	}
	w.restore = nil
	start := time.Now()
	w.restoreErr = w.restoreWorkingState(r.lv, r.pages)
	return time.Since(start), w.restoreErr
}

// recordRestore names the rebuild a run or reaction paid for in resume as
// its "restore" stage: inside its Duration, outside the "integrate"
// roll-up.
func recordRestore(stages map[string]time.Duration, took time.Duration) {
	if took > 0 {
		stages["restore"] = took
	}
}

// published rebuilds a replayed version's Published payload, decoding its
// body and pages on first use, and returns the pages with it. A mode-1
// version rebuilds table and entities from its shard pages. A page decodes
// once, so versions that reference one page id (logs written while a tail
// could reuse a whole page) share its decoded records by pointer.
func (d *DurableLog) published(rv *replayedVersion, table map[uint64]*loggedPage) (Published, []*shardPage, error) {
	lv, err := d.body(rv)
	if err != nil {
		return Published{}, nil, err
	}
	pub := Published{
		Table:    lv.table,
		Report:   lv.rep,
		Stats:    lv.stats,
		React:    lv.react,
		Trust:    lv.trust,
		Sources:  lv.sources,
		Selected: lv.selected,
		Entities: lv.entities,
	}
	if lv.pages == nil {
		return pub, nil, nil
	}
	pages := make([]*shardPage, len(lv.pages))
	for i, pid := range lv.pages {
		lp, ok := table[pid]
		if !ok {
			return Published{}, nil, fmt.Errorf("core: version %d references missing page %d", lv.seq, pid)
		}
		if pages[i], err = d.loadPage(lp); err != nil {
			return Published{}, nil, err
		}
	}
	pub.Table, pub.Entities = mergePages(pages, d.schema)
	return pub, pages, nil
}

// restoreWorkingState rebuilds the wrangler's in-memory tail from the
// newest retained version and its decoded pages; resume runs it before
// the first reaction or accessor that needs it, never at attach. The
// union and resolver are recomputed deterministically from the restored
// states and feedback (the same code path a live tail runs), the fused
// output is adopted from the version's pages (or inline payload), and —
// when the version committed a coherent tail memo — the memo's inputs are
// reconstructed so the first reaction after restart is a partial tail.
func (w *Wrangler) restoreWorkingState(lv *loggedVersion, pages []*shardPage) error {
	empty, err := w.buildUnion()
	if err != nil {
		return err
	}
	w.trust = maps.Clone(lv.trust)
	w.lastSeq = lv.lastSeq
	if len(lv.dirty) > 0 {
		w.dirtySources = map[string]bool{}
		for _, id := range lv.dirty {
			w.dirtySources[id] = true
		}
	}
	// buildUnion's empty path resets the outputs and stamps a Full change;
	// restore the committed change set either way.
	w.lastChange = lv.changes
	if empty {
		return nil
	}
	w.clusters = lv.clusters

	if lv.pages == nil {
		if lv.table == nil {
			return fmt.Errorf("core: version %d has no output payload", lv.seq)
		}
		w.wrangled = lv.table.Clone()
		w.results = lv.results
		w.rowEntities = append([]string(nil), lv.entities...)
		w.pages = nil
	} else {
		w.pages = pages
		parts := make([][]fusion.Result, len(pages))
		for i, p := range pages {
			parts[i] = p.results
		}
		w.results = fusion.MergeResults(parts...)
		w.wrangled, w.rowEntities = mergePages(pages, w.Config.Target)
	}
	// The results' claim groups are regrouped from the restored clustering
	// on first use (fusedGroups).
	w.groups = nil
	if w.clusters == nil || len(w.clusters.Assign) != w.union.Len() {
		return fmt.Errorf("core: version %d clusters do not cover the restored union (%d rows)", lv.seq, w.union.Len())
	}
	for row, id := range w.clusters.Assign {
		if id < 0 || id >= w.clusters.Num {
			return fmt.Errorf("core: version %d assigns row %d to cluster %d outside [0,%d)", lv.seq, row, id, w.clusters.Num)
		}
	}
	w.nameEntities()

	// Rebuild the tail memo only when the persisted tail is coherent:
	// the memo was valid at publish, the version carries its pages, and no
	// source state diverged from the memoized union afterwards
	// (non-empty dirty means an aborted reaction installed sources between
	// publishes — the rebuilt union would not be the memo's union), and no
	// pair label arrived after the version's reaction consumed its
	// feedback: rebuildMemo takes its constraints from every label in the
	// store, so its plan would already hold the ones the next reaction is
	// to apply, and that reaction would find nothing to re-resolve. A
	// failed rebuild degrades to a full first tail, never an error: outputs
	// stay byte-identical either way.
	pendingPairs := slices.ContainsFunc(w.Feedback.Since(lv.lastSeq), func(it feedback.Item) bool {
		return it.Kind == feedback.DuplicatePair || it.Kind == feedback.NotDuplicatePair
	})
	if lv.memoValid && len(w.pages) > 0 && len(lv.dirty) == 0 && !pendingPairs {
		w.rebuildMemo()
	}
	return nil
}

// rebuildMemo reconstructs the tail memo's inputs from the restored union
// and clusters. The shard plan and the roots slab are deterministic
// functions of what was restored: a row's representative is its
// cluster's first row, read off the cluster ids restoreWorkingState
// validated. The prepared claim groups are not persisted — their absence
// only means the first estimation prepares every group, and its result
// is float-exact either way.
func (w *Wrangler) rebuildMemo() {
	must, cannot := w.pairConstraints()
	rowKeys := w.rowKeys()
	// No previous plan state: a fresh plan over the union buildUnion just
	// prepared.
	rp, err := w.resolver.RePlan(w.union, w.shards(), must, cannot, rowKeys, nil, nil)
	if err != nil {
		return
	}
	first := make([]int32, w.clusters.Num) // by cluster id: its first row, -1 until seen
	for i := range first {
		first[i] = -1
	}
	roots := make([]int32, len(w.clusters.Assign))
	for row, id := range w.clusters.Assign {
		if first[id] < 0 {
			first[id] = int32(row)
		}
		roots[row] = first[id]
	}
	ps, err := er.BuildPlanState(w.resolver, rp.Plan, rowKeys, roots, must, cannot)
	if err != nil {
		return
	}
	w.memo = w.newTailMemo(ps)
}

// --- append ---------------------------------------------------------------

// appendFeedback logs one accepted feedback item as it arrives, so a crash
// between feedback and the next publish loses no paid-for labels. Errors
// are sticky on the log handle and surface via Err/Checkpoint/Close.
func (d *DurableLog) appendFeedback(it feedback.Item) {
	if it.Seq <= d.lastFeedbackSeq {
		return
	}
	_ = d.log.Append(wal.KindFeedback, wal.Encode(&it, codeFeedback))
	_ = d.log.Commit()
	d.lastFeedbackSeq = it.Seq
}

// appendVersion logs everything one committed publication changed: new
// feedback (catch-up for items added outside the AddFeedback hook), source
// states whose working data moved, the provenance delta, any freshly built
// shard pages, and the version record itself. One Commit flushes the
// batch; compaction triggers once 2×retain versions accumulate.
func (d *DurableLog) appendVersion(w *Wrangler, v *PublishedVersion) {
	start := time.Now()
	for _, it := range w.Feedback.Since(d.lastFeedbackSeq) {
		_ = d.log.Append(wal.KindFeedback, wal.Encode(&it, codeFeedback))
		d.lastFeedbackSeq = it.Seq
	}

	for _, id := range slices.Sorted(maps.Keys(w.states)) {
		st := w.states[id]
		sig, ok := d.srcSig[id]
		if ok && sig.st == st && sig.selected == st.selected && sig.utility == st.utility {
			continue
		}
		_ = d.log.Append(wal.KindSource, wal.Encode(&sourceRecord{id: id, st: st}, codeSource))
		d.srcSig[id] = sourceSig{st: st, selected: st.selected, utility: st.utility}
	}
	for _, id := range slices.Sorted(maps.Keys(d.srcSig)) {
		if _, ok := w.states[id]; !ok {
			_ = d.log.Append(wal.KindSource, wal.Encode(&sourceRecord{id: id}, codeSource))
			delete(d.srcSig, id)
		}
	}

	if recs := w.Prov.RecordsSince(d.lastProvStep); len(recs) > 0 {
		_ = d.log.Append(wal.KindProv, wal.Encode(&recs, codeProv))
	}
	d.lastProvStep = w.Prov.Step()

	var pids []uint64
	if w.pages != nil {
		pids = make([]uint64, len(w.pages))
		for i, p := range w.pages {
			id := d.nextPageID
			d.nextPageID++
			d.pagesByID[id] = &loggedPage{page: p}
			_ = d.log.Append(wal.KindPage, d.encodePage(id, p))
			pids[i] = id
		}
	}
	payload := wal.EncodeSized(presize(d.versionSize), versionRecord(w, v, pids), codeVersion)
	d.versionSize = len(payload)
	_ = d.log.Append(wal.KindVersion, payload)
	_ = d.log.Commit()

	d.retained = append(d.retained, retainedVersion{seq: v.Seq(), payload: payload, pageIDs: pids})
	if len(d.retained) > d.retain {
		d.retained = d.retained[len(d.retained)-d.retain:]
	}
	d.sinceCompact++
	w.observePublishPhase(phaseLog, time.Since(start))
	if d.sinceCompact >= 2*d.retain {
		// A failed compaction leaves the log as it was; sinceCompact stays
		// put, so the next publish retries.
		start = time.Now()
		_ = d.compact(w)
		w.observePublishPhase(phaseCompact, time.Since(start))
	}
}

// encodePage encodes one page record, its buffer presized from the last.
func (d *DurableLog) encodePage(id uint64, p *shardPage) []byte {
	payload := wal.EncodeSized(presize(d.pageSize), &pageRecord{id: id, page: p}, codePage(len(d.schema)))
	d.pageSize = len(payload)
	return payload
}

// presize is the buffer for a record whose predecessor of its kind took
// last bytes: that, with room to grow by a sixteenth.
func presize(last int) int { return last + last/16 }

// compact rewrites the log to its minimal coherent form — config, full
// feedback and provenance, every current source state, the pages still
// referenced by retained versions, the retained version records and a
// checkpoint marker — then prunes the in-memory page index to the live
// set. Replayed records are
// written back as they were read, so only a retained version whose body
// is still undecoded decodes here, for its page ids.
func (d *DurableLog) compact(w *Wrangler) error {
	if len(d.retained) == 0 {
		return nil
	}
	var recs []wal.Data
	recs = append(recs, wal.Data{Kind: wal.KindConfig, Payload: d.configPayload})
	for _, it := range w.Feedback.Items("") {
		recs = append(recs, wal.Data{Kind: wal.KindFeedback, Payload: wal.Encode(&it, codeFeedback)})
	}
	if prov := w.Prov.RecordsSince(0); len(prov) > 0 {
		recs = append(recs, wal.Data{Kind: wal.KindProv, Payload: wal.Encode(&prov, codeProv)})
	}
	for _, id := range slices.Sorted(maps.Keys(w.states)) {
		recs = append(recs, wal.Data{Kind: wal.KindSource, Payload: wal.Encode(&sourceRecord{id: id, st: w.states[id]}, codeSource)})
	}
	live := map[uint64]bool{}
	for _, rv := range d.retained {
		ids := rv.pageIDs
		if rv.replayed != nil {
			lv, err := d.body(rv.replayed)
			if err != nil {
				return err
			}
			ids = lv.pages
		}
		for _, pid := range ids {
			live[pid] = true
		}
	}
	for _, pid := range slices.Sorted(maps.Keys(live)) {
		lp, ok := d.pagesByID[pid]
		if !ok {
			return fmt.Errorf("core: compact: a retained version references missing page %d", pid)
		}
		payload := lp.payload
		if payload == nil {
			payload = d.encodePage(pid, lp.page)
		}
		recs = append(recs, wal.Data{Kind: wal.KindPage, Payload: payload})
	}
	for _, rv := range d.retained {
		recs = append(recs, wal.Data{Kind: wal.KindVersion, Payload: rv.payload})
	}
	lastSeq := d.retained[len(d.retained)-1].seq
	ck := checkpointRecord{seq: lastSeq, at: time.Now()}
	recs = append(recs, wal.Data{Kind: wal.KindCheckpoint, Payload: wal.Encode(&ck, codeCheckpoint)})

	if err := d.log.Compact(recs); err != nil {
		return err
	}
	d.sinceCompact = 0
	d.lastCheckpoint = lastSeq
	d.lastProvStep = w.Prov.Step()
	if n := w.Feedback.Len(); n > d.lastFeedbackSeq {
		d.lastFeedbackSeq = n
	}
	pagesByID := make(map[uint64]*loggedPage, len(live))
	for pid := range live {
		pagesByID[pid] = d.pagesByID[pid]
	}
	d.pagesByID = pagesByID
	return nil
}

// Durable returns the attached durable log, or nil for in-memory sessions.
func (w *Wrangler) Durable() *DurableLog { return w.log }

// Checkpoint forces a compaction cycle (when any version has been
// published) and fsyncs the log: on return, everything committed so far is
// durable against power loss, and the log is at its minimal size. A
// failed compaction is returned and leaves the log as it was.
func (w *Wrangler) Checkpoint() error {
	if w.log == nil {
		return fmt.Errorf("core: no durable log attached")
	}
	if err := w.log.compact(w); err != nil {
		return err
	}
	if err := w.log.Err(); err != nil {
		return err
	}
	return w.log.log.Sync()
}
