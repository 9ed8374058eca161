package core

import (
	"bytes"
	"cmp"
	"context"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/dataset"
	"repro/internal/engine"
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
// recorded step, and one version record: a patch (mode 2) holding what
// the publication's one diff found moved since its base — changed and
// removed records and results, the supporters of the lines whose
// supporters moved, and the clustering when it moved. The base is the
// version logged before while the patches since the last full version,
// this one included, stay smaller than that full version (so a restore
// decodes at most about two full versions' worth of bytes); a full
// version patches seq 0, the empty version. A reader folds a patch's chain
// into one edit per key and applies it to the full version's output once.
// Older logs' full versions, inline (mode 0) or in page records (mode 1),
// still decode and are never written.
// Because the wrangler only publishes after a fully successful run or
// reaction, the log tail is always a coherent committed snapshot: reopening
// it restores the session exactly as of its last publish (uncommitted
// working-set mutations are the only loss, by design).
//
// Compaction is bounded by the serve store's retention window: once 2×retain
// versions accumulate since the last checkpoint, the log is rewritten to
// config + full feedback/provenance + every committed source state + the
// retained version records, with the chain back to the oldest one's full
// base (and its pages, in an older log) + a checkpoint marker. Page and
// version records go back verbatim: compaction encodes nothing the log
// already holds.
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

// retainedVersion is one version record the log holds: its encoded
// record, which compaction writes back verbatim, and — once known —
// whether it patches a logged version and the page ids an older log's
// full version references. A version this session wrote is known from
// the start; one read back from the log once its body decoded (settle).
type retainedVersion struct {
	seq      uint64
	payload  []byte
	known    bool
	patch    bool
	pageIDs  []uint64
	replayed *replayedVersion
}

// loggedPage is one page record read back from an older log: its payload,
// which aliases the replay buffer and compaction writes back verbatim. It
// decodes on first use (loadPage), once, on whichever goroutine asks
// first: the restore, or a reader loading an older retained version.
type loggedPage struct {
	payload []byte
	offset  int64 // the replayed record's file offset, for decode errors
	once    sync.Once
	page    *shardPage
	err     error
}

// replayedVersion is one version record read back from the log. Open
// decodes only its header (codeVersionHeader); the body decodes on first
// use (body), once: at attach for the newest version's chain, from a
// reader's Load for an older retained one, at compaction for its kind and
// page ids. Its output is built once too (state), from its patch and its
// base, or an older log's pages or inline payload.
type replayedVersion struct {
	lv     *loggedVersion // the header from open; whole once the body decoded
	bodyAt int            // where the body starts in lv.payload
	offset int64          // the record's file offset, for decode errors
	once   sync.Once
	err    error

	stOnce sync.Once
	st     *versionState
	stErr  error

	// weight is the bytes of its record and of the page records right
	// before it: what it cost the log.
	weight int
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

	// replayed is every version record read back from the log, in seq
	// order, and replayedPages an older log's page records by id: where a
	// patch finds its base and a paged version its pages. Both are
	// read-only once open returns, so readers load older versions from them.
	replayed      []*replayedVersion
	replayedPages map[uint64]*loggedPage

	// decoded counts the page and version bodies decoded since open.
	decoded struct{ pages, versions atomic.Int64 }

	lastProvStep    uint64
	lastFeedbackSeq int
	srcSig          map[string]sourceSig

	// patchSize is the length of the last patch on the version before,
	// which presizes the next one's buffer (fullBytes a full version's).
	patchSize int

	// fullBytes is what the last full version cost the log; chainBytes and
	// chain are the bytes and the number of the patches logged since. The
	// next version is a patch while chainBytes, with it, stays below
	// fullBytes.
	fullBytes, chainBytes, chain int

	// versions holds the retained versions' records and, before the
	// oldest, the chain back to its full base.
	versions       []retainedVersion
	retain         int
	sinceCompact   int
	lastCheckpoint uint64

	// replayTruncated records whether Open healed a torn tail — surfaced
	// as wrangle_wal_replay_truncations_total when telemetry attaches.
	replayTruncated bool

	// Telemetry handles, nil (and no-ops) until instrument.
	fullVersions, patchVersions *obs.Counter
	chainGauge                  *obs.Gauge
}

// replayedLog is everything OpenDurableLog recovered, pending attachment.
type replayedLog struct {
	feedback []feedback.Item
	prov     []provenance.Record
	sources  []wal.Record // decoded at attach
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

	// Output payload: mode 2 is a patch, which leaves the report slot
	// empty and the clusters slot too unless they moved. Older logs' full
	// versions reference pages in page order (mode 1) or carry table,
	// results and entities inline (mode 0).
	pages    []uint64
	table    *dataset.Table
	results  []fusion.Result
	entities []string
	patch    *versionPatch

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
	var prev string
	wal.Slice(c, rs, 6, func(c *wal.Codec, r *fusion.Result) {
		c.Repeat(&r.Entity, prev)
		prev = r.Entity
		c.Symbol(&r.Attribute)
		c.Value(&r.Value)
		c.F64(&r.Confidence)
		c.Int(&r.Support)
		c.Bool(&r.Conflict)
	})
}

// codeLines is a full version's report lines.
func codeLines(c *wal.Codec, lines *[]report.Line) {
	var prev string
	wal.Slice(c, lines, 12, func(c *wal.Codec, ln *report.Line) {
		c.Repeat(&ln.Entity, prev)
		prev = ln.Entity
		c.Symbol(&ln.Attribute)
		c.String(&ln.Value)
		c.F64(&ln.Confidence)
		c.Bool(&ln.Conflict)
		c.Symbols(&ln.Supporters)
	})
}

// versionPatch is a mode-2 version's output: what moved since base, the
// version logged before it or 0, the empty version, each list in key
// order, and its report's title. A changed list holds the new and changed
// elements whole; a gone list the keys of the base's elements that have
// none now. The report
// has a line per non-null result, which is that result's but for its
// supporters, so the patch lists only the lines whose supporters moved,
// by key and supporters (patchResults).
type versionPatch struct {
	base        uint64
	width       int // the records' width, the session's target schema
	records     []entityRecord
	goneRecords []string // entities; their results are gone with them
	results     []fusion.Result
	goneResults []key // of entities still present
	title       string
	supporters  []report.Line
}

// entityRecord is one table row with the entity it describes.
type entityRecord struct {
	entity string
	row    dataset.Record
}

func codePatch(c *wal.Codec, p *versionPatch) {
	c.U64(&p.base)
	c.Len(&p.width, 0)
	wal.Slice(c, &p.records, 1+p.width, func(c *wal.Codec, r *entityRecord) {
		c.String(&r.entity)
		c.Record(&r.row, p.width)
	})
	c.Strings(&p.goneRecords)
	codeResults(c, &p.results)
	var prev string
	wal.Slice(c, &p.goneResults, 2, func(c *wal.Codec, k *key) {
		c.Repeat(&k.entity, prev)
		prev = k.entity
		c.Symbol(&k.attribute)
	})
	c.String(&p.title)
	wal.Slice(c, &p.supporters, 3, func(c *wal.Codec, ln *report.Line) {
		c.Repeat(&ln.Entity, prev)
		prev = ln.Entity
		c.Symbol(&ln.Attribute)
		c.Symbols(&ln.Supporters)
	})
}

// shardPage is one page of an older log's full version: a set of its
// entities, sorted, with their records and results. Pages of logs whose
// tails fused entity ranges hold one range each; pages of logs whose tails
// routed entities to their ER shard hold any set of entities. Pages alias
// the output they were decoded into, and are read-only.
type shardPage struct {
	entities []string
	rows     []dataset.Record
	results  []fusion.Result
}

// pageRecord is one page, which older logs wrote right before the full
// version that references it, and compaction writes back while a retained
// version's chain starts at that version.
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

// versionRecord gathers one published version for the log but for its
// output: its store metadata, the Published payload, and the working tail
// a restart needs to resume incrementally — clusters, feedback watermark,
// dirty-source scope and whether the installed state behind the version
// has a plan (memoValid).
func versionRecord(w *Wrangler, v *PublishedVersion) *loggedVersion {
	pub := v.Data()
	return &loggedVersion{
		seq:       v.Seq(),
		step:      v.Step(),
		origin:    v.Origin(),
		at:        v.At(),
		changes:   v.Changes(),
		trust:     pub.Trust,
		sources:   pub.Sources,
		selected:  pub.Selected,
		stats:     pub.Stats,
		react:     pub.React,
		clusters:  w.tail.clusters,
		lastSeq:   w.lastSeq,
		dirty:     slices.Sorted(maps.Keys(w.dirtySources)),
		memoValid: w.tail.plan != nil,
	}
}

// patchRecord is v's record as a patch on prev, from the delta publish
// found between prev and cur: no report, and the clustering only when it
// moved. prev is the publication logged last, or the empty one for a full
// version (fullRecord).
func patchRecord(w *Wrangler, v *PublishedVersion, prev, cur *publication, dt *delta, width int) *loggedVersion {
	lv := versionRecord(w, v)
	if sameClustering(prev.clusters, cur.clusters) {
		lv.clusters = nil
	}
	lines := cur.report.Lines
	lv.patch = &versionPatch{
		base:  prev.seq,
		width: width,
		records: pick(dt.rows, func(i int) entityRecord {
			return entityRecord{entity: cur.entities[i], row: cur.rows[i]}
		}),
		goneRecords: pick(dt.goneRows, func(i int) string { return prev.entities[i] }),
		results:     pick(dt.results, func(i int) fusion.Result { return cur.results[i] }),
		goneResults: goneKeys(prev, dt),
		title:       cur.report.Title,
		supporters: pick(dt.supporters, func(i int) report.Line {
			return report.Line{Entity: lines[i].Entity, Attribute: lines[i].Attribute, Supporters: lines[i].Supporters}
		}),
	}
	return lv
}

// fullRecord is v's record in full: a patch on the empty version, seq 0,
// whose delta lists every record, result and report line of cur.
func fullRecord(w *Wrangler, v *PublishedVersion, cur *publication, width int) *loggedVersion {
	all := make([]int, max(len(cur.rows), len(cur.results), len(cur.report.Lines)))
	for i := range all {
		all[i] = i
	}
	dt := &delta{rows: all[:len(cur.rows)], results: all[:len(cur.results)], supporters: all[:len(cur.report.Lines)]}
	return patchRecord(w, v, &publication{}, cur, dt, width)
}

// goneKeys lists the keys of prev's results that are gone while their
// entity stays: a gone entity's results go with its record.
func goneKeys(prev *publication, dt *delta) []key {
	var out []key
	g := 0
	for _, j := range dt.goneResults {
		r := &prev.results[j]
		for g < len(dt.goneRows) && prev.entities[dt.goneRows[g]] < r.Entity {
			g++
		}
		if g == len(dt.goneRows) || prev.entities[dt.goneRows[g]] != r.Entity {
			out = append(out, key{r.Entity, r.Attribute})
		}
	}
	return out
}

// pick returns elem of every position in at, in order.
func pick[T any](at []int, elem func(int) T) []T {
	out := make([]T, len(at))
	for k, i := range at {
		out[k] = elem(i)
	}
	return out
}

// sameClustering reports whether two clusterings assign every row alike.
func sameClustering(a, b *er.Clustering) bool {
	return a == b || a != nil && b != nil && a.Num == b.Num && slices.Equal(a.Assign, b.Assign)
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

	// Only older logs' full versions carry the report; a patch lists its
	// lines' supporters, which are not reconstructible for older versions.
	wal.Opt(c, &lv.rep, func(c *wal.Codec, rep *report.Report) {
		c.String(&rep.Title)
		codeLines(c, &rep.Lines)
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

	// Output payload: mode 2 patches a base, and is the only mode written;
	// older logs' mode 1 references pages and mode 0 carries table,
	// results and entities inline. The mode, not nil-ness, says which: a
	// mode-1 version with no pages still decodes a non-nil page list.
	var mode uint8
	switch {
	case lv.patch != nil:
		mode = 2
	case lv.pages != nil:
		mode = 1
	}
	c.U8(&mode)
	switch mode {
	case 2:
		if c.Decoding() {
			if lv.rep != nil {
				c.Failf("a patch version carries a whole report")
			}
			lv.patch = &versionPatch{}
		}
		codePatch(c, lv.patch)
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
// torn tail is healed by the wal layer. Config, feedback, provenance and
// checkpoint records decode in full; of a page only its id and of a
// version only its header decode here, and source records not at all —
// they decode at attach, version and page bodies on first use. Any record
// that fails decoding fails the call that decodes it (the open, for
// everything open reads) with the record's file offset.
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
		replayedPages:   map[uint64]*loggedPage{},
		srcSig:          map[string]sourceSig{},
		rep:             &replayedLog{},
		replayTruncated: rr.Truncated,
	}
	fail := func(rec wal.Record, err error) (*DurableLog, error) {
		log.Close()
		return nil, recordError(rec.Kind, rec.Offset, err)
	}
	haveConfig := false
	pageBytes := 0 // of the page records since the last record of another kind
	for _, rec := range rr.Records {
		if !haveConfig && rec.Kind != wal.KindConfig {
			return fail(rec, fmt.Errorf("expected config as first record"))
		}
		weight := len(rec.Payload) + pageBytes
		pageBytes = 0
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
			d.rep.sources = append(d.rep.sources, rec)
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
			if _, dup := d.replayedPages[id]; dup {
				return fail(rec, fmt.Errorf("duplicate page id %d", id))
			}
			d.replayedPages[id] = &loggedPage{payload: rec.Payload, offset: rec.Offset}
			pageBytes = weight
		case wal.KindVersion:
			rv := &replayedVersion{lv: &loggedVersion{payload: rec.Payload}, offset: rec.Offset, weight: weight}
			n, err := wal.DecodePrefix(rec.Payload, rv.lv, codeVersionHeader)
			if err != nil {
				return fail(rec, err)
			}
			rv.bodyAt = n
			if n := len(d.replayed); n > 0 && rv.lv.seq <= d.replayed[n-1].lv.seq {
				return fail(rec, fmt.Errorf("version seq %d out of order after %d", rv.lv.seq, d.replayed[n-1].lv.seq))
			}
			d.replayed = append(d.replayed, rv)
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

// settle fills in a replayed version's kind and page ids, decoding its
// body if nothing has yet.
func (d *DurableLog) settle(e *retainedVersion) error {
	if e.known {
		return nil
	}
	lv, err := d.body(e.replayed)
	if err != nil {
		return err
	}
	e.known, e.patch, e.pageIDs = true, lv.patch != nil && lv.patch.base != 0, lv.pages
	return nil
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
	reg.Help(mWALVersions, "Versions appended to the durable log, by mode: full (a patch on the empty version, listing every record) or patch (what moved since the version logged before).")
	d.fullVersions = reg.Counter(mWALVersions, "mode", "full")
	d.patchVersions = reg.Counter(mWALVersions, "mode", "patch")
	reg.Help(mWALChain, "Patch versions appended to the durable log since its last full version.")
	d.chainGauge = reg.Gauge(mWALChain)
	d.chainGauge.Set(float64(d.chain))
}

// Err returns the log's sticky write error, if any.
func (d *DurableLog) Err() error { return d.log.Err() }

// Stats reports the log's durability state.
func (d *DurableLog) Stats() DurableStats {
	return DurableStats{
		Dir:               d.dir,
		Bytes:             d.log.Size(),
		LastCheckpointSeq: d.lastCheckpoint,
		RetainedVersions:  min(len(d.versions), d.retain),
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
// states and provenance install, the source states decoding beside the
// newest retained version — its chain's bodies, and an older log's paged
// base's pages — which becomes the store's latest. Every older retained
// version enters the store unloaded and decodes on its first At or Watch
// catch-up. The working data and its tail state are rebuilt by resume
// (restoreWorkingState) when the first reaction or accessor needs them; a
// rebuild that fails there fails that call and every later one, while the
// restored versions keep serving.
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

	// The newest version's output builds beside the source states, which
	// decode on every CPU and install in log order.
	var pub Published
	var st *versionState
	sources := make([]sourceRecord, len(rep.sources))
	err = engine.Map(context.Background(), 0, 2, func(ctx context.Context, i int) (err error) {
		if n := len(d.replayed); i == 0 && n > 0 {
			pub, st, err = d.published(d.replayed[n-1])
		} else if i == 1 {
			err = engine.Map(ctx, 0, len(sources), func(_ context.Context, k int) error {
				if err := wal.Decode(rep.sources[k].Payload, &sources[k], codeSource); err != nil {
					return recordError(wal.KindSource, rep.sources[k].Offset, err)
				}
				return nil
			})
		}
		return err
	})
	if err != nil {
		return false, err
	}
	for _, sr := range sources {
		if sr.st == nil {
			delete(w.states, sr.id)
			delete(d.srcSig, sr.id)
		} else {
			w.states[sr.id] = sr.st
			d.srcSig[sr.id] = sourceSig{st: sr.st, selected: sr.st.selected, utility: sr.st.utility}
		}
	}

	// Feedback replays through the store so derived state (spent budget,
	// sequence) rebuilds exactly; the store re-assigns the same seqs
	// because items were logged in order.
	for _, it := range rep.feedback {
		got := w.Feedback.Add(it)
		if got.Seq != it.Seq {
			return false, fmt.Errorf("core: attach: feedback replay drift (seq %d became %d)", it.Seq, got.Seq)
		}
	}
	var floor uint64
	if n := len(d.replayed); n > 0 {
		floor = d.replayed[n-1].lv.step
	}
	w.Prov.Apply(rep.prov, floor)

	if len(d.replayed) == 0 {
		w.log = d
		return false, nil
	}

	versions := d.replayed
	if len(versions) > d.retain {
		versions = versions[len(versions)-d.retain:]
	}
	newest := versions[len(versions)-1]
	restoredVersions := make([]serve.RestoredVersion[Published], len(versions))
	for i, rv := range versions {
		lv := rv.lv
		restoredVersions[i] = serve.RestoredVersion[Published]{Seq: lv.seq, Step: lv.step, Origin: lv.origin, At: lv.at, Changes: lv.changes}
		if rv == newest {
			restoredVersions[i].Data = pub
		} else {
			restoredVersions[i].Load = func() (Published, error) {
				pub, _, err := d.published(rv)
				return pub, err
			}
		}
	}
	if err := w.Serve.Restore(restoredVersions); err != nil {
		return false, err
	}
	d.versions = make([]retainedVersion, len(d.replayed))
	for i, rv := range d.replayed {
		d.versions[i] = retainedVersion{seq: rv.lv.seq, payload: rv.lv.payload, replayed: rv}
	}
	if err := d.sizeChain(); err != nil {
		return false, err
	}
	w.LastStats = newest.lv.stats
	w.restore = &pendingRestore{lv: newest.lv, st: st}
	w.log = d
	return true, nil
}

// sizeChain measures the chain the next version would extend: the
// patches at the log's end and the full version before them. Their bodies
// decoded with the newest version's, so this decodes nothing more. A log
// that ends in no full version measures none, so its next version is one.
func (d *DurableLog) sizeChain() error {
	d.fullBytes, d.chainBytes, d.chain = 0, 0, 0
	for i := len(d.versions) - 1; i >= 0; i-- {
		e := &d.versions[i]
		if err := d.settle(e); err != nil {
			return err
		}
		if !e.patch {
			d.fullBytes = e.replayed.weight
			return nil
		}
		d.chainBytes += len(e.payload)
		d.chain++
	}
	d.chainBytes, d.chain = 0, 0
	return nil
}

// pendingRestore is the restored version whose working state resume has
// yet to rebuild, with its output.
type pendingRestore struct {
	lv *loggedVersion
	st *versionState
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
	w.restoreErr = w.restoreWorkingState(r.lv, r.st)
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

// published rebuilds a replayed version's Published payload from its
// output (state), and returns the output with it.
func (d *DurableLog) published(rv *replayedVersion) (Published, *versionState, error) {
	st, err := d.state(rv)
	if err != nil {
		return Published{}, nil, err
	}
	lv := rv.lv
	return Published{
		Table:    st.table,
		Report:   st.report,
		Stats:    lv.stats,
		React:    lv.react,
		Trust:    lv.trust,
		Sources:  lv.sources,
		Selected: lv.selected,
		Entities: st.entities,
	}, st, nil
}

// versionState is one logged version's output: its table with the entity
// of each row, its report and clustering — what a reader's Published is
// built from — and its results, which only a restore's working state
// needs, and which a patch builds on first use. A patch shares every
// record and line it did not change with its full base. It is read-only.
type versionState struct {
	table    *dataset.Table
	entities []string
	report   *report.Report
	clusters *er.Clustering
	inline   bool // an older log's inline version (mode 0): no plan stood behind it
	results  func() []fusion.Result
}

// state returns a replayed version's output, building it on first use: a
// full version's directly (fullState), or from an older log's pages or
// inline payload; a patch's from its chain — the patches down to the full
// version they build on, folded into one and applied to that version's
// output (applyChain). A chain that breaks, on a missing base or one whose
// output cannot be built, fails with the file offset of the record it
// could not read past.
func (d *DurableLog) state(rv *replayedVersion) (*versionState, error) {
	rv.stOnce.Do(func() { rv.st, rv.stErr = d.buildState(rv) })
	return rv.st, rv.stErr
}

func (d *DurableLog) buildState(rv *replayedVersion) (*versionState, error) {
	lv, err := d.body(rv)
	if err != nil {
		return nil, err
	}
	switch {
	case lv.patch != nil && lv.patch.base == 0:
		st, err := fullState(lv, d.schema)
		if err != nil {
			return nil, recordError(wal.KindVersion, rv.offset, err)
		}
		return st, nil
	case lv.patch != nil:
		// The chain's bodies decode while this goroutine walks it down to
		// its full version, folding each patch under the newer ones.
		done := make(chan struct{})
		go func() { defer close(done); d.prefetchChain(rv) }()
		defer func() { <-done }()
		edits := &chainEdits{title: lv.patch.title}
		at := rv
		for lv.patch != nil && lv.patch.base != 0 {
			if err := edits.under(lv, len(d.schema)); err != nil {
				return nil, recordError(wal.KindVersion, rv.offset, fmt.Errorf("version %d: %w", rv.lv.seq, err))
			}
			k, ok := d.replayedAt(lv.patch.base)
			if !ok || lv.patch.base >= lv.seq {
				return nil, recordError(wal.KindVersion, at.offset, fmt.Errorf("version %d patches version %d, which the log does not hold before it", lv.seq, lv.patch.base))
			}
			at = d.replayed[k]
			if lv, err = d.body(at); err != nil {
				return nil, recordError(wal.KindVersion, rv.offset, fmt.Errorf("version %d builds on version %d: %w", rv.lv.seq, at.lv.seq, err))
			}
		}
		base, err := d.state(at)
		if err != nil {
			return nil, recordError(wal.KindVersion, rv.offset, fmt.Errorf("version %d builds on version %d: %w", rv.lv.seq, at.lv.seq, err))
		}
		st, err := applyChain(base, edits)
		if err != nil {
			return nil, recordError(wal.KindVersion, rv.offset, fmt.Errorf("version %d: %w", rv.lv.seq, err))
		}
		return st, nil
	case lv.pages != nil:
		// The pages decode on every CPU.
		pages := make([]*shardPage, len(lv.pages))
		err := engine.Map(context.Background(), 0, len(pages), func(_ context.Context, i int) (err error) {
			lp, ok := d.replayedPages[lv.pages[i]]
			if !ok {
				return recordError(wal.KindVersion, rv.offset, fmt.Errorf("version %d references missing page %d", lv.seq, lv.pages[i]))
			}
			pages[i], err = d.loadPage(lp)
			return err
		})
		if err != nil {
			return nil, err
		}
		var recs []entityRecord
		var results []fusion.Result
		for _, p := range pages {
			results = append(results, p.results...)
			for j, e := range p.entities {
				recs = append(recs, entityRecord{entity: e, row: p.rows[j]})
			}
		}
		// Pages cut by entity range follow each other in entity order. Pages
		// of older logs, whose tails routed entities to their ER shard,
		// interleave: their records and results sort.
		byEntity := func(a, b entityRecord) int { return strings.Compare(a.entity, b.entity) }
		if !slices.IsSortedFunc(recs, byEntity) {
			slices.SortFunc(recs, byEntity)
			slices.SortFunc(results, fusion.CompareResults)
		}
		st := &versionState{report: lv.rep, clusters: lv.clusters, results: func() []fusion.Result { return results }}
		st.table, st.entities = dataset.NewTableCap(d.schema.Clone(), len(recs)), make([]string, len(recs))
		for i, r := range recs {
			st.table.Append(r.row)
			st.entities[i] = r.entity
		}
		return st, nil
	default:
		return &versionState{table: lv.table, entities: lv.entities, report: lv.rep, clusters: lv.clusters, inline: true,
			results: func() []fusion.Result { return lv.results }}, nil
	}
}

// fullState builds a full version's output directly: its records into a
// presized table, its results as the one slice they decoded to, and per
// non-null result the resultLine with the supporters listed under its key
// — the line served, as Value.Same implies the same String(). It fails on
// a gone key, and on a line with no listing or a listing with no line.
func fullState(lv *loggedVersion, schema dataset.Schema) (*versionState, error) {
	p := lv.patch
	if p.width != len(schema) || len(p.goneRecords)+len(p.goneResults) > 0 {
		return nil, fmt.Errorf("version %d lists %d-wide records and %d gone keys on the empty version, want %d-wide records and none", lv.seq, p.width, len(p.goneRecords)+len(p.goneResults), len(schema))
	}
	st := &versionState{table: dataset.NewTableCap(schema.Clone(), len(p.records)), clusters: lv.clusters}
	if len(p.records) > 0 {
		st.entities = make([]string, len(p.records))
	}
	for i, r := range p.records {
		st.entities[i] = r.entity
		st.table.Append(r.row)
	}
	var lines []report.Line
	if len(p.supporters) > 0 {
		lines = make([]report.Line, 0, len(p.supporters))
	}
	for i := range p.results {
		r := &p.results[i]
		if r.Value.IsNull() {
			continue
		}
		k := len(lines)
		if k == len(p.supporters) || p.supporters[k].Entity != r.Entity || p.supporters[k].Attribute != r.Attribute {
			return nil, fmt.Errorf("version %d lists no supporters for %s/%s", lv.seq, r.Entity, r.Attribute)
		}
		lines = append(lines, resultLine(r, p.supporters[k].Supporters))
	}
	if len(lines) != len(p.supporters) {
		return nil, fmt.Errorf("version %d lists supporters for %d lines of %d", lv.seq, len(p.supporters), len(lines))
	}
	st.report = &report.Report{Title: p.title, Lines: lines}
	st.results = func() []fusion.Result { return p.results }
	return st, nil
}

// replayedAt finds the replayed version with the given seq: its index,
// and whether it is there.
func (d *DurableLog) replayedAt(seq uint64) (int, bool) {
	return slices.BinarySearchFunc(d.replayed, seq, func(v *replayedVersion, seq uint64) int {
		return cmp.Compare(v.lv.seq, seq)
	})
}

// prefetchChain decodes, on every CPU, the bodies of the versions from
// the earliest that outweighs all those after it up to rv, to rv. By the
// size rule a chain's full base outweighs the versions after it, so this
// can only decode versions rv's chain does not need, and never misses one.
func (d *DurableLog) prefetchChain(rv *replayedVersion) {
	top, _ := d.replayedAt(rv.lv.seq)
	from, after := top, 0
	for k := top; k >= 0; k-- {
		if w := d.replayed[k].weight; w > after {
			from = k
		}
		after += d.replayed[k].weight
	}
	versions := d.replayed[from : top+1]
	_ = engine.Map(context.Background(), 0, len(versions), func(_ context.Context, i int) error {
		_, _ = d.body(versions[i])
		return nil
	})
}

// chainEdits is a chain of patches folded into one edit per key, the
// newest winning, with the newest title and clustering the chain carries.
type chainEdits struct {
	records  []edit[dataset.Record]
	results  []edit[fusion.Result]
	listed   []edit[[]string]
	title    string
	clusters *er.Clustering
}

// under folds lv's patch, of width-column records, under the newer
// patches f holds.
func (f *chainEdits) under(lv *loggedVersion, width int) error {
	p := lv.patch
	if p.width != width {
		return fmt.Errorf("version %d patches %d-wide records into a %d-column table", lv.seq, p.width, width)
	}
	gone := make([]key, len(p.goneRecords))
	for i, e := range p.goneRecords {
		gone[i] = key{entity: e}
	}
	r, err := patchEdits(gone, p.records, func(r *entityRecord) (key, *dataset.Record) { return key{entity: r.entity}, &r.row })
	if err != nil {
		return fmt.Errorf("version %d records: %w", lv.seq, err)
	}
	// A gone record's entity has no result left: one edit drops them all.
	gone = append(gone, p.goneResults...)
	slices.SortFunc(gone, key.compare)
	res, err := patchEdits(gone, p.results, func(r *fusion.Result) (key, *fusion.Result) {
		return key{r.Entity, r.Attribute}, r
	})
	if err != nil {
		return fmt.Errorf("version %d results: %w", lv.seq, err)
	}
	sup, err := patchEdits(nil, p.supporters, func(ln *report.Line) (key, *[]string) {
		return key{ln.Entity, ln.Attribute}, &ln.Supporters
	})
	if err != nil {
		return fmt.Errorf("version %d report lines: %w", lv.seq, err)
	}
	f.records, f.results, f.listed = foldEdits(r, f.records), foldEdits(res, f.results), foldEdits(sup, f.listed)
	f.clusters = cmp.Or(f.clusters, lv.clusters)
	return nil
}

// applyChain applies a chain's folded edits to base, the output of the
// full version its oldest patches, once: the table and the report now,
// the results when first asked for.
func applyChain(base *versionState, f *chainEdits) (*versionState, error) {
	if base.table == nil {
		return nil, fmt.Errorf("it builds on a version with no output")
	}
	out := &versionState{clusters: cmp.Or(f.clusters, base.clusters)}
	recs := f.records
	out.table = dataset.NewTableCap(base.table.Schema().Clone(), len(base.entities)+len(recs))
	out.entities = make([]string, 0, len(base.entities)+len(recs))
	b := 0
	emit := func(entity string, row dataset.Record) {
		out.entities = append(out.entities, entity)
		out.table.Append(row)
	}
	for _, e := range recs {
		for ; b < len(base.entities) && base.entities[b] < e.entity; b++ {
			emit(base.entities[b], base.table.Row(b))
		}
		if b < len(base.entities) && base.entities[b] == e.entity {
			b++
		}
		if e.elem != nil {
			emit(e.entity, *e.elem)
		}
	}
	for ; b < len(base.entities); b++ {
		emit(base.entities[b], base.table.Row(b))
	}
	if len(out.entities) == 0 {
		out.entities = nil
	}
	var lines []report.Line
	if base.report != nil {
		lines = base.report.Lines
	}
	lines, err := patchLines(base.results(), lines, f.results, f.listed)
	if err != nil {
		return nil, fmt.Errorf("report lines: %w", err)
	}
	out.report = &report.Report{Title: f.title, Lines: lines}
	out.results = sync.OnceValue(func() []fusion.Result { return patchResults(base.results(), f.results) })
	return out, nil
}

// patchLines builds a patched version's report from its full base's
// results, in key order, and report lines — one per non-null base result,
// in order — and the chain's folded result edits and supporter listings:
// one line per non-null result. A base line is copied whole where no edit
// touched its result and no patch listed its supporters. Any other line is
// the result's (resultLine) with the supporters last listed under its key,
// or its base line's — and its base line's value text when the value is
// Same. An edit keyed by an entity alone drops every result of that
// entity. A listing for a key with no line now is one a later patch made
// stale, and is skipped.
func patchLines(base []fusion.Result, baseLines []report.Line, edits []edit[fusion.Result], listed []edit[[]string]) ([]report.Line, error) {
	lines := make([]report.Line, 0, len(baseLines)+len(baseLines)/16)
	bi, bl, e, s := 0, 0, 0, 0
	// at returns the base result under bi, nil past the last.
	at := func() *fusion.Result {
		if bi == len(base) {
			return nil
		}
		return &base[bi]
	}
	// skip moves past the base results below k, or of k's entity when
	// drop, counting their lines; a base entity's results are adjacent and
	// share its string, so it compares the entity once per entity.
	skip := func(k key, drop bool) {
		entity, order := "", 0
		for first := true; ; first = false {
			r := at()
			if r == nil {
				return
			}
			if first || r.Entity != entity {
				entity, order = r.Entity, strings.Compare(r.Entity, k.entity)
			}
			if order > 0 || order == 0 && !drop && r.Attribute >= k.attribute {
				return
			}
			if !r.Value.IsNull() {
				bl++
			}
			bi++
		}
	}
	for {
		// The next key an edit or a listing names.
		var k key
		done := e == len(edits) && s == len(listed)
		switch {
		case e < len(edits) && (s == len(listed) || edits[e].compare(listed[s].key) <= 0):
			k = edits[e].key
		case s < len(listed):
			k = listed[s].key
		}
		from := bl
		if done {
			bl = len(baseLines)
		} else {
			skip(k, false)
		}
		if bl > len(baseLines) {
			return nil, fmt.Errorf("the base has %d lines for more non-null results", len(baseLines))
		}
		lines = append(lines, baseLines[from:bl]...)
		if done {
			break
		}
		if k.attribute == "" { // an entity drop
			skip(k, true)
			if bl > len(baseLines) {
				return nil, fmt.Errorf("the base has %d lines for more non-null results", len(baseLines))
			}
			for ; e < len(edits) && edits[e].key == k; e++ {
			}
			continue
		}
		var oldLine *report.Line
		old := at() // the base result under k
		if old != nil && old.Entity == k.entity && old.Attribute == k.attribute {
			bi++
			if !old.Value.IsNull() {
				if bl == len(baseLines) || baseLines[bl].Entity != old.Entity || baseLines[bl].Attribute != old.Attribute {
					return nil, fmt.Errorf("the base has no line for %s/%s", old.Entity, old.Attribute)
				}
				oldLine = &baseLines[bl]
				bl++
			}
		} else {
			old = nil
		}
		r := old
		if e < len(edits) && edits[e].key == k {
			r = edits[e].elem
			e++
		}
		var sup *[]string
		if s < len(listed) && listed[s].key == k {
			sup = listed[s].elem
			s++
		}
		switch {
		case r == nil || r.Value.IsNull():
		case sup == nil && oldLine == nil:
			return nil, fmt.Errorf("no supporters for %s/%s", r.Entity, r.Attribute)
		case sup == nil && r == old:
			lines = append(lines, *oldLine)
		default:
			ln := report.Line{Entity: r.Entity, Attribute: r.Attribute, Confidence: r.Confidence, Conflict: r.Conflict}
			if sup != nil {
				ln.Supporters = *sup
			} else {
				ln.Supporters = oldLine.Supporters
			}
			if oldLine != nil && old.Value.Same(r.Value) {
				ln.Value = oldLine.Value
			} else {
				ln.Value = r.Value.String()
			}
			lines = append(lines, ln)
		}
	}
	if len(lines) == 0 {
		return nil, nil
	}
	return lines, nil
}

// patchResults applies folded result edits to a full version's results:
// a key an edit names holds the edit's result, or none when it is gone;
// an edit keyed by an entity alone drops every result of that entity;
// every other result is the base's.
func patchResults(base []fusion.Result, edits []edit[fusion.Result]) []fusion.Result {
	out := make([]fusion.Result, 0, len(base)+len(base)/16)
	b := 0
	for _, e := range edits {
		from := b
		for b < len(base) && compareKeys(base[b].Entity, base[b].Attribute, e.entity, e.attribute) < 0 {
			b++
		}
		out = append(out, base[from:b]...)
		if e.attribute == "" {
			for b < len(base) && base[b].Entity == e.entity {
				b++
			}
		} else if b < len(base) && base[b].Entity == e.entity && base[b].Attribute == e.attribute {
			b++
		}
		if e.elem != nil {
			out = append(out, *e.elem)
		}
	}
	out = append(out, base[b:]...)
	if len(out) == 0 {
		return nil
	}
	return out
}

// key is the (entity, attribute) key results, report lines and their
// patches are ordered by; a record's key is its entity alone.
type key struct{ entity, attribute string }

func (a key) compare(b key) int { return compareKeys(a.entity, a.attribute, b.entity, b.attribute) }

// edit is one key's entry in a patch: what the key holds from the patch
// on, or nil when it is gone.
type edit[T any] struct {
	key
	elem *T
}

// patchEdits merges one part of a patch — its gone keys and its changed
// elements, each in key order — into edits. It fails on a list out of
// order or a key both gone and changed.
func patchEdits[E, T any](gone []key, changed []E, of func(*E) (key, *T)) ([]edit[T], error) {
	out := make([]edit[T], 0, len(gone)+len(changed))
	g, c := 0, 0
	for g < len(gone) || c < len(changed) {
		var e edit[T]
		if c < len(changed) {
			e.key, e.elem = of(&changed[c])
		}
		switch {
		case c == len(changed) || g < len(gone) && gone[g].compare(e.key) < 0:
			e = edit[T]{key: gone[g]}
			g++
		case g == len(gone) || e.compare(gone[g]) < 0:
			c++
		default:
			return nil, fmt.Errorf("%s/%s is both gone and changed", e.entity, e.attribute)
		}
		if n := len(out); n > 0 && out[n-1].compare(e.key) >= 0 {
			return nil, fmt.Errorf("%s/%s is out of order", e.entity, e.attribute)
		}
		out = append(out, e)
	}
	return out, nil
}

// foldEdits folds later edits over earlier ones: per key, the later wins,
// and a later edit keyed by an entity alone that drops it (nil) also
// drops every earlier edit of that entity.
func foldEdits[T any](earlier, later []edit[T]) []edit[T] {
	if len(earlier) == 0 {
		return later
	}
	out := make([]edit[T], 0, len(earlier)+len(later))
	i := 0
	for _, l := range later {
		for ; i < len(earlier) && earlier[i].compare(l.key) < 0; i++ {
			out = append(out, earlier[i])
		}
		if l.attribute == "" && l.elem == nil {
			for ; i < len(earlier) && earlier[i].entity == l.entity; i++ {
			}
		} else if i < len(earlier) && earlier[i].key == l.key {
			i++
		}
		out = append(out, l)
	}
	return append(out, earlier[i:]...)
}

// restoreWorkingState rebuilds the wrangler's tail state from the newest
// retained version and its output, and installs it; resume runs it before
// the first reaction or accessor that needs it, never at attach. A rebuild
// that fails installs nothing. The union and resolver are recomputed
// deterministically from the restored states and feedback (the same code
// path a live tail runs), the fused output is adopted from the version's,
// and everything a live tail would leave warm for the next reaction is
// rebuilt from them: the entity names, which the next tail carries over
// when they are content names; the claim groups of the restored results,
// prepared and laid out, which it adopts from; and — when a plan stood
// behind the version — the plan, so the first reaction after restart is a
// partial tail that prepares only the groups it moved. The rebuild is a
// small task graph on the worker fan-out: the sources' derivations; FD
// repair beside a resolver that interns them; then two independent chains
// side by side, which fill disjoint fields of the state: the resolver's
// Prepare and the plan (restorePlan), and the names, claims and group
// preparation (restoreGroups).
func (w *Wrangler) restoreWorkingState(lv *loggedVersion, st *versionState) error {
	if st.table != nil {
		// The restored version is what the next publication diffs against.
		w.lastPub = &publication{seq: lv.seq, results: st.results(), entities: st.entities,
			rows: st.table.Rows(), report: st.report, clusters: st.clusters}
	}
	t := &tailState{trust: maps.Clone(lv.trust)}
	cells, feats, err := w.assembleUnion(t)
	if err != nil {
		return err
	}
	w.lastSeq = lv.lastSeq
	if len(lv.dirty) > 0 {
		w.dirtySources = map[string]bool{}
		for _, id := range lv.dirty {
			w.dirtySources[id] = true
		}
	}
	if t.union.Len() == 0 {
		t.wrangled = dataset.NewTable(w.Config.Target.Clone())
		w.tail = t
		return nil
	}
	t.clusters = st.clusters
	if st.table == nil {
		return fmt.Errorf("core: version %d has no output payload", lv.seq)
	}
	t.results = st.results()
	t.rowEntities = st.entities
	if st.inline {
		t.wrangled = st.table.Clone()
	} else {
		if _, err := entityStarts(st.entities, t.results); err != nil {
			return fmt.Errorf("core: version %d: %w", lv.seq, err)
		}
		// A fresh row slab: the next publication adopts records into it.
		t.wrangled = dataset.NewTableCap(w.Config.Target.Clone(), st.table.Len())
		for _, r := range st.table.Rows() {
			t.wrangled.Append(r)
		}
	}
	if t.clusters == nil || len(t.clusters.Assign) != t.union.Len() {
		return fmt.Errorf("core: version %d clusters do not cover the restored union (%d rows)", lv.seq, t.union.Len())
	}
	for row, id := range t.clusters.Assign {
		if id < 0 || id >= t.clusters.Num {
			return fmt.Errorf("core: version %d assigns row %d to cluster %d outside [0,%d)", lv.seq, row, id, t.clusters.Num)
		}
	}

	// Rebuild the plan only when the persisted tail is coherent: a plan
	// stood behind the version, a tail built the version (it is not an
	// older log's inline one), no source state diverged from the version's
	// union afterwards (non-empty dirty means an aborted reaction installed
	// sources between publishes — the rebuilt union would not be the
	// plan's union), and no pair label arrived after the version's
	// reaction consumed its feedback: restorePlan takes its constraints
	// from every label in the store, so its plan would already hold the
	// ones the next reaction is to apply, and that reaction would find
	// nothing to re-resolve. Without a plan the first tail plans afresh,
	// never an error: outputs stay byte-identical either way.
	pendingPairs := slices.ContainsFunc(w.Feedback.Since(lv.lastSeq), func(it feedback.Item) bool {
		return it.Kind == feedback.DuplicatePair || it.Kind == feedback.NotDuplicatePair
	})
	plan := lv.memoValid && !st.inline && len(lv.dirty) == 0 && !pendingPairs

	// FD repair replaces the rows it repairs by clones. Beside it, a
	// resolver interns the sources' derivations over the rows as they were
	// assembled, so the one prepareResolver makes next carries its
	// registries and derives and interns only the rows FD repair cloned.
	assembled := dataset.NewTableCap(t.union.Schema(), t.union.Len())
	for _, r := range t.union.Rows() {
		assembled.Append(r)
	}
	var seeded *er.Resolver
	if err := engine.Map(context.Background(), w.workers(), 2, func(_ context.Context, i int) error {
		if i == 1 {
			seeded = w.newResolver()
			seeded.Seed(feats...)
			seeded.Prepare(assembled)
			return nil
		}
		return w.repairUnion(t, cells)
	}); err != nil {
		return err
	}
	if err := engine.Map(context.Background(), w.workers(), 2, func(_ context.Context, i int) error {
		if i == 1 {
			return w.restoreGroups(t, lv.seq, st.entities)
		}
		labels := w.labeledPairs(t)
		w.prepareResolver(t, seeded, feats, labels)
		if plan {
			t.plan = w.restorePlan(t, labels)
		}
		return nil
	}); err != nil {
		return err
	}
	w.tail = t
	return nil
}

// restoreGroups names t's restored clustering, checks that the names are
// the ones the version served (entities), and lays out and prepares the
// claim groups the version's results were fused from. A log written before
// keyless clusters were named by content served them as "entity-<cluster>";
// those names stay until the next reaction renames every keyless entity
// in its one delta, and are not carried over. Content names are, by the
// next reaction's carryNames. The groups become the ones the next
// estimation adopts from. Its results were not fused from them (free is
// false): the restored report's supporter lists are decoded, not the
// groups' own, so a fuse-only first reaction fuses every group and its
// publication walks the report, which re-links the lists. It writes only
// t's names and groups, and reads nothing prepareResolver or restorePlan
// writes, so they run side by side.
func (w *Wrangler) restoreGroups(t *tailState, seq uint64, entities []string) error {
	if w.nameEntities(t); !slices.Equal(t.entities.ids, entities) {
		if w.nameClusters(t, true); !slices.Equal(t.entities.ids, entities) {
			return fmt.Errorf("core: version %d serves entities its clustering does not name", seq)
		}
	}
	g, slabs, _ := w.claimGroups(t, &tailState{}, nil)
	if g.Len() != len(t.results) {
		return nil
	}
	g.Prepare(w.fusionOptions().Policy, w.workers())
	t.groups, t.slabs = g, slabs
	return nil
}

// entityStarts returns where each entity's results start in results,
// then len(results). It fails unless results hold results of exactly
// entities, in their order.
func entityStarts(entities []string, results []fusion.Result) ([]int, error) {
	starts := make([]int, 0, len(entities)+1)
	for i, r := range results {
		if i == 0 || r.Entity != results[i-1].Entity {
			if k := len(starts); k == len(entities) || entities[k] != r.Entity {
				return nil, fmt.Errorf("results name entity %q out of the table's order", r.Entity)
			}
			starts = append(starts, i)
		}
	}
	if len(starts) != len(entities) {
		return nil, fmt.Errorf("results cover %d of the table's %d entities", len(starts), len(entities))
	}
	return append(starts, len(results)), nil
}

// restorePlan reconstructs the plan t's clustering was resolved under,
// from the restored union and clusters. The shard plan and the roots slab
// are deterministic functions of what was restored: a row's
// representative is its cluster's first row, read off the cluster ids
// restoreWorkingState validated. The prepared claim groups are not
// persisted either; restoreGroups rebuilds them beside this. What no
// restore rebuilds is the pair scores the last tail cached: the first
// reaction scores its dirty components' pairs afresh, to the same floats.
// It returns nil when the plan cannot be rebuilt.
func (w *Wrangler) restorePlan(t *tailState, labels []labeledPair) *er.PlanState {
	must, cannot := pairConstraints(labels)
	// No previous plan state: a fresh plan over the union just prepared.
	rp, err := t.resolver.RePlan(t.union, w.shards(), must, cannot, t.unionKeys, nil, nil)
	if err != nil {
		return nil
	}
	first := make([]int32, t.clusters.Num) // by cluster id: its first row, -1 until seen
	for i := range first {
		first[i] = -1
	}
	roots := make([]int32, len(t.clusters.Assign))
	for row, id := range t.clusters.Assign {
		if first[id] < 0 {
			first[id] = int32(row)
		}
		roots[row] = first[id]
	}
	ps, err := er.BuildPlanState(t.resolver, rp.Plan, t.unionKeys, roots, must, cannot)
	if err != nil {
		return nil
	}
	return ps
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
// states whose working data moved, the provenance delta, and the version
// itself — as a patch on the version logged before it when publish
// diffed against that one (dt), the output is not empty, and the patches
// since the last full version, this one included, stay smaller than that
// version; else in full, as a patch on the empty version. One Commit
// flushes the batch; compaction triggers once 2×retain versions
// accumulate.
func (d *DurableLog) appendVersion(w *Wrangler, v *PublishedVersion, prev, cur *publication, dt *delta) {
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

	// An emptied output is logged in full, so no chain runs through an
	// empty output.
	e := retainedVersion{seq: v.Seq(), known: true}
	if n := len(d.versions); dt != nil && len(cur.entities) > 0 && d.fullBytes > 0 && n > 0 && d.versions[n-1].seq == prev.seq {
		payload := wal.EncodeSized(presize(d.patchSize), patchRecord(w, v, prev, cur, dt, len(d.schema)), codeVersion)
		d.patchSize = len(payload)
		if d.chainBytes+len(payload) < d.fullBytes {
			e.payload, e.patch = payload, true
		}
	}
	if e.patch {
		d.chainBytes += len(e.payload)
		d.chain++
		d.patchVersions.Inc()
	} else {
		e.payload = wal.EncodeSized(presize(d.fullBytes), fullRecord(w, v, cur, len(d.schema)), codeVersion)
		d.fullBytes, d.chainBytes, d.chain = len(e.payload), 0, 0
		d.fullVersions.Inc()
	}
	d.chainGauge.Set(float64(d.chain))
	_ = d.log.Append(wal.KindVersion, e.payload)
	_ = d.log.Commit()

	d.versions = append(d.versions, e)
	d.trim()
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

// trim drops the versions compaction would not write back: those before
// the full base of the oldest retained version's chain. A replayed
// version whose kind is not known yet ends the search; compaction settles
// it.
func (d *DurableLog) trim() {
	for i := len(d.versions) - d.retain; i > 0; i-- {
		e := &d.versions[i]
		if !e.known {
			return
		}
		if !e.patch {
			d.versions = slices.Delete(d.versions, 0, i)
			return
		}
	}
}

// presize is the buffer for a record whose predecessor of its kind took
// last bytes: that, with room to grow by a sixteenth.
func presize(last int) int { return last + last/16 }

// compact rewrites the log to its minimal coherent form — config, full
// feedback and provenance, every committed source state, the retained
// versions with the chain back to the oldest one's full base, the pages
// of an older log's paged versions among them, and a checkpoint marker —
// then prunes the in-memory version list to what it wrote. A source is
// written as the log last committed it (srcSig), with the selection and
// utility it was logged under: a reaction that installed sources and then
// lost its tail published nothing, and its states, which no logged
// version was integrated from, stay out of the log until a publication
// commits them. Page and
// version records are written back as they were logged, the pages from
// the replay's page index; only a replayed version whose body is still
// undecoded decodes here, for its kind and page ids.
func (d *DurableLog) compact(w *Wrangler) error {
	if len(d.versions) == 0 {
		return nil
	}
	from := max(0, len(d.versions)-d.retain)
	for ; ; from-- {
		e := &d.versions[from]
		if err := d.settle(e); err != nil {
			return err
		}
		if !e.patch {
			break
		}
		if from == 0 {
			return fmt.Errorf("core: compact: version %d patches a version the log no longer holds", e.seq)
		}
	}
	kept := d.versions[from:]
	var recs []wal.Data
	recs = append(recs, wal.Data{Kind: wal.KindConfig, Payload: d.configPayload})
	for _, it := range w.Feedback.Items("") {
		recs = append(recs, wal.Data{Kind: wal.KindFeedback, Payload: wal.Encode(&it, codeFeedback)})
	}
	if prov := w.Prov.RecordsSince(0); len(prov) > 0 {
		recs = append(recs, wal.Data{Kind: wal.KindProv, Payload: wal.Encode(&prov, codeProv)})
	}
	for _, id := range slices.Sorted(maps.Keys(d.srcSig)) {
		sig := d.srcSig[id]
		st := *sig.st
		st.selected, st.utility = sig.selected, sig.utility
		recs = append(recs, wal.Data{Kind: wal.KindSource, Payload: wal.Encode(&sourceRecord{id: id, st: &st}, codeSource)})
	}
	live := map[uint64]bool{}
	for i := range kept {
		if err := d.settle(&kept[i]); err != nil {
			return err
		}
		for _, pid := range kept[i].pageIDs {
			live[pid] = true
		}
	}
	for _, pid := range slices.Sorted(maps.Keys(live)) {
		lp, ok := d.replayedPages[pid]
		if !ok {
			return fmt.Errorf("core: compact: a retained version references missing page %d", pid)
		}
		recs = append(recs, wal.Data{Kind: wal.KindPage, Payload: lp.payload})
	}
	for _, e := range kept {
		recs = append(recs, wal.Data{Kind: wal.KindVersion, Payload: e.payload})
	}
	lastSeq := kept[len(kept)-1].seq
	ck := checkpointRecord{seq: lastSeq, at: time.Now()}
	recs = append(recs, wal.Data{Kind: wal.KindCheckpoint, Payload: wal.Encode(&ck, codeCheckpoint)})

	if err := d.log.Compact(recs); err != nil {
		return err
	}
	d.versions = slices.Delete(d.versions, 0, from)
	d.sinceCompact = 0
	d.lastCheckpoint = lastSeq
	d.lastProvStep = w.Prov.Step()
	if n := w.Feedback.Len(); n > d.lastFeedbackSeq {
		d.lastFeedbackSeq = n
	}
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
