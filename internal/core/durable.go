package core

import (
	"bytes"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"sort"
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
// publication appends O(delta) to the log — feedback items and source states
// that changed since the last publish, the provenance derivations since the
// last recorded step, any freshly fused shard pages (each page is serialized
// exactly once and referenced by id thereafter, the persistent form of the
// PR-4 pointer-sharing delta), and one version record referencing them.
// Because the wrangler only publishes after a fully successful run or
// reaction, the log tail is always a coherent committed snapshot: reopening
// it restores the session exactly as of its last publish (uncommitted
// working-set mutations are the only loss, by design).
//
// Compaction is bounded by the serve store's retention window: once 2×retain
// versions accumulate since the last checkpoint, the log is rewritten to
// config + full feedback/provenance/source state + the pages still referenced
// by retained versions + the retained version records + a checkpoint marker.

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
// record (reused verbatim by Compact) and the page ids it references.
type retainedVersion struct {
	seq     uint64
	payload []byte
	pageIDs []uint64
}

// DurableLog is an open durable session log. It is driven entirely by the
// owning wrangler (under the session lock); it is not safe for concurrent
// use on its own.
type DurableLog struct {
	dir string
	log *wal.Log
	rep *replayedLog // replayed state, consumed by AttachDurableLog

	configPayload []byte
	schema        dataset.Schema

	pageIDs    map[*shardPage]uint64 // live page → id (dedup by pointer identity)
	pagesByID  map[uint64]*shardPage
	nextPageID uint64

	lastProvStep    uint64
	lastFeedbackSeq int
	srcSig          map[string]sourceSig

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
	versions []*loggedVersion
}

// loggedVersion is one decoded version record.
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
	// (sequential or empty tails) carries table, results and entities inline.
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

// --- payload codecs -------------------------------------------------------

// encodeConfigPayload fingerprints the session shape the log was written
// under. Attach refuses a log whose config differs: the byte format of
// pages and versions (schema width) and the restore semantics (shards,
// retention) all hang off it.
func encodeConfigPayload(w *Wrangler, retain int) []byte {
	var e wal.Encoder
	e.Schema(w.Config.Target)
	e.String(w.Config.KeyColumn)
	e.String(w.Config.NameColumn)
	e.String(w.Config.SecondaryColumn)
	e.String(w.Config.NumericColumn)
	e.String(w.Config.TimeColumn)
	e.Varint(int64(w.IntegrationShards))
	// Was the StreamingRefresh knob; sharded sessions now always stream,
	// and every log a sharded session wrote carried true here.
	e.Bool(w.IntegrationShards > 0)
	e.Varint(int64(retain))
	return e.Bytes()
}

// decodeConfigSchema extracts the target schema from a config payload,
// validating the full record.
func decodeConfigSchema(payload []byte) (dataset.Schema, error) {
	d := wal.NewDecoder(payload)
	schema := d.Schema()
	for i := 0; i < 5; i++ {
		_ = d.String()
	}
	d.Int()
	d.Bool()
	d.Int()
	if err := d.Done(); err != nil {
		return nil, err
	}
	return schema, nil
}

// encodeSourcePayload writes one source's committed working state; a nil
// state is a tombstone (the source vanished from the session).
func encodeSourcePayload(id string, st *sourceState) []byte {
	var e wal.Encoder
	e.String(id)
	if st == nil {
		e.Bool(true)
		return e.Bytes()
	}
	e.Bool(false)
	if st.wrapper != nil {
		e.Bool(true)
		e.String(st.wrapper.SourceID)
		e.String(st.wrapper.RecordSelector)
		e.Uvarint(uint64(len(st.wrapper.Fields)))
		for _, f := range st.wrapper.Fields {
			e.String(f.Selector)
			e.String(f.Property)
			e.String(f.Header)
			e.Varint(int64(f.Index))
		}
		e.F64(st.wrapper.Confidence)
	} else {
		e.Bool(false)
	}
	if st.mapped != nil {
		e.Bool(true)
		e.Table(st.mapped)
	} else {
		e.Bool(false)
	}
	e.F64(st.quality.Accuracy)
	e.F64(st.quality.Completeness)
	e.F64(st.quality.Coverage)
	e.Varint(int64(st.quality.Rows))
	e.F64(st.scorecard.Completeness)
	e.F64(st.scorecard.Accuracy)
	e.F64(st.scorecard.Timeliness)
	e.F64(st.scorecard.Consistency)
	e.Varint(int64(st.scorecard.Rows))
	e.Bool(st.selected)
	e.F64(st.utility)
	return e.Bytes()
}

// decodeSourcePayload reads a source record. The raw extraction and the
// mapping object are not persisted: nothing reads them after install —
// reactions re-derive both when they re-process the source.
func decodeSourcePayload(payload []byte) (id string, st *sourceState, deleted bool, err error) {
	d := wal.NewDecoder(payload)
	id = d.String()
	if d.Bool() {
		return id, nil, true, d.Done()
	}
	st = &sourceState{}
	if d.Bool() {
		wr := &extract.Wrapper{SourceID: d.String(), RecordSelector: d.String()}
		n := d.Len(4)
		for i := 0; i < n; i++ {
			wr.Fields = append(wr.Fields, extract.FieldRule{
				Selector: d.String(), Property: d.String(), Header: d.String(), Index: d.Int(),
			})
			if d.Err() != nil {
				return id, nil, false, d.Err()
			}
		}
		wr.Confidence = d.F64()
		st.wrapper = wr
	}
	if d.Bool() {
		st.mapped = d.Table()
	}
	st.quality.Accuracy = d.F64()
	st.quality.Completeness = d.F64()
	st.quality.Coverage = d.F64()
	st.quality.Rows = d.Int()
	st.scorecard.Completeness = d.F64()
	st.scorecard.Accuracy = d.F64()
	st.scorecard.Timeliness = d.F64()
	st.scorecard.Consistency = d.F64()
	st.scorecard.Rows = d.Int()
	st.selected = d.Bool()
	st.utility = d.F64()
	return id, st, false, d.Done()
}

func encodeFeedbackPayload(it feedback.Item) []byte {
	var e wal.Encoder
	e.Varint(int64(it.Seq))
	e.String(string(it.Kind))
	e.String(it.SourceID)
	e.String(it.Entity)
	e.String(it.Attribute)
	e.String(it.PairKey)
	e.String(it.Worker)
	e.F64(it.Cost)
	e.F64(it.Weight)
	return e.Bytes()
}

func decodeFeedbackPayload(payload []byte) (feedback.Item, error) {
	d := wal.NewDecoder(payload)
	it := feedback.Item{
		Seq:       d.Int(),
		Kind:      feedback.Kind(d.String()),
		SourceID:  d.String(),
		Entity:    d.String(),
		Attribute: d.String(),
		PairKey:   d.String(),
		Worker:    d.String(),
		Cost:      d.F64(),
		Weight:    d.F64(),
	}
	return it, d.Done()
}

func encodeProvPayload(recs []provenance.Record) []byte {
	var e wal.Encoder
	e.Uvarint(uint64(len(recs)))
	for _, r := range recs {
		e.String(string(r.Artefact.Kind))
		e.String(r.Artefact.ID)
		e.String(r.Component)
		e.Uvarint(uint64(len(r.Inputs)))
		for _, in := range r.Inputs {
			e.String(string(in.Kind))
			e.String(in.ID)
		}
		e.Uvarint(r.Step)
		e.String(r.Note)
	}
	return e.Bytes()
}

func decodeProvPayload(payload []byte) ([]provenance.Record, error) {
	d := wal.NewDecoder(payload)
	n := d.Len(6)
	out := make([]provenance.Record, 0, n)
	for i := 0; i < n; i++ {
		r := provenance.Record{
			Artefact:  provenance.Ref{Kind: provenance.Kind(d.String()), ID: d.String()},
			Component: d.String(),
		}
		m := d.Len(2)
		for j := 0; j < m; j++ {
			r.Inputs = append(r.Inputs, provenance.Ref{Kind: provenance.Kind(d.String()), ID: d.String()})
		}
		r.Step = d.Uvarint()
		r.Note = d.String()
		if d.Err() != nil {
			return nil, d.Err()
		}
		out = append(out, r)
	}
	return out, d.Done()
}

func encodeResults(e *wal.Encoder, rs []fusion.Result) {
	e.Uvarint(uint64(len(rs)))
	for _, r := range rs {
		e.String(r.Entity)
		e.String(r.Attribute)
		e.Value(r.Value)
		e.F64(r.Confidence)
		e.Varint(int64(r.Support))
		e.Bool(r.Conflict)
	}
}

func decodeResults(d *wal.Decoder) []fusion.Result {
	n := d.Len(6)
	if n == 0 {
		return nil
	}
	out := make([]fusion.Result, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, fusion.Result{
			Entity:     d.String(),
			Attribute:  d.String(),
			Value:      d.Value(),
			Confidence: d.F64(),
			Support:    d.Int(),
			Conflict:   d.Bool(),
		})
		if d.Err() != nil {
			return nil
		}
	}
	return out
}

// encodePagePayload serializes one fused shard page. Pages are written
// exactly once: later versions reference the page id, which is what keeps
// the log O(delta) per publish.
func encodePagePayload(id uint64, p *shardPage) []byte {
	var e wal.Encoder
	e.Uvarint(id)
	e.Uvarint(uint64(len(p.entities)))
	for i, ent := range p.entities {
		e.String(ent)
		e.Record(p.rows[i])
	}
	encodeResults(&e, p.results)
	return e.Bytes()
}

func decodePagePayload(payload []byte, schema dataset.Schema) (uint64, *shardPage, error) {
	d := wal.NewDecoder(payload)
	id := d.Uvarint()
	n := d.Len(1 + len(schema))
	p := &shardPage{}
	for i := 0; i < n; i++ {
		p.entities = append(p.entities, d.String())
		p.rows = append(p.rows, d.Record(len(schema)))
		if d.Err() != nil {
			return 0, nil, d.Err()
		}
	}
	p.results = decodeResults(d)
	return id, p, d.Done()
}

func encodeStringF64Map(e *wal.Encoder, m map[string]float64) {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	e.Uvarint(uint64(len(keys)))
	for _, k := range keys {
		e.String(k)
		e.F64(m[k])
	}
}

func decodeStringF64Map(d *wal.Decoder) map[string]float64 {
	n := d.Len(9)
	m := make(map[string]float64, n)
	for i := 0; i < n; i++ {
		k := d.String()
		m[k] = d.F64()
		if d.Err() != nil {
			return nil
		}
	}
	return m
}

func encodeStringMap(e *wal.Encoder, m map[string]string) {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	e.Uvarint(uint64(len(keys)))
	for _, k := range keys {
		e.String(k)
		e.String(m[k])
	}
}

func decodeStringMap(d *wal.Decoder) map[string]string {
	n := d.Len(2)
	if n == 0 {
		return nil
	}
	m := make(map[string]string, n)
	for i := 0; i < n; i++ {
		k := d.String()
		m[k] = d.String()
		if d.Err() != nil {
			return nil
		}
	}
	return m
}

func encodeStageMap(e *wal.Encoder, m map[string]time.Duration) {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	e.Uvarint(uint64(len(keys)))
	for _, k := range keys {
		e.String(k)
		e.Duration(m[k])
	}
}

func decodeStageMap(d *wal.Decoder) map[string]time.Duration {
	n := d.Len(2)
	if n == 0 {
		return nil
	}
	m := make(map[string]time.Duration, n)
	for i := 0; i < n; i++ {
		k := d.String()
		m[k] = d.Duration()
		if d.Err() != nil {
			return nil
		}
	}
	return m
}

func encodeChangeSet(e *wal.Encoder, cs serve.ChangeSet) {
	e.Bool(cs.Full)
	e.Uvarint(uint64(len(cs.ChangedShards)))
	for _, s := range cs.ChangedShards {
		e.Varint(int64(s))
	}
	e.Varint(int64(cs.ChangedPages))
	e.Varint(int64(cs.SharedPages))
	e.Strings(cs.ChangedRecords)
	e.Strings(cs.RemovedRecords)
}

func decodeChangeSet(d *wal.Decoder) serve.ChangeSet {
	cs := serve.ChangeSet{Full: d.Bool()}
	n := d.Len(1)
	for i := 0; i < n; i++ {
		cs.ChangedShards = append(cs.ChangedShards, d.Int())
	}
	cs.ChangedPages = d.Int()
	cs.SharedPages = d.Int()
	cs.ChangedRecords = d.Strings()
	cs.RemovedRecords = d.Strings()
	return cs
}

// encodeVersionPayload writes one published version: its store metadata,
// the full Published payload (pages by reference when the sharded tail
// built them, inline otherwise), and the working tail a restart needs to
// resume incrementally — clusters, feedback watermark, dirty-source scope
// and whether a tail memo stood behind the version.
func encodeVersionPayload(w *Wrangler, v *PublishedVersion, pids []uint64) []byte {
	pub := v.Data()
	var e wal.Encoder
	e.U64(v.Seq())
	e.U64(v.Step())
	e.String(string(v.Origin()))
	e.Time(v.At())
	encodeChangeSet(&e, v.Changes())
	encodeStringF64Map(&e, pub.Trust)

	srcIDs := make([]string, 0, len(pub.Sources))
	for id := range pub.Sources {
		srcIDs = append(srcIDs, id)
	}
	sort.Strings(srcIDs)
	e.Uvarint(uint64(len(srcIDs)))
	for _, id := range srcIDs {
		sr := pub.Sources[id]
		e.String(id)
		e.Bool(sr.Selected)
		e.F64(sr.Utility)
		e.Varint(int64(sr.Rows))
		e.F64(sr.Completeness)
		e.F64(sr.Accuracy)
		e.F64(sr.Timeliness)
		e.F64(sr.Coverage)
	}
	e.Strings(pub.Selected)

	// The report is persisted inline: its supporter lists derive from this
	// version's union-time fusion bookkeeping, which is not reconstructible
	// for older retained versions. Pages still dedup the heavy table data.
	if pub.Report != nil {
		e.Bool(true)
		e.String(pub.Report.Title)
		e.Uvarint(uint64(len(pub.Report.Lines)))
		for _, ln := range pub.Report.Lines {
			e.String(ln.Entity)
			e.String(ln.Attribute)
			e.String(ln.Value)
			e.F64(ln.Confidence)
			e.Bool(ln.Conflict)
			e.Strings(ln.Supporters)
		}
	} else {
		e.Bool(false)
	}

	st := pub.Stats
	e.Varint(int64(st.SourcesProcessed))
	e.Varint(int64(st.SourcesSelected))
	e.Varint(int64(st.RowsExtracted))
	e.Varint(int64(st.RowsWrangled))
	e.Strings(st.Reextracted)
	e.Varint(int64(st.WrapperRepairs))
	encodeStringMap(&e, st.Failures)
	e.Duration(st.Duration)
	encodeStageMap(&e, st.Stages)

	rs := pub.React
	e.Varint(int64(rs.FeedbackItems))
	e.Varint(int64(rs.SourcesReextracted))
	e.Varint(int64(rs.Remapped))
	e.Bool(rs.Reclustered)
	e.Bool(rs.Refused)
	e.Varint(int64(rs.ShardsResolved))
	e.Varint(int64(rs.ShardsReused))
	e.Duration(rs.Duration)
	encodeStageMap(&e, rs.Stages)

	if pids != nil {
		e.U8(1)
		e.Uvarint(uint64(len(pids)))
		for _, pid := range pids {
			e.Uvarint(pid)
		}
	} else {
		e.U8(0)
		e.Table(pub.Table)
		encodeResults(&e, w.results)
		e.Strings(pub.Entities)
	}

	if w.clusters != nil {
		e.Bool(true)
		e.Varint(int64(w.clusters.Num))
		e.Uvarint(uint64(len(w.clusters.Assign)))
		for _, a := range w.clusters.Assign {
			e.Varint(int64(a))
		}
	} else {
		e.Bool(false)
	}
	e.Varint(int64(w.lastSeq))
	dirty := make([]string, 0, len(w.dirtySources))
	for id := range w.dirtySources {
		dirty = append(dirty, id)
	}
	sort.Strings(dirty)
	e.Strings(dirty)
	e.Bool(w.memo != nil)
	if w.memo != nil {
		// Reserved: five fields (varint, two floats, time, duration) that
		// held a fuse signature nothing reads any more. Written so the
		// record layout stays the one older logs carry.
		e.Varint(0)
		e.F64(0)
		e.F64(0)
		e.Time(time.Time{})
		e.Duration(0)
	}
	return e.Bytes()
}

func decodeVersionPayload(payload []byte) (*loggedVersion, error) {
	d := wal.NewDecoder(payload)
	lv := &loggedVersion{
		seq:    d.U64(),
		step:   d.U64(),
		origin: serve.Origin(d.String()),
		at:     d.Time(),
	}
	lv.changes = decodeChangeSet(d)
	lv.trust = decodeStringF64Map(d)

	n := d.Len(2)
	lv.sources = make(map[string]SourceReport, n)
	for i := 0; i < n; i++ {
		id := d.String()
		lv.sources[id] = SourceReport{
			Selected:     d.Bool(),
			Utility:      d.F64(),
			Rows:         d.Int(),
			Completeness: d.F64(),
			Accuracy:     d.F64(),
			Timeliness:   d.F64(),
			Coverage:     d.F64(),
		}
		if d.Err() != nil {
			return nil, d.Err()
		}
	}
	lv.selected = d.Strings()

	if d.Bool() {
		rep := &report.Report{Title: d.String()}
		m := d.Len(12)
		for i := 0; i < m; i++ {
			rep.Lines = append(rep.Lines, report.Line{
				Entity:     d.String(),
				Attribute:  d.String(),
				Value:      d.String(),
				Confidence: d.F64(),
				Conflict:   d.Bool(),
				Supporters: d.Strings(),
			})
			if d.Err() != nil {
				return nil, d.Err()
			}
		}
		lv.rep = rep
	}

	lv.stats = RunStats{
		SourcesProcessed: d.Int(),
		SourcesSelected:  d.Int(),
		RowsExtracted:    d.Int(),
		RowsWrangled:     d.Int(),
		Reextracted:      d.Strings(),
		WrapperRepairs:   d.Int(),
		Failures:         decodeStringMap(d),
		Duration:         d.Duration(),
		Stages:           decodeStageMap(d),
	}
	lv.react = ReactStats{
		FeedbackItems:      d.Int(),
		SourcesReextracted: d.Int(),
		Remapped:           d.Int(),
		Reclustered:        d.Bool(),
		Refused:            d.Bool(),
		ShardsResolved:     d.Int(),
		ShardsReused:       d.Int(),
		Duration:           d.Duration(),
		Stages:             decodeStageMap(d),
	}

	switch mode := d.U8(); mode {
	case 1:
		np := d.Len(1)
		lv.pages = make([]uint64, 0, np)
		for i := 0; i < np; i++ {
			lv.pages = append(lv.pages, d.Uvarint())
		}
	case 0:
		lv.table = d.Table()
		lv.results = decodeResults(d)
		lv.entities = d.Strings()
	default:
		d.Failf("invalid version payload mode 0x%x", mode)
	}

	if d.Bool() {
		c := &er.Clustering{Num: d.Int()}
		na := d.Len(1)
		c.Assign = make([]int, 0, na)
		for i := 0; i < na; i++ {
			c.Assign = append(c.Assign, d.Int())
		}
		lv.clusters = c
	}
	lv.lastSeq = d.Int()
	lv.dirty = d.Strings()
	if lv.memoValid = d.Bool(); lv.memoValid {
		// The reserved fuse-signature fields: read past, whatever they hold.
		d.Varint()
		d.F64()
		d.F64()
		d.Time()
		d.Duration()
	}
	if err := d.Done(); err != nil {
		return nil, err
	}
	return lv, nil
}

// --- open / replay --------------------------------------------------------

// OpenDurableLog opens (or creates) the durable log in dir and replays it.
// The result carries the replayed state until a wrangler attaches it; a
// torn tail is healed by the wal layer, and any record that fails domain
// decoding fails the open with the record's file offset.
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
		pageIDs:         map[*shardPage]uint64{},
		pagesByID:       map[uint64]*shardPage{},
		nextPageID:      1,
		srcSig:          map[string]sourceSig{},
		rep:             &replayedLog{states: map[string]*sourceState{}},
		replayTruncated: rr.Truncated,
	}
	fail := func(rec wal.Record, err error) (*DurableLog, error) {
		log.Close()
		return nil, fmt.Errorf("core: durable log: record kind 0x%x at offset 0x%x: %w", uint8(rec.Kind), rec.Offset, err)
	}
	var schema dataset.Schema
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
			schema, err = decodeConfigSchema(rec.Payload)
			if err != nil {
				return fail(rec, err)
			}
			d.configPayload = append([]byte(nil), rec.Payload...)
			d.schema = schema
			haveConfig = true
		case wal.KindSource:
			id, st, deleted, err := decodeSourcePayload(rec.Payload)
			if err != nil {
				return fail(rec, err)
			}
			if deleted {
				delete(d.rep.states, id)
			} else {
				d.rep.states[id] = st
			}
		case wal.KindFeedback:
			it, err := decodeFeedbackPayload(rec.Payload)
			if err != nil {
				return fail(rec, err)
			}
			if it.Seq != len(d.rep.feedback)+1 {
				return fail(rec, fmt.Errorf("feedback seq %d out of order (want %d)", it.Seq, len(d.rep.feedback)+1))
			}
			d.rep.feedback = append(d.rep.feedback, it)
			d.lastFeedbackSeq = it.Seq
		case wal.KindProv:
			recs, err := decodeProvPayload(rec.Payload)
			if err != nil {
				return fail(rec, err)
			}
			d.rep.prov = append(d.rep.prov, recs...)
			for _, r := range recs {
				if r.Step > d.lastProvStep {
					d.lastProvStep = r.Step
				}
			}
		case wal.KindPage:
			id, p, err := decodePagePayload(rec.Payload, schema)
			if err != nil {
				return fail(rec, err)
			}
			if _, dup := d.pagesByID[id]; dup {
				return fail(rec, fmt.Errorf("duplicate page id %d", id))
			}
			d.pagesByID[id] = p
			d.pageIDs[p] = id
			if id >= d.nextPageID {
				d.nextPageID = id + 1
			}
		case wal.KindVersion:
			lv, err := decodeVersionPayload(rec.Payload)
			if err != nil {
				return fail(rec, err)
			}
			lv.payload = append([]byte(nil), rec.Payload...)
			if n := len(d.rep.versions); n > 0 && lv.seq <= d.rep.versions[n-1].seq {
				return fail(rec, fmt.Errorf("version seq %d out of order after %d", lv.seq, d.rep.versions[n-1].seq))
			}
			d.rep.versions = append(d.rep.versions, lv)
			d.sinceCompact++
		case wal.KindCheckpoint:
			cd := wal.NewDecoder(rec.Payload)
			seq := cd.U64()
			cd.Time()
			if err := cd.Done(); err != nil {
				return fail(rec, err)
			}
			d.lastCheckpoint = seq
			d.sinceCompact = 0
		default:
			return fail(rec, fmt.Errorf("unknown record kind"))
		}
	}
	return d, nil
}

// Dir returns the state directory the log lives in.
func (d *DurableLog) Dir() string { return d.dir }

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
// session config; an existing one restores the serve store, the working
// data and the tail memo inputs, so the wrangler resumes exactly as of
// its last publish. It must be called on a freshly constructed wrangler
// (before any run). restored reports whether the log held committed
// versions — when true, the caller can serve immediately without a run.
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
	cfg := encodeConfigPayload(w, d.retain)
	if d.configPayload == nil {
		if err := d.log.Append(wal.KindConfig, cfg); err != nil {
			return false, err
		}
		if err := d.log.Commit(); err != nil {
			return false, err
		}
		d.configPayload = cfg
		d.schema = w.Config.Target
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
	}
	for id, st := range rep.states {
		d.srcSig[id] = sourceSig{st: st, selected: st.selected, utility: st.utility}
	}
	var floor uint64
	if n := len(rep.versions); n > 0 {
		floor = rep.versions[n-1].step
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
	restoredVersions := make([]serve.RestoredVersion[Published], 0, len(versions))
	for _, lv := range versions {
		pub, err := d.rebuildPublished(lv)
		if err != nil {
			return false, err
		}
		restoredVersions = append(restoredVersions, serve.RestoredVersion[Published]{
			Seq: lv.seq, Step: lv.step, Origin: lv.origin, At: lv.at, Data: pub, Changes: lv.changes,
		})
	}
	if err := w.Serve.Restore(restoredVersions); err != nil {
		return false, err
	}
	for _, lv := range versions {
		d.retained = append(d.retained, retainedVersion{seq: lv.seq, payload: lv.payload, pageIDs: lv.pages})
	}

	if err := w.restoreWorkingState(d, versions[len(versions)-1]); err != nil {
		return false, err
	}
	w.log = d
	return true, nil
}

// rebuildPublished reconstructs one version's Published payload. Mode-1
// versions rebuild table, results and entities from their shard pages —
// versions sharing a page id share the reconstructed records by pointer,
// restoring the delta-retention property on the way in.
func (d *DurableLog) rebuildPublished(lv *loggedVersion) (Published, error) {
	pub := Published{
		Report:   lv.rep,
		Stats:    lv.stats,
		React:    lv.react,
		Trust:    lv.trust,
		Sources:  lv.sources,
		Selected: lv.selected,
	}
	if lv.pages == nil {
		pub.Table = lv.table
		pub.Entities = lv.entities
		return pub, nil
	}
	pages := make([]*shardPage, len(lv.pages))
	for i, pid := range lv.pages {
		p, ok := d.pagesByID[pid]
		if !ok {
			return Published{}, fmt.Errorf("core: version %d references missing page %d", lv.seq, pid)
		}
		pages[i] = p
	}
	table, entities := mergePages(pages, d.schema)
	pub.Table = table
	pub.Entities = entities
	return pub, nil
}

// restoreWorkingState rebuilds the wrangler's in-memory tail from the
// newest retained version: the union and resolver are recomputed
// deterministically from the restored states and feedback (the same code
// path a live tail runs), the fused output is adopted from the version's
// pages (or inline payload), and — when the version committed a coherent
// tail memo — the memo's inputs are reconstructed so the first
// reaction after restart is a partial tail.
func (w *Wrangler) restoreWorkingState(d *DurableLog, lv *loggedVersion) error {
	empty, err := w.buildUnion()
	if err != nil {
		return err
	}
	w.trust = maps.Clone(lv.trust)
	w.LastStats = lv.stats
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
		w.entityShard = nil
	} else {
		pages := make([]*shardPage, len(lv.pages))
		for i, pid := range lv.pages {
			p, ok := d.pagesByID[pid]
			if !ok {
				return fmt.Errorf("core: version %d references missing page %d", lv.seq, pid)
			}
			pages[i] = p
		}
		w.pages = pages
		entityShard := map[string]int{}
		for i, p := range pages {
			for _, e := range p.entities {
				if _, ok := entityShard[e]; !ok {
					entityShard[e] = i
				}
			}
		}
		w.entityShard = entityShard
		parts := make([][]fusion.Result, len(pages))
		for i, p := range pages {
			parts[i] = p.results
		}
		w.results = fusion.MergeResults(parts...)
		w.wrangled, w.rowEntities = mergePages(pages, d.schema)
	}
	w.supporters = nil
	if w.clusters == nil || len(w.clusters.Assign) != w.union.Len() {
		return fmt.Errorf("core: version %d clusters do not cover the restored union (%d rows)", lv.seq, w.union.Len())
	}
	w.entityIDs = w.entityNames()
	w.LastStats.RowsWrangled = lv.stats.RowsWrangled

	// Rebuild the tail memo only when the persisted tail is coherent:
	// the memo was valid at publish, the session still shards, and no
	// source state diverged from the memoized union afterwards
	// (non-empty dirty means an aborted reaction installed sources between
	// publishes — the rebuilt union would not be the memo's union). A
	// failed rebuild degrades to a full first tail, never an error: outputs
	// stay byte-identical either way.
	if lv.memoValid && w.IntegrationShards > 0 && len(w.pages) > 0 && len(lv.dirty) == 0 {
		w.rebuildMemo()
	}
	return nil
}

// rebuildMemo reconstructs the tail memo's inputs from the restored union
// and clusters. The shard plan and the cluster representatives are
// deterministic functions of what was restored; the trust memo is not
// persisted — nil only means the first estimation prepares every claim
// group, and its result is float-exact either way.
func (w *Wrangler) rebuildMemo() {
	must, cannot := w.pairConstraints()
	rowKeys := w.rowKeys()
	// No previous plan state: a fresh plan over the union buildUnion just
	// prepared.
	rp, err := w.resolver.RePlan(w.union, w.IntegrationShards, must, cannot, rowKeys, nil, nil)
	if err != nil || rp.Plan.NumShards != len(w.pages) {
		return
	}
	roots := make([]map[int]int, rp.Plan.NumShards)
	for s, rows := range rp.Plan.Rows {
		m := make(map[int]int, len(rows))
		repOf := map[int]int{}
		for _, row := range rows {
			cid := w.clusters.Assign[row]
			rep, ok := repOf[cid]
			if !ok {
				rep = row
				repOf[cid] = row
			}
			m[row] = rep
		}
		roots[s] = m
	}
	ps, err := er.BuildPlanState(w.resolver, rp.Plan, rowKeys, roots, must, cannot)
	if err != nil {
		return
	}
	w.memo = w.newTailMemo(ps, nil)
}

// --- append ---------------------------------------------------------------

// appendFeedback logs one accepted feedback item as it arrives, so a crash
// between feedback and the next publish loses no paid-for labels. Errors
// are sticky on the log handle and surface via Err/Checkpoint/Close.
func (d *DurableLog) appendFeedback(it feedback.Item) {
	if it.Seq <= d.lastFeedbackSeq {
		return
	}
	_ = d.log.Append(wal.KindFeedback, encodeFeedbackPayload(it))
	_ = d.log.Commit()
	d.lastFeedbackSeq = it.Seq
}

// appendVersion logs everything one committed publication changed: new
// feedback (catch-up for items added outside the AddFeedback hook), source
// states whose working data moved, the provenance delta, any freshly built
// shard pages, and the version record itself. One Commit flushes the
// batch; compaction triggers once 2×retain versions accumulate.
func (d *DurableLog) appendVersion(w *Wrangler, v *PublishedVersion) {
	for _, it := range w.Feedback.Since(d.lastFeedbackSeq) {
		_ = d.log.Append(wal.KindFeedback, encodeFeedbackPayload(it))
		d.lastFeedbackSeq = it.Seq
	}

	ids := make([]string, 0, len(w.states))
	for id := range w.states {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		st := w.states[id]
		sig, ok := d.srcSig[id]
		if ok && sig.st == st && sig.selected == st.selected && sig.utility == st.utility {
			continue
		}
		_ = d.log.Append(wal.KindSource, encodeSourcePayload(id, st))
		d.srcSig[id] = sourceSig{st: st, selected: st.selected, utility: st.utility}
	}
	var gone []string
	for id := range d.srcSig {
		if _, ok := w.states[id]; !ok {
			gone = append(gone, id)
		}
	}
	sort.Strings(gone)
	for _, id := range gone {
		_ = d.log.Append(wal.KindSource, encodeSourcePayload(id, nil))
		delete(d.srcSig, id)
	}

	if recs := w.Prov.RecordsSince(d.lastProvStep); len(recs) > 0 {
		_ = d.log.Append(wal.KindProv, encodeProvPayload(recs))
	}
	d.lastProvStep = w.Prov.Step()

	var pids []uint64
	if w.pages != nil {
		pids = make([]uint64, len(w.pages))
		for i, p := range w.pages {
			id, ok := d.pageIDs[p]
			if !ok {
				id = d.nextPageID
				d.nextPageID++
				d.pageIDs[p] = id
				d.pagesByID[id] = p
				_ = d.log.Append(wal.KindPage, encodePagePayload(id, p))
			}
			pids[i] = id
		}
	}
	payload := encodeVersionPayload(w, v, pids)
	_ = d.log.Append(wal.KindVersion, payload)
	_ = d.log.Commit()

	d.retained = append(d.retained, retainedVersion{seq: v.Seq(), payload: payload, pageIDs: pids})
	if len(d.retained) > d.retain {
		d.retained = d.retained[len(d.retained)-d.retain:]
	}
	d.sinceCompact++
	if d.sinceCompact >= 2*d.retain {
		d.compact(w)
	}
}

// compact rewrites the log to its minimal coherent form — config, full
// feedback and provenance, every current source state, the pages still
// referenced by retained versions, the retained version records and a
// checkpoint marker — then prunes the in-memory page index to the live
// set. A page that was pruned but is still held by the tail memo
// simply gets a fresh id if a later tail reuses it.
func (d *DurableLog) compact(w *Wrangler) {
	if len(d.retained) == 0 {
		return
	}
	var recs []wal.Data
	recs = append(recs, wal.Data{Kind: wal.KindConfig, Payload: d.configPayload})
	for _, it := range w.Feedback.Items("") {
		recs = append(recs, wal.Data{Kind: wal.KindFeedback, Payload: encodeFeedbackPayload(it)})
	}
	if prov := w.Prov.RecordsSince(0); len(prov) > 0 {
		recs = append(recs, wal.Data{Kind: wal.KindProv, Payload: encodeProvPayload(prov)})
	}
	ids := make([]string, 0, len(w.states))
	for id := range w.states {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		recs = append(recs, wal.Data{Kind: wal.KindSource, Payload: encodeSourcePayload(id, w.states[id])})
	}
	live := map[uint64]bool{}
	for _, rv := range d.retained {
		for _, pid := range rv.pageIDs {
			live[pid] = true
		}
	}
	livePids := make([]uint64, 0, len(live))
	for pid := range live {
		livePids = append(livePids, pid)
	}
	sort.Slice(livePids, func(i, j int) bool { return livePids[i] < livePids[j] })
	for _, pid := range livePids {
		recs = append(recs, wal.Data{Kind: wal.KindPage, Payload: encodePagePayload(pid, d.pagesByID[pid])})
	}
	for _, rv := range d.retained {
		recs = append(recs, wal.Data{Kind: wal.KindVersion, Payload: rv.payload})
	}
	lastSeq := d.retained[len(d.retained)-1].seq
	var ck wal.Encoder
	ck.U64(lastSeq)
	ck.Time(time.Now())
	recs = append(recs, wal.Data{Kind: wal.KindCheckpoint, Payload: ck.Bytes()})

	if err := d.log.Compact(recs); err != nil {
		return // sticky on the handle; surfaced via Err/Checkpoint/Close
	}
	d.sinceCompact = 0
	d.lastCheckpoint = lastSeq
	d.lastProvStep = w.Prov.Step()
	if n := w.Feedback.Len(); n > d.lastFeedbackSeq {
		d.lastFeedbackSeq = n
	}
	pagesByID := make(map[uint64]*shardPage, len(live))
	pageIDs := make(map[*shardPage]uint64, len(live))
	for pid := range live {
		p := d.pagesByID[pid]
		pagesByID[pid] = p
		pageIDs[p] = pid
	}
	d.pagesByID = pagesByID
	d.pageIDs = pageIDs
}

// Durable returns the attached durable log, or nil for in-memory sessions.
func (w *Wrangler) Durable() *DurableLog { return w.log }

// Checkpoint forces a compaction cycle (when any version has been
// published) and fsyncs the log: on return, everything committed so far is
// durable against power loss, and the log is at its minimal size.
func (w *Wrangler) Checkpoint() error {
	if w.log == nil {
		return fmt.Errorf("core: no durable log attached")
	}
	if len(w.log.retained) > 0 {
		w.log.compact(w)
	}
	if err := w.log.Err(); err != nil {
		return err
	}
	return w.log.log.Sync()
}
