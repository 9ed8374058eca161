package core

import (
	"fmt"
	"slices"
	"time"

	"repro/internal/dataset"
	"repro/internal/er"
	"repro/internal/fusion"
	"repro/internal/wal"
)

// PairConstraints, BuildClaims and FusionOptions hand the reference test
// the tail's inputs as the session derives them: the hard pair
// constraints over the current union, its claims in row order, and the
// fusion policy with its feedback-pinned trust.
func (w *Wrangler) PairConstraints() (must, cannot []er.Pair) { return w.pairConstraints() }

// BuildClaims flattens the union into one claim per (row, attribute), in
// row order: the flat claim list fusion.GroupClaims groups into what the
// tail lays out entity by entity (claimGroups). The freshness column feeds
// each claim's AsOf and is not itself claimed.
func (w *Wrangler) BuildClaims() []fusion.Claim {
	tc := -1
	if w.Config.TimeColumn != "" {
		tc = w.union.Schema().Index(w.Config.TimeColumn)
	}
	var claims []fusion.Claim
	for i, r := range w.union.Rows() {
		asOf := time.Time{}
		if tc >= 0 && r[tc].Kind() == dataset.KindTime {
			asOf = r[tc].TimeVal()
		}
		for ci, f := range w.union.Schema() {
			if ci != tc {
				claims = append(claims, fusion.Claim{Entity: w.entityIDs[i], Attribute: f.Name,
					Value: r[ci], SourceID: w.unionSources[i], AsOf: asOf})
			}
		}
	}
	return claims
}

func (w *Wrangler) FusionOptions() fusion.Options { return w.fusionOptions() }

// MemoGroups returns the claim groups the last tail carries to the next
// reaction (nil without a memo).
func (w *Wrangler) MemoGroups() *fusion.ClaimGroups {
	if w.memo == nil {
		return nil
	}
	return w.groups
}

// DetachMemoUnion points the tail memo at a copy of the union, so the memo
// no longer vouches for the union the session holds.
func (w *Wrangler) DetachMemoUnion() { w.memo.union = w.union.Clone() }

// NewShardedWrangler is newShardedWrangler for the external tests.
func NewShardedWrangler(seed int64, nSources, shards int) *Wrangler {
	return newShardedWrangler(seed, nSources, shards)
}

// DropMemo forgets the tail memo, as a tail lost mid-flight does.
func (w *Wrangler) DropMemo() { w.memo = nil }

// DecodeRecords decodes a replayed log's records in order, each with its
// kind's code function; pages are read at the width the log's config
// record declares. The fixture test and FuzzDurableRecord use it.
func DecodeRecords(recs []wal.Record) ([]any, error) {
	width := 0
	out := make([]any, len(recs))
	for i, rec := range recs {
		v, err := DecodeRecord(rec.Kind, rec.Payload, width)
		if err != nil {
			return nil, fmt.Errorf("record %d kind 0x%x at offset 0x%x: %w", i, uint8(rec.Kind), rec.Offset, err)
		}
		if cfg, ok := v.(configRecord); ok {
			width = len(cfg.target)
		}
		out[i] = v
	}
	return out, nil
}

// DecodeRecord decodes one payload of the given kind.
func DecodeRecord(kind wal.Kind, payload []byte, width int) (any, error) {
	switch kind {
	case wal.KindConfig:
		return decodeAs(payload, codeConfig)
	case wal.KindSource:
		return decodeAs(payload, codeSource)
	case wal.KindFeedback:
		return decodeAs(payload, codeFeedback)
	case wal.KindProv:
		return decodeAs(payload, codeProv)
	case wal.KindPage:
		return decodeAs(payload, codePage(width))
	case wal.KindVersion:
		return decodeAs(payload, codeVersion)
	case wal.KindCheckpoint:
		return decodeAs(payload, codeCheckpoint)
	}
	return nil, fmt.Errorf("unknown record kind 0x%x", uint8(kind))
}

// EncodeRecord re-encodes a value DecodeRecord produced for kind.
func EncodeRecord(kind wal.Kind, v any) []byte {
	switch kind {
	case wal.KindConfig:
		return encodeAs(v, codeConfig)
	case wal.KindSource:
		return encodeAs(v, codeSource)
	case wal.KindFeedback:
		return encodeAs(v, codeFeedback)
	case wal.KindProv:
		return encodeAs(v, codeProv)
	case wal.KindPage:
		return encodeAs(v, codePage(0))
	case wal.KindVersion:
		return encodeAs(v, codeVersion)
	case wal.KindCheckpoint:
		return encodeAs(v, codeCheckpoint)
	}
	panic(fmt.Sprintf("unknown record kind 0x%x", uint8(kind)))
}

func decodeAs[T any](payload []byte, code func(*wal.Codec, *T)) (any, error) {
	var v T
	err := wal.Decode(payload, &v, code)
	return v, err
}

func encodeAs[T any](v any, code func(*wal.Codec, *T)) []byte {
	x := v.(T)
	return wal.Encode(&x, code)
}

// DecodeVersionInParts decodes a version payload the way replay does:
// the header first, then the body from where the header ended.
func DecodeVersionInParts(payload []byte) (any, error) {
	var lv loggedVersion
	n, err := wal.DecodePrefix(payload, &lv, codeVersionHeader)
	if err == nil {
		err = wal.DecodeAt(payload, n, &lv, codeVersionBody)
	}
	return lv, err
}

// Decoded reports how many page and version bodies the log has decoded
// since it was opened.
func (d *DurableLog) Decoded() (pages, versions int64) {
	return d.decoded.pages.Load(), d.decoded.versions.Load()
}

// PatchChain reports how many patch versions the log appended, or holds at
// its end, since its last full version.
func (d *DurableLog) PatchChain() int { return d.chain }

// TruncateNewestClusters drops the last row of the newest replayed
// version's cluster assignment, before attach: the log then restores and
// serves, but its working state cannot be rebuilt.
func (d *DurableLog) TruncateNewestClusters() error {
	st, err := d.state(d.rep.versions[len(d.rep.versions)-1])
	if err != nil {
		return err
	}
	st.clusters = &er.Clustering{Assign: st.clusters.Assign[:len(st.clusters.Assign)-1], Num: st.clusters.Num}
	return nil
}

// OutOfRangeNewestCluster moves the last row of the newest replayed
// version's cluster assignment to cluster id Num, one past the last,
// before attach: the assignment still covers the union, but names a
// cluster that does not exist.
func (d *DurableLog) OutOfRangeNewestCluster() error {
	st, err := d.state(d.rep.versions[len(d.rep.versions)-1])
	if err != nil {
		return err
	}
	assign := slices.Clone(st.clusters.Assign)
	assign[len(assign)-1] = st.clusters.Num
	st.clusters = &er.Clustering{Assign: assign, Num: st.clusters.Num}
	return nil
}
