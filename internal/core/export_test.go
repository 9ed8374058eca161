package core

import (
	"fmt"

	"repro/internal/er"
	"repro/internal/fusion"
	"repro/internal/wal"
)

// PairConstraints, BuildClaims and FusionOptions hand the reference test
// the tail's inputs as the session derives them: the hard pair
// constraints over the current union, its claims in row order, and the
// fusion policy with its feedback-pinned trust.
func (w *Wrangler) PairConstraints() (must, cannot []er.Pair) { return w.pairConstraints() }

func (w *Wrangler) BuildClaims() []fusion.Claim { return w.buildClaims() }

func (w *Wrangler) FusionOptions() fusion.Options { return w.fusionOptions() }

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

// TruncateNewestClusters drops the last row of the newest replayed
// version's cluster assignment, before attach: the log then restores and
// serves, but its working state cannot be rebuilt.
func (d *DurableLog) TruncateNewestClusters() error {
	lv, err := d.body(d.rep.versions[len(d.rep.versions)-1])
	if err != nil {
		return err
	}
	lv.clusters.Assign = lv.clusters.Assign[:len(lv.clusters.Assign)-1]
	return nil
}
