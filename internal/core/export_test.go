package core

import (
	"context"
	"fmt"
	"math"
	"reflect"
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
func (w *Wrangler) PairConstraints() (must, cannot []er.Pair) {
	return pairConstraints(w.labeledPairs(w.tail))
}

// BuildClaims flattens the union into one claim per (row, attribute), in
// row order: the flat claim list fusion.GroupClaims groups into what the
// tail lays out entity by entity (claimGroups). The freshness column feeds
// each claim's AsOf and is not itself claimed.
func (w *Wrangler) BuildClaims() []fusion.Claim {
	t := w.tail
	tc := -1
	if w.Config.TimeColumn != "" {
		tc = t.union.Schema().Index(w.Config.TimeColumn)
	}
	var claims []fusion.Claim
	for i, r := range t.union.Rows() {
		asOf := time.Time{}
		if tc >= 0 && r[tc].Kind() == dataset.KindTime {
			asOf = r[tc].TimeVal()
		}
		for ci, f := range t.union.Schema() {
			if ci != tc {
				claims = append(claims, fusion.Claim{Entity: t.entityIDs[i], Attribute: f.Name,
					Value: r[ci], SourceID: t.unionSources[i], AsOf: asOf})
			}
		}
	}
	return claims
}

func (w *Wrangler) FusionOptions() fusion.Options { return w.fusionOptions() }

// TailGroups returns the claim groups the installed tail state carries to
// the next reaction.
func (w *Wrangler) TailGroups() *fusion.ClaimGroups { return w.tail.groups }

// NewShardedWrangler is newShardedWrangler for the external tests.
func NewShardedWrangler(seed int64, nSources, shards int) *Wrangler {
	return newShardedWrangler(seed, nSources, shards)
}

// CancelAfterInstall returns a context that reports cancellation from the
// n-th time it is asked once a source was installed since w's tail state
// (w.dirtySources is not empty); asks before that do not count. A
// reaction asks once after it installed its sources, before its tail, and
// the engine once before each task it dispatches: n = 1 loses the tail
// before it starts, n = 3 right after its plan stage, and n = 2 plus the
// tail's task count before its merge.
func (w *Wrangler) CancelAfterInstall(parent context.Context, n int) context.Context {
	return &cancelAfterInstall{Context: parent, w: w, left: n}
}

type cancelAfterInstall struct {
	context.Context
	w    *Wrangler
	left int
}

func (c *cancelAfterInstall) Err() error {
	if len(c.w.dirtySources) > 0 {
		if c.left--; c.left <= 0 {
			return context.Canceled
		}
	}
	return c.Context.Err()
}

// check reports the first way t differs from ref, the state a FullRerun
// over the same sources and feedback installs (or a twin session's that
// made the same reactions). It states, for every field of the state,
// whether the field must equal ref's or is a declared cache, which may
// differ with how a tail got there:
//
//   - union, unionSources, unionKeys, unionIDs, unionStarts: equal, the
//     union row by row (Same records);
//   - resolver: its rule (Weights, Threshold) equal; its registries are a
//     cache;
//   - plan: present in both or neither, and equal but for its score cache
//     (scores) and its block features and index (feat, idx), which are in
//     the registries' id space;
//   - clusters, entityIDs, entities (ids, rows and how each was named):
//     equal;
//   - namesKept: a cache — how many names the last naming carried;
//   - results: equal, bit for bit (fusion.Result.Same and the keys);
//   - groups: their claims and entity starts equal; their prepared state
//     is a cache, and so is slabs, what the slabs they point into hold;
//   - free, handed: caches — whether, and what, a tail may hand on;
//   - wrangled (Same records), rowEntities, trust (bit for bit): equal.
func (t *tailState) check(ref *tailState) error {
	if err := sameTable("union", t.union, ref.union); err != nil {
		return err
	}
	for _, f := range []struct {
		name string
		a, b []string
	}{
		{"unionSources", t.unionSources, ref.unionSources},
		{"unionKeys", t.unionKeys, ref.unionKeys},
		{"unionIDs", t.unionIDs, ref.unionIDs},
		{"entityIDs", t.entityIDs, ref.entityIDs},
		{"entities.ids", t.entities.ids, ref.entities.ids},
		{"rowEntities", t.rowEntities, ref.rowEntities},
	} {
		if !slices.Equal(f.a, f.b) {
			return fmt.Errorf("%s: %d entries, want %d (%s)", f.name, len(f.a), len(f.b), firstDiff(f.a, f.b))
		}
	}
	if !slices.Equal(t.unionStarts, ref.unionStarts) {
		return fmt.Errorf("unionStarts %v, want %v", t.unionStarts, ref.unionStarts)
	}
	if (t.resolver == nil) != (ref.resolver == nil) ||
		t.resolver != nil && (!slices.Equal(t.resolver.Weights, ref.resolver.Weights) || t.resolver.Threshold != ref.resolver.Threshold) {
		return fmt.Errorf("resolver rule differs")
	}
	if err := samePlan(t.plan, ref.plan); err != nil {
		return err
	}
	if (t.clusters == nil) != (ref.clusters == nil) ||
		t.clusters != nil && (t.clusters.Num != ref.clusters.Num || !slices.Equal(t.clusters.Assign, ref.clusters.Assign)) {
		return fmt.Errorf("clusters differ")
	}
	if !reflect.DeepEqual(t.entities.rows, ref.entities.rows) || !slices.Equal(t.entities.base, ref.entities.base) {
		return fmt.Errorf("entity rows or name bases differ")
	}
	if len(t.results) != len(ref.results) {
		return fmt.Errorf("%d results, want %d", len(t.results), len(ref.results))
	}
	for i := range t.results {
		if a, b := &t.results[i], &ref.results[i]; a.Entity != b.Entity || a.Attribute != b.Attribute || !a.Same(b) {
			return fmt.Errorf("result %d %+v, want %+v", i, *a, *b)
		}
	}
	if err := sameGroups(t.groups, ref.groups); err != nil {
		return err
	}
	if err := sameTable("wrangled", t.wrangled, ref.wrangled); err != nil {
		return err
	}
	if len(t.trust) != len(ref.trust) {
		return fmt.Errorf("trust over %d sources, want %d", len(t.trust), len(ref.trust))
	}
	for src, v := range t.trust {
		if want, ok := ref.trust[src]; !ok || math.Float64bits(v) != math.Float64bits(want) {
			return fmt.Errorf("trust[%s] = %v, want %v", src, v, want)
		}
	}
	return nil
}

// firstDiff names the first entry two string lists differ at.
func firstDiff(a, b []string) string {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			return fmt.Sprintf("entry %d is %q, want %q", i, a[i], b[i])
		}
	}
	return "one is a prefix of the other"
}

// sameTable checks two tables hold Same records, row by row.
func sameTable(name string, a, b *dataset.Table) error {
	if (a == nil) != (b == nil) {
		return fmt.Errorf("%s: one of the tables is nil", name)
	}
	if a == nil {
		return nil
	}
	if a.Len() != b.Len() {
		return fmt.Errorf("%s: %d rows, want %d", name, a.Len(), b.Len())
	}
	for i := range a.Len() {
		if !a.Row(i).Same(b.Row(i)) {
			return fmt.Errorf("%s row %d: %v, want %v", name, i, a.Row(i), b.Row(i))
		}
	}
	return nil
}

// samePlan checks two plans are both absent or equal but for their
// declared caches. The plan's fields are er's own, so they are read by
// name and compared as printed.
func samePlan(a, b *er.PlanState) error {
	if (a == nil) != (b == nil) {
		return fmt.Errorf("plan present = %v, want %v", a != nil, b != nil)
	}
	if a == nil {
		return nil
	}
	va, vb := reflect.ValueOf(a).Elem(), reflect.ValueOf(b).Elem()
	for i := range va.NumField() {
		switch name := va.Type().Field(i).Name; name {
		case "scores", "feat", "idx":
		default:
			if x, y := fmt.Sprint(va.Field(i)), fmt.Sprint(vb.Field(i)); x != y {
				return fmt.Errorf("plan %s differs", name)
			}
		}
	}
	return nil
}

// sameGroups checks two claim groupings hold the same claims, group by
// group, with the same entity starts; prepared state is not compared.
func sameGroups(a, b *fusion.ClaimGroups) error {
	if (a == nil) != (b == nil) {
		return fmt.Errorf("groups present = %v, want %v", a != nil, b != nil)
	}
	if a == nil {
		return nil
	}
	if a.Len() != b.Len() || !slices.Equal(a.EntityStarts(), b.EntityStarts()) {
		return fmt.Errorf("%d groups, want %d, or their entity starts differ", a.Len(), b.Len())
	}
	for i := range a.Len() {
		ga, gb := a.Group(i), b.Group(i)
		if len(ga) != len(gb) {
			return fmt.Errorf("group %d holds %d claims, want %d", i, len(ga), len(gb))
		}
		for k := range ga {
			if x, y := &ga[k], &gb[k]; x.Entity != y.Entity || x.Attribute != y.Attribute || x.SourceID != y.SourceID ||
				!x.AsOf.Equal(y.AsOf) || !x.Value.Same(y.Value) {
				return fmt.Errorf("group %d claim %d %+v, want %+v", i, k, *x, *y)
			}
		}
	}
	return nil
}

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
	st, err := d.state(d.replayed[len(d.replayed)-1])
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
	st, err := d.state(d.replayed[len(d.replayed)-1])
	if err != nil {
		return err
	}
	assign := slices.Clone(st.clusters.Assign)
	assign[len(assign)-1] = st.clusters.Num
	st.clusters = &er.Clustering{Assign: assign, Num: st.clusters.Num}
	return nil
}
