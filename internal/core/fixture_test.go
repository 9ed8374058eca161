package core_test

import (
	"bytes"
	"compress/gzip"
	"context"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/wal"
	"repro/internal/wrangletest"
)

// The fixture logs in testdata were written by the parent of the commit
// that introduced wal.Codec, whose encoders and decoders were hand-paired,
// with this script on wrangletest.NewWrangler(fixtureSeed,
// fixtureSources, shards) under a fresh durable log: Run; EvolveWorld
// (fixtureChurn[0]) and refresh every selected source; one value_incorrect
// item on the first report line (against its first supporter) and the
// feedback reaction; EvolveWorld(fixtureChurn[1]) and refresh the first
// selected source. The shards=0 log was then checkpointed (so it also
// carries a compacted image and a checkpoint record); both were closed.
// Beside each log sit the parent's dump of every decoded record
// (dumpRecords, gzipped) and the Fingerprint a session restored from the
// log printed there — the same for both logs, since sharded and
// sequential sessions fingerprint identically. Nothing regenerates them:
// they pin what the parent wrote and read.
const (
	fixtureSeed    = int64(11)
	fixtureSources = 3
)

var fixtureChurn = []float64{0.25, 0.2}

// TestParentWrittenLogs pins the frozen record layout against logs the
// hand-paired codec wrote: every record re-encodes to its exact bytes,
// decodes to exactly what the parent decoded (dumped field by field,
// nil apart from empty, floats by bit pattern), and attaching the log
// restores the session the parent restored — on the sharded log with a
// tail memo, so the first refresh reuses shards; on the shards=0 log,
// whose versions the then-separate sequential tail wrote inline and
// without a memo, so the first refresh is a full tail at one shard.
func TestParentWrittenLogs(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "restored.fingerprint"))
	if err != nil {
		t.Fatal(err)
	}
	for _, shards := range []int{0, 4} {
		name := fmt.Sprintf("shards%d", shards)
		t.Run(name, func(t *testing.T) {
			buf, err := os.ReadFile(filepath.Join("testdata", name+".wal"))
			if err != nil {
				t.Fatal(err)
			}
			recs, _, err := wal.Scan(buf)
			if err != nil {
				t.Fatalf("scan: %v", err)
			}
			vals, err := core.DecodeRecords(recs)
			if err != nil {
				t.Fatalf("decode: %v", err)
			}
			for i, rec := range recs {
				if got := core.EncodeRecord(rec.Kind, vals[i]); !bytes.Equal(got, rec.Payload) {
					t.Errorf("record %d kind %q at 0x%x re-encodes to %d bytes, differing from the %d the parent wrote",
						i, rune(rec.Kind), rec.Offset, len(got), len(rec.Payload))
				}
			}
			if got, want := dumpRecords(recs, vals), gunzip(t, filepath.Join("testdata", name+".dump.gz")); got != want {
				t.Errorf("decoded records differ from the parent's:\n%s", lineDiff(want, got))
			}

			dir := t.TempDir()
			if err := os.WriteFile(filepath.Join(dir, "wrangle.wal"), buf, 0o644); err != nil {
				t.Fatal(err)
			}
			w := wrangletest.NewWrangler(fixtureSeed, fixtureSources, shards)
			for _, churn := range fixtureChurn {
				w.EvolveWorld(churn)
			}
			d, err := core.OpenDurableLog(dir, core.FsyncOnCheckpoint)
			if err != nil {
				t.Fatalf("open: %v", err)
			}
			defer d.Close()
			if restored, err := w.AttachDurableLog(d); err != nil || !restored {
				t.Fatalf("attach: restored=%v err=%v", restored, err)
			}
			if got := wrangletest.Fingerprint(w); got != string(want) {
				t.Fatalf("restored session differs from the parent's:\n%s", lineDiff(string(want), got))
			}
			stats, err := w.RefreshSourcesContext(context.Background(), w.SelectedSources()[:1])
			if err != nil {
				t.Fatalf("refresh: %v", err)
			}
			if shards > 0 {
				if stats.ShardsReused == 0 {
					t.Fatalf("first refresh after restore reused no shards (resolved %d): the tail memo was not rebuilt", stats.ShardsResolved)
				}
			} else if stats.ShardsResolved != 1 || stats.ShardsReused != 0 {
				// The sequential tail's inline versions carry no memo: the
				// first tail is a full one at one shard.
				t.Fatalf("first refresh after restoring inline versions resolved %d and reused %d shards, want a full one-shard tail",
					stats.ShardsResolved, stats.ShardsReused)
			}
		})
	}
}

// FuzzDurableRecord feeds (kind, payload) pairs, seeded with every record
// of both fixture logs, to the record codec: decoding never panics, and an
// accepted payload re-encodes to bytes that decode to the same value and
// re-encode to the same bytes again. (The first re-encode need not equal
// the input: uvarints accept non-minimal forms and maps unsorted keys.)
func FuzzDurableRecord(f *testing.F) {
	for _, name := range []string{"shards0.wal", "shards4.wal"} {
		buf, err := os.ReadFile(filepath.Join("testdata", name))
		if err != nil {
			f.Fatal(err)
		}
		recs, _, err := wal.Scan(buf)
		if err != nil {
			f.Fatal(err)
		}
		for _, rec := range recs {
			f.Add(uint8(rec.Kind), rec.Payload)
		}
	}
	width := len(core.ProductConfig().Target)
	f.Fuzz(func(t *testing.T, kind uint8, payload []byte) {
		k := wal.Kind(kind)
		v, err := core.DecodeRecord(k, payload, width)
		if err != nil {
			return
		}
		enc := core.EncodeRecord(k, v)
		v2, err := core.DecodeRecord(k, enc, width)
		if err != nil {
			t.Fatalf("re-encoded record does not decode: %v", err)
		}
		if a, b := dumpOne(v), dumpOne(v2); a != b {
			t.Fatalf("re-encoding changed the record:\n%s", lineDiff(a, b))
		}
		if enc2 := core.EncodeRecord(k, v2); !bytes.Equal(enc, enc2) {
			t.Fatalf("second re-encode differs: %d vs %d bytes", len(enc), len(enc2))
		}
	})
}

func gunzip(t *testing.T, path string) string {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	zr, err := gzip.NewReader(f)
	if err != nil {
		t.Fatal(err)
	}
	b, err := io.ReadAll(zr)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// lineDiff shows the first differing line of two dumps, cut to a window
// around the first differing byte.
func lineDiff(want, got string) string {
	w, g := strings.Split(want, "\n"), strings.Split(got, "\n")
	for i := 0; i < len(w) && i < len(g); i++ {
		if w[i] == g[i] {
			continue
		}
		j := 0
		for j < len(w[i]) && j < len(g[i]) && w[i][j] == g[i][j] {
			j++
		}
		cut := func(s string) string { return s[max(0, j-80):min(len(s), j+80)] }
		return fmt.Sprintf("line %d, byte %d:\n want …%s…\n  got …%s…", i+1, j, cut(w[i]), cut(g[i]))
	}
	return fmt.Sprintf("%d lines, want %d", len(g), len(w))
}

// dumpRecords renders every decoded record of a log: a header line per
// record, then one line per leaf of the decoded value.
func dumpRecords(recs []wal.Record, vals []any) string {
	var b strings.Builder
	for i, rec := range recs {
		fmt.Fprintf(&b, "# record %d kind=%q offset=%#x\n", i, rune(rec.Kind), rec.Offset)
		dumpValue(&b, "v", reflect.ValueOf(vals[i]))
	}
	return b.String()
}

func dumpOne(v any) string {
	var b strings.Builder
	dumpValue(&b, "v", reflect.ValueOf(v))
	return b.String()
}

var timeType = reflect.TypeOf(time.Time{})

// dumpValue walks v by reflection, unexported fields included. Nil and
// empty print differently ("nil" against "[]" or "map[0]"), floats print
// by bit pattern, struct fields holding their zero value are omitted, and
// a struct or slice at most two levels deep (a record, a report line, a
// schema) prints on one line.
func dumpValue(b *strings.Builder, path string, v reflect.Value) {
	if s, ok := dumpLeaf(v, 2); ok {
		fmt.Fprintf(b, "%s = %s\n", path, s)
		return
	}
	switch v.Kind() {
	case reflect.Pointer, reflect.Interface:
		if v.IsNil() {
			fmt.Fprintf(b, "%s = nil\n", path)
			return
		}
		dumpValue(b, path, v.Elem())
	case reflect.Slice, reflect.Array:
		if v.Kind() == reflect.Slice && v.IsNil() {
			fmt.Fprintf(b, "%s = nil\n", path)
			return
		}
		fmt.Fprintf(b, "%s = [%d]\n", path, v.Len())
		for i := 0; i < v.Len(); i++ {
			dumpValue(b, fmt.Sprintf("%s[%d]", path, i), v.Index(i))
		}
	case reflect.Map:
		if v.IsNil() {
			fmt.Fprintf(b, "%s = nil\n", path)
			return
		}
		fmt.Fprintf(b, "%s = map[%d]\n", path, v.Len())
		keys := v.MapKeys()
		names := make([]string, len(keys))
		for i, k := range keys {
			names[i], _ = dumpLeaf(k, 0)
		}
		order := make([]int, len(keys))
		for i := range order {
			order[i] = i
		}
		sort.Slice(order, func(i, j int) bool { return names[order[i]] < names[order[j]] })
		for _, i := range order {
			dumpValue(b, fmt.Sprintf("%s[%s]", path, names[i]), v.MapIndex(keys[i]))
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if f := v.Field(i); !f.IsZero() {
				dumpValue(b, path+"."+v.Type().Field(i).Name, f)
			}
		}
	default:
		fmt.Fprintf(b, "%s = <%s>\n", path, v.Type())
	}
}

// dumpLeaf renders a scalar, a time, or a struct or non-nil slice at most
// depth levels deep on one line; ok is false for anything that needs
// dumpValue's expansion.
func dumpLeaf(v reflect.Value, depth int) (string, bool) {
	switch v.Kind() {
	case reflect.Bool:
		return strconv.FormatBool(v.Bool()), true
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		return strconv.FormatInt(v.Int(), 10), true
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		return strconv.FormatUint(v.Uint(), 10), true
	case reflect.Float32, reflect.Float64:
		return fmt.Sprintf("f%016x", math.Float64bits(v.Float())), true
	case reflect.String:
		return strconv.Quote(v.String()), true
	case reflect.Struct:
		if v.Type() == timeType {
			// wall and ext are exact; the location is only told apart
			// from UTC's nil (its zone data is the machine's).
			return fmt.Sprintf("time(%#x,%d,%t)", v.FieldByName("wall").Uint(), v.FieldByName("ext").Int(), !v.FieldByName("loc").IsNil()), true
		}
		if depth == 0 {
			return "", false
		}
		var parts []string
		for i := 0; i < v.NumField(); i++ {
			f := v.Field(i)
			if f.IsZero() {
				continue
			}
			s, ok := dumpLeaf(f, depth-1)
			if !ok {
				return "", false
			}
			parts = append(parts, v.Type().Field(i).Name+":"+s)
		}
		return "{" + strings.Join(parts, " ") + "}", true
	case reflect.Slice:
		if depth == 0 || v.IsNil() {
			return "", false
		}
		parts := make([]string, v.Len())
		for i := range parts {
			s, ok := dumpLeaf(v.Index(i), depth-1)
			if !ok {
				return "", false
			}
			parts[i] = s
		}
		return "[" + strings.Join(parts, " ") + "]", true
	}
	return "", false
}
