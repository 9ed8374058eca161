package core

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	wctx "repro/internal/context"
	"repro/internal/feedback"
	"repro/internal/ontology"
	"repro/internal/wal"
)

// TestRestoreBrokenChain pins what a restore does when a patch's chain is
// broken: reading a version whose chain builds on a full version whose
// record is cut short, or on a version the log no longer holds, fails
// with an error that names the file offset of the record it could not
// read past — from the attach when the newest version's chain is broken,
// from At for an older one — and never panics or serves a table built on
// another base. The log: a run, a value-feedback patch and refreshes of
// every source with heavy churn, until the size rule writes a second full
// version, then two more patches on it. An older log whose full versions
// reference page records fails the same way on truncated pages.
func TestRestoreBrokenChain(t *testing.T) {
	dir := t.TempDir()
	u := &hollowUniverse{Universe: buildUniverse(5, 6, true), hollow: map[string]bool{}}
	newWrangler := func(serve *VersionStore) *Wrangler {
		w := New(u, ProductConfig(), nil, wctx.NewDataContext().WithTaxonomy(ontology.ProductTaxonomy()))
		w.IntegrationShards = 4
		if serve != nil {
			w.Serve = serve
		}
		return w
	}
	w := newWrangler(NewVersionStore(16))
	d, err := OpenDurableLog(dir, FsyncOnCheckpoint)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.AttachDurableLog(d); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Run(); err != nil {
		t.Fatal(err)
	}
	l := w.Serve.Latest().Data().Report.Lines[0]
	w.AddFeedback(feedback.Item{Kind: feedback.ValueIncorrect, SourceID: l.Supporters[0], Entity: l.Entity,
		Attribute: l.Attribute, Worker: "expert", Cost: 1})
	if _, err := w.ReactToFeedbackContext(t.Context()); err != nil {
		t.Fatal(err)
	}
	fulls := 0 // full versions since the run's
	for fulls < 1 || d.chain < 2 {
		u.World.Evolve(1)
		if _, err := w.RefreshSourcesContext(t.Context(), w.SelectedSources()); err != nil {
			t.Fatal(err)
		}
		if !d.versions[len(d.versions)-1].patch {
			fulls++
		}
		if len(d.versions) > 14 {
			t.Fatal("the size rule wrote no second full version")
		}
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	recs := readRecords(t, filepath.Join(dir, logFileName))
	var versions []int // record indexes
	for i, rec := range recs {
		if rec.Kind == wal.KindVersion {
			versions = append(versions, i)
		}
	}
	// rewrite writes recs again with edit applied and opens and attaches
	// the log over a fresh session serving from store.
	rewrite := func(t *testing.T, recs []wal.Record, store *VersionStore, edit func([]wal.Record) []wal.Record) (*Wrangler, *DurableLog, error) {
		t.Helper()
		dir := t.TempDir()
		nl, _, err := wal.Open(filepath.Join(dir, logFileName), FsyncOnCheckpoint)
		if err != nil {
			t.Fatal(err)
		}
		for _, rec := range edit(append([]wal.Record(nil), recs...)) {
			if err := nl.Append(rec.Kind, rec.Payload); err != nil {
				t.Fatal(err)
			}
		}
		if err := nl.Commit(); err != nil {
			t.Fatal(err)
		}
		if err := nl.Close(); err != nil {
			t.Fatal(err)
		}
		w := newWrangler(store)
		d, err := OpenDurableLog(dir, FsyncOnCheckpoint)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { d.Close() })
		_, err = w.AttachDurableLog(d)
		return w, d, err
	}
	// cut cuts the record of the full version at versions[v] to its header,
	// which open reads: its body no longer decodes.
	cut := func(v int) func([]wal.Record) []wal.Record {
		return func(rs []wal.Record) []wal.Record {
			i := versions[v]
			n, err := wal.DecodePrefix(rs[i].Payload, &loggedVersion{}, codeVersionHeader)
			if err != nil {
				t.Fatal(err)
			}
			rs[i].Payload = rs[i].Payload[:n]
			return rs
		}
	}
	wantOffset := func(t *testing.T, err error, what string) {
		t.Helper()
		if err == nil || !strings.Contains(err.Error(), "at offset 0x") || !strings.Contains(err.Error(), what) {
			t.Fatalf("got %v, want an error naming a record's file offset and %q", err, what)
		}
	}

	second := len(versions) - 1 - d.chain // the newest full version, by position

	t.Run("newest chain on a cut base", func(t *testing.T) {
		_, _, err := rewrite(t, recs, NewVersionStore(16), cut(second))
		wantOffset(t, err, "builds on version")
	})
	t.Run("older chain on a cut base", func(t *testing.T) {
		w, _, err := rewrite(t, recs, NewVersionStore(16), cut(0))
		if err != nil {
			t.Fatalf("attach: %v", err)
		}
		for i, seq := range w.Serve.Versions() {
			v, err := w.Serve.At(seq)
			switch {
			case i == 0:
				wantOffset(t, err, "record kind 0x56") // its own record
			case i < second:
				wantOffset(t, err, "builds on version 1")
			case err != nil:
				t.Fatalf("At(%d), past the broken chain: %v", seq, err)
			case v.Data().Table.Len() == 0:
				t.Fatalf("At(%d) served an empty table", seq)
			}
		}
	})
	t.Run("missing base", func(t *testing.T) {
		_, _, err := rewrite(t, recs, NewVersionStore(16), func(rs []wal.Record) []wal.Record {
			return append(rs[:versions[second]:versions[second]], rs[versions[second]+1:]...)
		})
		wantOffset(t, err, "which the log does not hold")
	})
	t.Run("truncated pages of an older log", func(t *testing.T) {
		// testdata/patch4.wal's newest version patches a full version whose
		// output is cut into page records.
		_, _, err := rewrite(t, readRecords(t, filepath.Join("testdata", "patch4.wal")), nil, func(rs []wal.Record) []wal.Record {
			for i := range rs {
				if rs[i].Kind == wal.KindPage {
					rs[i].Payload = rs[i].Payload[:1]
				}
			}
			return rs
		})
		wantOffset(t, err, "record kind 0x50")
	})
}

// readRecords reads and scans the log file at path.
func readRecords(t *testing.T, path string) []wal.Record {
	t.Helper()
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	recs, _, err := wal.Scan(buf)
	if err != nil {
		t.Fatal(err)
	}
	return recs
}
