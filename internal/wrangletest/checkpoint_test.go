package wrangletest

import (
	"context"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
)

// TestCheckpointReportsCompactionFailure pins that a checkpoint whose
// compaction fails says so: with a directory squatting on the log's
// temporary compaction path, Checkpoint returns an error, the checkpoint
// seq does not move, and the log still restores the live session; once
// the squatter is gone the checkpoint succeeds.
func TestCheckpointReportsCompactionFailure(t *testing.T) {
	const (
		seed     = int64(31)
		nSources = 5
		shards   = 2
	)
	ctx := context.Background()
	dir := t.TempDir()

	live := NewWrangler(seed, nSources, shards)
	openDurable(t, live, dir)
	if _, err := live.Run(); err != nil {
		t.Fatalf("run: %v", err)
	}
	script := Script(rand.New(rand.NewSource(seed)), live, 3)
	for _, step := range script {
		if _, _, err := step.Apply(ctx, live); err != nil {
			t.Fatalf("%s: %v", step.Name, err)
		}
	}
	logPath := filepath.Join(dir, "wrangle.wal")
	squatter := logPath + ".compact"
	if err := os.Mkdir(squatter, 0o755); err != nil {
		t.Fatal(err)
	}
	before := live.Durable().Stats()
	if err := live.Checkpoint(); err == nil {
		t.Fatal("Checkpoint reported success although compaction could not create its temporary file")
	}
	if after := live.Durable().Stats(); after.LastCheckpointSeq != before.LastCheckpointSeq || after.Bytes != before.Bytes {
		t.Fatalf("failed checkpoint moved the log: checkpoint seq %d -> %d, %d -> %d bytes",
			before.LastCheckpointSeq, after.LastCheckpointSeq, before.Bytes, after.Bytes)
	}

	// The log left behind still restores the live session.
	buf, err := os.ReadFile(logPath)
	if err != nil {
		t.Fatal(err)
	}
	copyDir := t.TempDir()
	if err := os.WriteFile(filepath.Join(copyDir, "wrangle.wal"), buf, 0o644); err != nil {
		t.Fatal(err)
	}
	restored := reopen(t, copyDir, seed, nSources, shards, script)
	if want, got := Fingerprint(live), Fingerprint(restored); want != got {
		t.Fatalf("log after the failed checkpoint restores a different session:\n%s", firstDiff(want, got))
	}
	if err := restored.Durable().Close(); err != nil {
		t.Fatal(err)
	}

	if err := os.Remove(squatter); err != nil {
		t.Fatal(err)
	}
	if err := live.Checkpoint(); err != nil {
		t.Fatalf("checkpoint after the squatter left: %v", err)
	}
	if got, want := live.Durable().Stats().LastCheckpointSeq, live.Serve.Latest().Seq(); got != want {
		t.Fatalf("checkpoint seq = %d, want latest published %d", got, want)
	}
	if err := live.Durable().Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
}
