package core

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"repro/internal/feedback"
)

// checkAgainstRerun checks w's installed tail state against the one a
// FullRerun of w installs (tailState.check).
func checkAgainstRerun(t *testing.T, label string, w *Wrangler) {
	t.Helper()
	got := w.tail
	if _, err := w.FullRerun(); err != nil {
		t.Fatalf("%s: full rerun: %v", label, err)
	}
	if err := got.check(w.tail); err != nil {
		t.Fatalf("%s: the installed tail state differs from a full rerun's: %v", label, err)
	}
}

// lostInstallPayloads are srcA's payloads after the run of a
// newDeltaWrangler: fewer rows, more rows, and as many rows with other
// values.
var lostInstallPayloads = map[string]string{
	"shrinks":   "sku,name,brand,price\nAX-2,palma mallap,acme,20\n",
	"grows":     "sku,name,brand,price\nAX-1,palma lampal,acme,11\nAX-2,palma mallap,acme,20\nAX-3,palma plampa,acme,25\n",
	"same rows": "sku,name,brand,price\nAX-1,palma lampal,acme,12\nAX-2,palma mallap,acme,21\n",
}

// installSrcA installs srcA's new payload through entry — a refresh, or
// wrapper_broken feedback's re-extraction — under ctx.
func installSrcA(w *Wrangler, ctx context.Context, entry string) error {
	if entry == "refresh" {
		_, err := w.RefreshSourcesContext(ctx, []string{"srcA"})
		return err
	}
	w.AddFeedback(feedback.Item{Kind: feedback.WrapperBroken, SourceID: "srcA", Worker: "expert", Cost: 0.5})
	_, err := w.ReactToFeedbackContext(ctx)
	return err
}

// valueFeedback gives value feedback on srcB's BR-1 price and reacts.
func valueFeedback(t *testing.T, w *Wrangler) ReactStats {
	t.Helper()
	w.AddFeedback(feedback.Item{Kind: feedback.ValueIncorrect, SourceID: "srcB", Entity: "BR-1", Attribute: "price",
		Worker: "expert", Cost: 0.5})
	stats, err := w.ReactToFeedbackContext(context.Background())
	if err != nil {
		t.Fatalf("value feedback: %v", err)
	}
	return stats
}

// TestFuseOnlyAfterInstalledSources is the regression for value feedback
// after a reaction installed a source and lost its tail before it
// started: the installed tail state still holds the union without the
// source's new rows, and a fuse-only reaction over it would serve the old
// values as current. At shards 0, 1 and 4, for a refresh and for
// wrapper_broken feedback, and for a payload that shrinks, grows or keeps
// its row count, the value-feedback reaction that follows the lost tail
// must run the full tail — partial against the installed state where
// shards let it reuse one — and land where an uncancelled session does,
// and where a FullRerun does.
func TestFuseOnlyAfterInstalledSources(t *testing.T) {
	for _, entry := range []string{"refresh", "wrapper_broken"} {
		for name, payload := range lostInstallPayloads {
			for _, shards := range []int{0, 1, 4} {
				t.Run(fmt.Sprintf("%s/%s/shards%d", entry, name, shards), func(t *testing.T) {
					drive := func(lose bool) (*Wrangler, ReactStats) {
						t.Helper()
						w, p := newDeltaWrangler(shards)
						if _, err := w.Run(); err != nil {
							t.Fatal(err)
						}
						p.srcs["srcA"] = csvSource("srcA", payload)
						ctx, before := context.Background(), w.tail
						if lose {
							ctx = w.CancelAfterInstall(ctx, 1)
						}
						err := installSrcA(w, ctx, entry)
						switch {
						case !lose && err != nil:
							t.Fatal(err)
						case lose && (!errors.Is(err, context.Canceled) || w.tail != before):
							t.Fatalf("the tail was meant to be lost before it started: err=%v, installed=%v", err, w.tail != before)
						}
						return w, valueFeedback(t, w)
					}
					w, stats := drive(true)
					ref, _ := drive(false)
					if stats.ShardsResolved == 0 || shards == 4 && stats.ShardsReused == 0 {
						t.Fatalf("the value feedback after the lost tail ran no partial full tail: %+v", stats)
					}
					if err := w.tail.check(ref.tail); err != nil {
						t.Fatalf("the session that lost a tail differs from an uncancelled one: %v", err)
					}
					if got, want := w.Wrangled().String(), ref.Wrangled().String(); got != want {
						t.Fatalf("serves\n%s\nan uncancelled session serves\n%s", got, want)
					}
					checkAgainstRerun(t, "after the value feedback", w)
				})
			}
		}
	}
}

// TestRestoreAfterCheckpointOfUncommittedSources is the regression for a
// checkpoint taken after a reaction installed a source and lost its tail:
// the log's last version was integrated from the committed source states,
// so compaction must write those, not the uncommitted ones, or the
// reopened session restores a union its logged clustering does not cover
// (and every reaction fails) or, at an unchanged row count, serves the
// uncommitted values as committed. At shards 0, 1 and 4, for a refresh
// and for wrapper_broken feedback, and for a payload that shrinks, grows
// or keeps its row count, the reopened session must react, and land where
// a FullRerun over the committed sources does.
func TestRestoreAfterCheckpointOfUncommittedSources(t *testing.T) {
	for _, entry := range []string{"refresh", "wrapper_broken"} {
		for name, payload := range lostInstallPayloads {
			for _, shards := range []int{0, 1, 4} {
				t.Run(fmt.Sprintf("%s/%s/shards%d", entry, name, shards), func(t *testing.T) {
					dir := t.TempDir()
					attach := func(w *Wrangler) *DurableLog {
						t.Helper()
						d, err := OpenDurableLog(dir, FsyncOnCheckpoint)
						if err != nil {
							t.Fatal(err)
						}
						if _, err := w.AttachDurableLog(d); err != nil {
							t.Fatal(err)
						}
						return d
					}
					w, p := newDeltaWrangler(shards)
					d := attach(w)
					if _, err := w.Run(); err != nil {
						t.Fatal(err)
					}
					p.srcs["srcA"] = csvSource("srcA", payload)
					if err := installSrcA(w, w.CancelAfterInstall(context.Background(), 1), entry); !errors.Is(err, context.Canceled) {
						t.Fatalf("the tail was meant to be lost before it started: %v", err)
					}
					if err := w.Checkpoint(); err != nil {
						t.Fatal(err)
					}
					if err := d.Close(); err != nil {
						t.Fatal(err)
					}

					// The provider serves the committed payload again, so a
					// FullRerun of the reopened session is the reference.
					r, _ := newDeltaWrangler(shards)
					d = attach(r)
					defer d.Close()
					valueFeedback(t, r)
					checkAgainstRerun(t, "after the restore", r)
				})
			}
		}
	}
}
