package wrangletest

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/feedback"
	"repro/internal/sources"
)

// TestValueFeedbackAfterUnionGoesEmpty is the regression for a panic: once
// every selected source refreshed to zero rows, the empty union kept the
// previous clusters, entity ids and trust, and the next value-feedback
// (fuse-only) reaction indexed the empty union through them. The reaction
// must be a no-op that still publishes, identically on a default
// (one-shard) and a four-shard session.
func TestValueFeedbackAfterUnionGoesEmpty(t *testing.T) {
	ctx := context.Background()
	drive := func(shards int) (string, uint64) {
		t.Helper()
		a := &sources.Source{ID: "srcA", Kind: sources.KindCSV,
			Raw: "sku,name,brand,price\nAX-1,palma lampal,acme,10\nAX-2,palma mallap,acme,20\n"}
		b := &sources.Source{ID: "srcB", Kind: sources.KindCSV,
			Raw: "sku,name,brand,price\nAX-1,palma lampal,acme,11\nBR-2,brond bindor,umbra,40\n"}
		w := core.New(sources.NewStatic(a, b), core.ProductConfig(), nil, nil)
		w.IntegrationShards = shards
		if _, err := w.Run(); err != nil {
			t.Fatalf("shards=%d run: %v", shards, err)
		}
		if w.Wrangled().Len() == 0 {
			t.Fatalf("shards=%d: the run wrangled nothing, the refresh would empty nothing", shards)
		}
		a.Raw, b.Raw = "sku,name,brand,price\n", "sku,name,brand,price\n"
		if _, err := w.RefreshSourcesContext(ctx, []string{"srcA", "srcB"}); err != nil {
			t.Fatalf("shards=%d refresh: %v", shards, err)
		}
		if n := w.Union().Len(); n != 0 {
			t.Fatalf("shards=%d: union has %d rows after every source emptied", shards, n)
		}
		before := w.Serve.Latest().Seq()
		w.AddFeedback(feedback.Item{Kind: feedback.ValueIncorrect, SourceID: "srcA",
			Entity: "AX-1", Attribute: "price", Worker: "expert", Cost: 1})
		stats, err := w.ReactToFeedbackContext(ctx)
		if err != nil {
			t.Fatalf("shards=%d react: %v", shards, err)
		}
		if !stats.Refused || w.Wrangled().Len() != 0 || len(w.Trust()) != 0 {
			t.Errorf("shards=%d: reaction over the empty union: stats %+v, %d rows, trust %v",
				shards, stats, w.Wrangled().Len(), w.Trust())
		}
		return Fingerprint(w), w.Serve.Latest().Seq() - before
	}
	want, published := drive(0)
	if published != 1 {
		t.Errorf("default: the no-op reaction published %d versions, want 1", published)
	}
	got, published := drive(4)
	if published != 1 {
		t.Errorf("shards=4: the no-op reaction published %d versions, want 1", published)
	}
	if got != want {
		t.Fatalf("shards=4 diverged from the default session over the empty union:\n%s", firstDiff(want, got))
	}
}
