package er

import (
	"testing"

	"repro/internal/text"
)

// These tests pin the allocation behaviour of the matcher's hot path.
// The per-row precompute (prep.go) exists so that scoring a candidate
// pair touches no string machinery; if a change reintroduces per-pair
// normalization or tokenization these ceilings fail long before a
// benchmark run would notice.

// TestFeaturesAllocs pins the prepared fast path at zero allocations per
// scored pair (with warmed scratch and similarity memo), and confirms the
// cold per-pair path really is the expensive one the precompute replaces.
func TestFeaturesAllocs(t *testing.T) {
	tab, _ := dupTable(7, 64)
	r := NewResolver("sku", "name", "brand", "price")

	f := make([]float64, len(FeatureNames))
	var sc text.Scratch
	cold := testing.AllocsPerRun(100, func() {
		r.featuresInto(tab, 0, 1, f, &sc)
	})

	r.Prepare(tab)
	warm := testing.AllocsPerRun(100, func() {
		r.featuresInto(tab, 0, 1, f, &sc)
	})
	if warm != 0 {
		t.Errorf("prepared featuresInto = %.1f allocs/op, want 0", warm)
	}
	if cold <= warm {
		t.Errorf("cold featuresInto = %.1f allocs/op, not above prepared %.1f — the fast path is not engaging", cold, warm)
	}

	// The exported form owns its result vector and scratch; with the
	// prepared state those are the only allocations.
	feat := testing.AllocsPerRun(100, func() {
		_ = r.Features(tab, 0, 1)
	})
	if feat > 4 {
		t.Errorf("prepared Features = %.1f allocs/op, want <= 4", feat)
	}
}

// TestResolveRowsAllocs bounds a 64-row constrained clustering pass. The
// ceiling is ~1.2x the measured cost after the PR-9 squeeze (union-find
// state, the scored-pair slab and memo warm-up); a regression that brings
// back per-pair feature allocations overshoots it by an order of
// magnitude.
func TestResolveRowsAllocs(t *testing.T) {
	tab, _ := dupTable(7, 64)
	if tab.Len() < 64 {
		t.Fatalf("fixture too small: %d rows", tab.Len())
	}
	r := NewResolver("sku", "name", "brand", "price")
	r.Prepare(tab)
	rows := make([]int, 64)
	for i := range rows {
		rows[i] = i
	}
	var pairs []Pair
	for _, p := range r.CandidatePairs(tab) {
		if p.I < 64 && p.J < 64 {
			pairs = append(pairs, p)
		}
	}
	if len(pairs) == 0 {
		t.Fatal("no candidate pairs within the 64-row window")
	}
	roots := make([]int32, len(rows))
	got := testing.AllocsPerRun(10, func() {
		r.resolveRows(tab, rows, pairs, nil, nil, roots)
	})
	// Measured at 21 allocs/op for ~1800 pairs after the squeeze, and 11
	// since representatives go into the caller's roots slab; the ceiling
	// still leaves ~1.4x headroom over the former. Per-pair feature allocations would
	// put this in the thousands.
	const ceiling = 30
	if got > ceiling {
		t.Errorf("64-row resolveRows = %.1f allocs/op, want <= %d", got, ceiling)
	}
}
