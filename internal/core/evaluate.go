package core

import (
	"math"

	"repro/internal/sources"
	"repro/internal/text"
)

// Evaluation against the synthetic world's ground truth. These functions
// exist for the experiments only — the wrangler itself never consults the
// world (it would be cheating; production systems have no oracle).

// Evaluation summarises wrangled output quality against the world.
type Evaluation struct {
	// EntityPrecision: fraction of wrangled entities that correspond to a
	// real world entity (fantasy records fused in lower it).
	EntityPrecision float64
	// EntityRecall: fraction of world entities covered by some wrangled
	// entity (the paper's completeness axis).
	EntityRecall float64
	// NameAccuracy: fraction of matched entities whose fused name equals
	// the true name (normalised).
	NameAccuracy float64
	// PriceAccuracy: fraction of matched entities whose fused price is
	// within 1% of the true current price (the timeliness-sensitive axis).
	PriceAccuracy float64
	// MeanPriceError: mean relative error of fused prices.
	MeanPriceError float64
	Entities       int
}

// world returns the synthetic ground-truth world behind the provider, or
// nil when the provider is not a synthetic universe (real data has no
// oracle).
func (w *Wrangler) world() *sources.World {
	if u, ok := w.Provider.(*sources.Universe); ok {
		return u.World
	}
	return nil
}

// EvaluateProducts scores the wrangled table against the product world at
// the current clock. Providers without ground truth yield a zero
// Evaluation (no oracle to compare against).
func (w *Wrangler) EvaluateProducts() Evaluation {
	w.resume()
	var ev Evaluation
	t := w.tail.wrangled
	world := w.world()
	if t == nil || t.Len() == 0 || world == nil {
		return ev
	}
	kc := t.Schema().Index("sku")
	nc := t.Schema().Index("name")
	pc := t.Schema().Index("price")
	matched := 0
	nameOK, priceOK, priced := 0, 0, 0
	errSum := 0.0
	covered := map[string]bool{}
	for _, r := range t.Rows() {
		ev.Entities++
		if kc < 0 || r[kc].IsNull() {
			continue
		}
		p := world.Product(r[kc].String())
		if p == nil {
			continue
		}
		matched++
		covered[p.SKU] = true
		if nc >= 0 && !r[nc].IsNull() {
			if text.Normalize(r[nc].String()) == text.Normalize(p.Name) {
				nameOK++
			}
		}
		truePrice, _ := world.PriceAt(p.SKU, world.Clock)
		if pc >= 0 && r[pc].IsNumeric() && truePrice > 0 {
			priced++
			rel := math.Abs(r[pc].FloatVal()-truePrice) / truePrice
			errSum += rel
			if rel <= 0.01 {
				priceOK++
			}
		}
	}
	if ev.Entities > 0 {
		ev.EntityPrecision = float64(matched) / float64(ev.Entities)
	}
	if n := len(world.Products); n > 0 {
		ev.EntityRecall = float64(len(covered)) / float64(n)
	}
	if matched > 0 {
		ev.NameAccuracy = float64(nameOK) / float64(matched)
	}
	if priced > 0 {
		ev.PriceAccuracy = float64(priceOK) / float64(priced)
		ev.MeanPriceError = errSum / float64(priced)
	}
	return ev
}

// EvaluateLocations scores a wrangled locations table against the world:
// entity recall over businesses and street accuracy for matched ones
// (matching by normalised business name).
func (w *Wrangler) EvaluateLocations() Evaluation {
	w.resume()
	var ev Evaluation
	t := w.tail.wrangled
	world := w.world()
	if t == nil || t.Len() == 0 || world == nil {
		return ev
	}
	nc := t.Schema().Index("name")
	sc := t.Schema().Index("street")
	byName := map[string]int{}
	for i, b := range world.Businesses {
		byName[text.Normalize(b.Name)] = i
	}
	matched, streetOK := 0, 0
	covered := map[int]bool{}
	for _, r := range t.Rows() {
		ev.Entities++
		if nc < 0 || r[nc].IsNull() {
			continue
		}
		bi, ok := byName[text.Normalize(r[nc].String())]
		if !ok {
			continue
		}
		matched++
		covered[bi] = true
		if sc >= 0 && !r[sc].IsNull() &&
			text.Normalize(r[sc].String()) == text.Normalize(world.Businesses[bi].Street) {
			streetOK++
		}
	}
	if ev.Entities > 0 {
		ev.EntityPrecision = float64(matched) / float64(ev.Entities)
	}
	if n := len(world.Businesses); n > 0 {
		ev.EntityRecall = float64(len(covered)) / float64(n)
	}
	if matched > 0 {
		ev.NameAccuracy = float64(streetOK) / float64(matched)
	}
	return ev
}
