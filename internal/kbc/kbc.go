// Package kbc is the knowledge-base-construction baseline of §3.1: fully
// automated fusion of web-extracted facts under a single implicit context,
// "leaning heavily on the assumption that correct facts occur frequently
// (instance-based redundancy)" — YAGO / Knowledge Vault style. It exists
// to be compared against the context-aware wrangler (experiment E8): on
// slowly-changing common-sense facts redundancy works; on transient data
// such as prices it fuses confidently to stale values.
package kbc

import (
	"sort"

	"repro/internal/dataset"
	"repro/internal/fusion"
	"repro/internal/text"
)

// Fact is one fused (entity, attribute, value) triple with the
// redundancy-based confidence KBC assigns it.
type Fact struct {
	Entity     string
	Attribute  string
	Value      dataset.Value
	Confidence float64 // vote share of the winning value
	Support    int     // number of sources asserting it
}

// KB is a knowledge base built by redundancy fusion.
type KB struct {
	facts []Fact // sorted by entity \x1f attribute
}

// Build constructs a KB from claims by pure frequency voting — no source
// trust, no freshness, no user context. Claims with null values are
// ignored; ties break deterministically on the normalised value.
func Build(claims []fusion.Claim) *KB {
	groups := map[string][]fusion.Claim{}
	var keys []string
	for _, c := range claims {
		if c.Value.IsNull() {
			continue
		}
		k := c.Entity + "\x1f" + c.Attribute
		if _, ok := groups[k]; !ok {
			keys = append(keys, k)
		}
		groups[k] = append(groups[k], c)
	}
	sort.Strings(keys)
	kb := &KB{facts: make([]Fact, 0, len(keys))}
	for _, k := range keys {
		claimsK := groups[k]
		type bucket struct {
			rep   dataset.Value
			norm  string
			count int
		}
		var buckets []bucket
		for _, c := range claimsK {
			norm := text.Normalize(c.Value.String())
			placed := false
			for i := range buckets {
				if sameValue(buckets[i].rep, c.Value) {
					buckets[i].count++
					placed = true
					break
				}
			}
			if !placed {
				buckets = append(buckets, bucket{rep: c.Value, norm: norm, count: 1})
			}
		}
		sort.Slice(buckets, func(i, j int) bool {
			if buckets[i].count != buckets[j].count {
				return buckets[i].count > buckets[j].count
			}
			return buckets[i].norm < buckets[j].norm
		})
		best := buckets[0]
		kb.facts = append(kb.facts, Fact{
			Entity:     claimsK[0].Entity,
			Attribute:  claimsK[0].Attribute,
			Value:      best.rep,
			Confidence: float64(best.count) / float64(len(claimsK)),
			Support:    best.count,
		})
	}
	return kb
}

func sameValue(a, b dataset.Value) bool {
	if a.IsNumeric() && b.IsNumeric() {
		x, y := a.FloatVal(), b.FloatVal()
		if x == y {
			return true
		}
		den := x
		if y > x {
			den = y
		}
		if den < 0 {
			den = -den
		}
		if den == 0 {
			return false
		}
		d := (x - y) / den
		if d < 0 {
			d = -d
		}
		return d <= 0.01
	}
	return text.Normalize(a.String()) == text.Normalize(b.String())
}

// Facts returns all facts in deterministic order.
func (kb *KB) Facts() []Fact { return append([]Fact(nil), kb.facts...) }
