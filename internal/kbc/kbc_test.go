package kbc

import (
	"testing"

	"repro/internal/dataset"
	"repro/internal/fusion"
)

func claim(e, a, v, src string) fusion.Claim {
	return fusion.Claim{Entity: e, Attribute: a, Value: dataset.Parse(v), SourceID: src}
}

// lookup returns the fused fact for (entity, attribute).
func lookup(kb *KB, entity, attribute string) (Fact, bool) {
	for _, f := range kb.Facts() {
		if f.Entity == entity && f.Attribute == attribute {
			return f, true
		}
	}
	return Fact{}, false
}

func TestBuildMajority(t *testing.T) {
	kb := Build([]fusion.Claim{
		claim("e1", "name", "USB Cable", "s1"),
		claim("e1", "name", "USB Cable", "s2"),
		claim("e1", "name", "USB Kable", "s3"),
		claim("e2", "name", "Lamp", "s1"),
	})
	if n := len(kb.Facts()); n != 2 {
		t.Fatalf("facts = %d", n)
	}
	f, ok := lookup(kb, "e1", "name")
	if !ok || f.Value.String() != "USB Cable" || f.Support != 2 {
		t.Errorf("fact = %+v", f)
	}
	if f.Confidence < 0.66 || f.Confidence > 0.67 {
		t.Errorf("confidence = %f", f.Confidence)
	}
	if _, ok := lookup(kb, "ghost", "name"); ok {
		t.Error("unknown fact should be !ok")
	}
}

func TestBuildIgnoresNulls(t *testing.T) {
	kb := Build([]fusion.Claim{
		{Entity: "e1", Attribute: "x", Value: dataset.Null(), SourceID: "s1"},
		claim("e1", "x", "v", "s2"),
	})
	f, _ := lookup(kb, "e1", "x")
	if f.Confidence != 1 {
		t.Errorf("nulls should not dilute confidence: %+v", f)
	}
}

func TestNumericBucketing(t *testing.T) {
	kb := Build([]fusion.Claim{
		claim("e1", "price", "10.00", "s1"),
		claim("e1", "price", "10.05", "s2"),
		claim("e1", "price", "99", "s3"),
	})
	f, _ := lookup(kb, "e1", "price")
	if f.Support != 2 {
		t.Errorf("near-equal prices should bucket: %+v", f)
	}
}

func TestFactsDeterministicOrder(t *testing.T) {
	claims := []fusion.Claim{
		claim("b", "y", "1", "s"),
		claim("a", "x", "2", "s"),
	}
	kb := Build(claims)
	facts := kb.Facts()
	if facts[0].Entity != "a" || facts[1].Entity != "b" {
		t.Errorf("facts order = %v", facts)
	}
}

// The §3.1 criticism reproduced in miniature: with redundant stale prices,
// KBC confidently fuses to the stale value while the frequency assumption
// holds for stable attributes.
func TestKBCStaleBias(t *testing.T) {
	claims := []fusion.Claim{
		// Three crawls cached the old price; one fresh crawl has the new.
		claim("e1", "price", "9.99", "cache1"),
		claim("e1", "price", "9.99", "cache2"),
		claim("e1", "price", "9.99", "cache3"),
		claim("e1", "price", "12.49", "fresh"),
		// A stable attribute: everyone agrees.
		claim("e1", "brand", "Anker", "cache1"),
		claim("e1", "brand", "Anker", "fresh"),
	}
	kb := Build(claims)
	price, _ := lookup(kb, "e1", "price")
	if price.Value.FloatVal() != 9.99 {
		t.Errorf("KBC should pick the redundant stale price, got %v", price.Value)
	}
	brand, _ := lookup(kb, "e1", "brand")
	if brand.Value.String() != "Anker" {
		t.Errorf("stable attribute should fuse correctly: %v", brand.Value)
	}
}
