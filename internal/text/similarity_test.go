package text

import (
	"math"
	"testing"
	"testing/quick"
)

func jaro(a, b string) float64 {
	var sc Scratch
	return JaroRunes([]rune(a), []rune(b), &sc)
}

func TestJaro(t *testing.T) {
	cases := []struct {
		a, b string
		want float64
	}{
		{"martha", "marhta", 0.944444},
		{"dixon", "dicksonx", 0.766667},
		{"jellyfish", "smellyfish", 0.896296},
		{"", "", 1},
		{"a", "", 0},
	}
	for _, c := range cases {
		if got := jaro(c.a, c.b); math.Abs(got-c.want) > 1e-5 {
			t.Errorf("Jaro(%q,%q) = %f, want %f", c.a, c.b, got, c.want)
		}
	}
}

func TestJaroWinkler(t *testing.T) {
	if got := JaroWinkler("martha", "marhta"); math.Abs(got-0.961111) > 1e-5 {
		t.Errorf("JaroWinkler(martha,marhta) = %f, want 0.961111", got)
	}
	if JaroWinkler("prefix_aaa", "prefix_bbb") <= jaro("prefix_aaa", "prefix_bbb") {
		t.Error("shared prefix should boost")
	}
}

func TestQGrams(t *testing.T) {
	g := QGrams("ab", 2)
	want := []string{"#a", "ab", "b#"}
	if len(g) != len(want) {
		t.Fatalf("QGrams = %v, want %v", g, want)
	}
	for i := range g {
		if g[i] != want[i] {
			t.Errorf("QGrams[%d] = %q, want %q", i, g[i], want[i])
		}
	}
	if QGrams("", 3) == nil {
		// padding makes even empty strings produce grams when q>1
		t.Error("padded empty string should produce grams")
	}
	if got := QGrams("abc", 0); len(got) != 3 {
		t.Errorf("q<1 should clamp to 1, got %v", got)
	}
}

func TestJaccard(t *testing.T) {
	if JaccardQGrams("night", "nacht", 2) <= 0 {
		t.Error("night/nacht share grams")
	}
	if JaccardQGrams("same", "same", 2) != 1 {
		t.Error("identical strings should be 1")
	}
	if JaccardTokens("red usb cable", "usb cable red") != 1 {
		t.Error("token Jaccard is order-insensitive")
	}
	if JaccardTokens("", "") != 1 {
		t.Error("both empty = 1")
	}
}

func TestTokenizeNormalize(t *testing.T) {
	toks := Tokenize("USB-Cable, 2m (Black)")
	want := []string{"usb", "cable", "2m", "black"}
	if len(toks) != len(want) {
		t.Fatalf("Tokenize = %v", toks)
	}
	for i := range toks {
		if toks[i] != want[i] {
			t.Errorf("token %d = %q, want %q", i, toks[i], want[i])
		}
	}
	if Normalize("  USB--Cable  2M ") != "usb cable 2m" {
		t.Errorf("Normalize = %q", Normalize("  USB--Cable  2M "))
	}
}

func TestMongeElkan(t *testing.T) {
	mongeElkan := func(a, b string) float64 {
		var sc Scratch
		return MongeElkanTokens(TokenRunes(Tokenize(a)), TokenRunes(Tokenize(b)), &sc)
	}
	if mongeElkan("usb cable", "cable usb premium") < 0.9 {
		t.Error("token-reordered strings should score high")
	}
	if MongeElkanSym("", "") != 1 {
		t.Error("empty vs empty = 1")
	}
	a := mongeElkan("a b c", "a")
	b := mongeElkan("a", "a b c")
	if a == b {
		t.Error("MongeElkan should be asymmetric on these inputs")
	}
}

func TestCorpusCosine(t *testing.T) {
	c := NewCorpus()
	docs := []string{
		"usb cable black 2m",
		"usb cable white 1m",
		"wireless mouse optical",
		"mechanical keyboard rgb",
	}
	for _, d := range docs {
		c.Add(d)
	}
	sim := c.Cosine("usb cable black", "usb cable white")
	dis := c.Cosine("usb cable black", "mechanical keyboard rgb")
	if sim <= dis {
		t.Errorf("cable-vs-cable (%f) should beat cable-vs-keyboard (%f)", sim, dis)
	}
	if got := c.Cosine("", ""); got != 1 {
		t.Errorf("empty cosine = %f, want 1", got)
	}
	if got := c.Cosine("usb", ""); got != 0 {
		t.Errorf("one-empty cosine = %f, want 0", got)
	}
}

// Property: all similarity measures stay within [0,1] and score identity 1.
func TestSimilarityBoundsProperty(t *testing.T) {
	f := func(a, b string) bool {
		if len(a) > 30 {
			a = a[:30]
		}
		if len(b) > 30 {
			b = b[:30]
		}
		for _, s := range []float64{
			jaro(a, b), JaroWinkler(a, b),
			JaccardQGrams(a, b, 2), JaccardTokens(a, b), MongeElkanSym(a, b),
		} {
			if s < -1e-9 || s > 1+1e-9 || math.IsNaN(s) {
				return false
			}
		}
		return JaroWinkler(a, a) > 1-1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
