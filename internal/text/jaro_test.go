package text

import (
	"math"
	"strings"
	"testing"
)

// referenceJaro is JaroRunes before its bit-set path: every length goes
// through the Scratch match buffers. It is the oracle FuzzJaroWinkler
// holds the kernel to.
func referenceJaro(ra, rb []rune, sc *Scratch) float64 {
	la, lb := len(ra), len(rb)
	if la == 0 && lb == 0 {
		return 1
	}
	if la == 0 || lb == 0 {
		return 0
	}
	window := max(la, lb)/2 - 1
	if window < 0 {
		window = 0
	}
	matchA, matchB := sc.bufs(la, lb)
	matches := 0
	for i := 0; i < la; i++ {
		lo, hi := max(i-window, 0), min(i+window+1, lb)
		for j := lo; j < hi; j++ {
			if !matchB[j] && ra[i] == rb[j] {
				matchA[i] = true
				matchB[j] = true
				matches++
				break
			}
		}
	}
	if matches == 0 {
		return 0
	}
	transpositions := 0
	j := 0
	for i := 0; i < la; i++ {
		if !matchA[i] {
			continue
		}
		for !matchB[j] {
			j++
		}
		if ra[i] != rb[j] {
			transpositions++
		}
		j++
	}
	m := float64(matches)
	return (m/float64(la) + m/float64(lb) + (m-float64(transpositions)/2)/m) / 3
}

// FuzzJaroWinkler checks JaroRunes and JaroWinklerRunes against the
// Scratch-buffer kernel kept as referenceJaro, bit for bit, on arbitrary
// strings: both at most 64 runes (the bit-set path), either longer (the
// buffers), and repeated runes that compete for one match window. One
// Scratch serves every call, as in the resolver's hot loop. It also holds
// JaroWinklerRunes to its symmetry, bit for bit, which MongeElkanSymTokens
// relies on to score each token pair once, and MongeElkanSymTokens to the
// mean of MongeElkanTokens in both directions over the strings' tokens.
func FuzzJaroWinkler(f *testing.F) {
	long := strings.Repeat("ab", 32)
	for _, p := range [][2]string{
		{"", ""}, {"a", ""}, {"martha", "marhta"}, {"dixon", "dicksonx"}, {"aaaa", "aa"},
		{"zentro pro toaster", "zentro toaster pro"}, {"αβγ", "βαγ"}, {"\xff", "\xfe\xff"},
		{long, long[1:] + "a"}, {long, long + "b"}, {long + "ab", long}, {"a" + long, "b"},
		{"zentro pro toaster 3m", "toaster zentro"}, {"a b c", "c b a a"}, {"ab ba", "ba"},
	} {
		f.Add(p[0], p[1])
	}
	var sc, ref Scratch
	f.Fuzz(func(t *testing.T, a, b string) {
		ra, rb := []rune(a), []rune(b)
		got, want := JaroRunes(ra, rb, &sc), referenceJaro(ra, rb, &ref)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("JaroRunes(%q, %q) = %v, the reference %v", a, b, got, want)
		}
		prefix := 0
		for prefix < len(ra) && prefix < len(rb) && prefix < 4 && ra[prefix] == rb[prefix] {
			prefix++
		}
		wantJW := want + float64(prefix)*0.1*(1-want)
		if got := JaroWinklerRunes(ra, rb, &sc); math.Float64bits(got) != math.Float64bits(wantJW) {
			t.Fatalf("JaroWinklerRunes(%q, %q) = %v, the reference %v", a, b, got, wantJW)
		}
		if got := JaroWinklerRunes(rb, ra, &sc); math.Float64bits(got) != math.Float64bits(wantJW) {
			t.Fatalf("JaroWinklerRunes(%q, %q) = %v, but %v the other way round", b, a, got, wantJW)
		}
		ta, tb := TokenRunes(Tokenize(a)), TokenRunes(Tokenize(b))
		wantME := (MongeElkanTokens(ta, tb, &ref) + MongeElkanTokens(tb, ta, &ref)) / 2
		if got := MongeElkanSymTokens(ta, tb, &sc); math.Float64bits(got) != math.Float64bits(wantME) {
			t.Fatalf("MongeElkanSymTokens(%q, %q) = %v, both directions' mean %v", a, b, got, wantME)
		}
	})
}
