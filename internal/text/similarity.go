// Package text implements the string similarity and normalisation
// primitives used throughout the wrangling pipeline: Jaro-Winkler and
// Monge-Elkan for schema matching (§4.1 of Furche et al.) and entity
// resolution, token and q-gram measures for blocking, and TF-IDF cosine
// similarity for instance-based matching.
//
// All similarity functions return values in [0, 1] where 1 means identical.
package text

import (
	"math"
	"math/bits"
	"strings"
	"unicode"
	"unicode/utf8"
)

// Scratch holds the reusable match buffers behind the rune-based
// similarity fast paths (JaroRunes and friends), so hot loops scoring
// millions of pairs allocate nothing per call. The zero value is ready to
// use. A Scratch must not be shared between goroutines.
type Scratch struct {
	matchA, matchB []bool
	best           []float64 // MongeElkanSymTokens: per token of the second list, its best match
}

// bufs returns two zeroed bool buffers of the requested lengths, growing
// the scratch storage as needed.
func (s *Scratch) bufs(la, lb int) ([]bool, []bool) {
	if cap(s.matchA) < la {
		s.matchA = make([]bool, la)
	} else {
		s.matchA = s.matchA[:la]
		clear(s.matchA)
	}
	if cap(s.matchB) < lb {
		s.matchB = make([]bool, lb)
	} else {
		s.matchB = s.matchB[:lb]
		clear(s.matchB)
	}
	return s.matchA, s.matchB
}

// JaroRunes returns the Jaro similarity of ra and rb in [0,1], over
// pre-converted rune slices with caller-owned scratch — the
// allocation-free form for hot loops that compare the same precomputed
// strings against many candidates.
func JaroRunes(ra, rb []rune, sc *Scratch) float64 {
	la, lb := len(ra), len(rb)
	if la == 0 && lb == 0 {
		return 1
	}
	if la == 0 || lb == 0 {
		return 0
	}
	window := la
	if lb > window {
		window = lb
	}
	window = window/2 - 1
	if window < 0 {
		window = 0
	}
	if la <= 64 && lb <= 64 {
		return jaroBits(ra, rb, window)
	}
	matchA, matchB := sc.bufs(la, lb)
	matches := 0
	for i := 0; i < la; i++ {
		lo := i - window
		if lo < 0 {
			lo = 0
		}
		hi := i + window + 1
		if hi > lb {
			hi = lb
		}
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

// jaroBits is JaroRunes over strings of at most 64 runes each, with the
// matched positions kept as bit sets rather than in Scratch's buffers:
// rune i of ra takes the first unmatched rune of rb in its window that
// equals it, and the transpositions pair the matched runes of both in
// order, so the counts, and the float, are JaroRunes' own.
func jaroBits(ra, rb []rune, window int) float64 {
	var matchA, matchB uint64
	matches := 0
	for i, r := range ra {
		lo, hi := max(i-window, 0), min(i+window+1, len(rb))
		if lo >= hi {
			continue
		}
		// The unmatched positions of rb in [lo, hi), lowest first.
		for free := (uint64(1)<<hi - 1) &^ (uint64(1)<<lo - 1) &^ matchB; free != 0; free &= free - 1 {
			if j := bits.TrailingZeros64(free); rb[j] == r {
				matchA |= 1 << i
				matchB |= 1 << j
				matches++
				break
			}
		}
	}
	if matches == 0 {
		return 0
	}
	transpositions := 0
	for a, b := matchA, matchB; a != 0; a, b = a&(a-1), b&(b-1) {
		if ra[bits.TrailingZeros64(a)] != rb[bits.TrailingZeros64(b)] {
			transpositions++
		}
	}
	m := float64(matches)
	return (m/float64(len(ra)) + m/float64(len(rb)) + (m-float64(transpositions)/2)/m) / 3
}

// JaroWinkler boosts Jaro similarity for strings sharing a common prefix
// (up to 4 runes) with scaling factor 0.1, the standard parameters.
func JaroWinkler(a, b string) float64 {
	var sc Scratch
	return JaroWinklerRunes([]rune(a), []rune(b), &sc)
}

// JaroWinklerRunes is JaroWinkler over pre-converted rune slices with
// caller-owned scratch.
func JaroWinklerRunes(ra, rb []rune, sc *Scratch) float64 {
	j := JaroRunes(ra, rb, sc)
	prefix := 0
	for prefix < len(ra) && prefix < len(rb) && prefix < 4 && ra[prefix] == rb[prefix] {
		prefix++
	}
	return j + float64(prefix)*0.1*(1-j)
}

// QGrams returns the multiset of q-grams of s (padded with q-1 '#' on both
// ends, the standard padding for blocking keys). q must be >= 1.
func QGrams(s string, q int) []string {
	if q < 1 {
		q = 1
	}
	pad := strings.Repeat("#", q-1)
	padded := []rune(pad + s + pad)
	if len(padded) < q {
		return nil
	}
	out := make([]string, 0, len(padded)-q+1)
	for i := 0; i+q <= len(padded); i++ {
		out = append(out, string(padded[i:i+q]))
	}
	return out
}

// JaccardQGrams returns the Jaccard coefficient of the q-gram sets of a and
// b.
func JaccardQGrams(a, b string, q int) float64 {
	sa := toSet(QGrams(a, q))
	sb := toSet(QGrams(b, q))
	return jaccardSets(sa, sb)
}

// JaccardTokens returns the Jaccard coefficient over whitespace-delimited,
// case-folded tokens.
func JaccardTokens(a, b string) float64 {
	return jaccardSets(toSet(Tokenize(a)), toSet(Tokenize(b)))
}

func toSet(items []string) map[string]bool {
	s := make(map[string]bool, len(items))
	for _, it := range items {
		s[it] = true
	}
	return s
}

func jaccardSets(a, b map[string]bool) float64 {
	if len(a) == 0 && len(b) == 0 {
		return 1
	}
	inter := 0
	for k := range a {
		if b[k] {
			inter++
		}
	}
	union := len(a) + len(b) - inter
	if union == 0 {
		return 0
	}
	return float64(inter) / float64(union)
}

// Tokenize lowercases s and splits it on any non-alphanumeric rune,
// dropping empty tokens.
func Tokenize(s string) []string {
	return strings.FieldsFunc(strings.ToLower(s), func(r rune) bool {
		return !unicode.IsLetter(r) && !unicode.IsDigit(r)
	})
}

// Normalize lowercases, collapses runs of whitespace and punctuation to a
// single space, and trims. It is the canonical pre-matching normal form.
//
// ASCII input takes one pass: a string already in normal form is returned
// as it is, and any other is built in one buffer. Input with a byte at or
// above 0x80 goes through Tokenize, whose Unicode lowering can change a
// string's length and even yield ASCII (U+212A KELVIN SIGN lowers to 'k').
func Normalize(s string) string {
	normal := true
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case c >= utf8.RuneSelf:
			return strings.Join(Tokenize(s), " ")
		case 'a' <= c && c <= 'z', '0' <= c && c <= '9':
		case c == ' ' && i > 0 && i < len(s)-1 && s[i-1] != ' ':
		default:
			normal = false
		}
	}
	if normal {
		return s
	}
	var b strings.Builder
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case 'A' <= c && c <= 'Z':
			c += 'a' - 'A'
		case 'a' <= c && c <= 'z', '0' <= c && c <= '9':
		default:
			continue
		}
		if b.Len() == 0 {
			b.Grow(len(s) - i)
		} else if !asciiAlnum(s[i-1]) {
			b.WriteByte(' ')
		}
		b.WriteByte(c)
	}
	return b.String()
}

func asciiAlnum(c byte) bool {
	return 'a' <= c && c <= 'z' || 'A' <= c && c <= 'Z' || '0' <= c && c <= '9'
}

// MongeElkanSym returns the symmetric Monge-Elkan similarity: the mean of
// MongeElkanTokens in both directions.
func MongeElkanSym(a, b string) float64 {
	var sc Scratch
	ta, tb := TokenRunes(Tokenize(a)), TokenRunes(Tokenize(b))
	return (MongeElkanTokens(ta, tb, &sc) + MongeElkanTokens(tb, ta, &sc)) / 2
}

// TokenRunes converts a token list to rune slices, the form the
// allocation-free Monge-Elkan fast path consumes. Callers precomputing
// per-row token state do this once per row instead of once per pair.
func TokenRunes(toks []string) [][]rune {
	if len(toks) == 0 {
		return nil
	}
	out := make([][]rune, len(toks))
	for i, t := range toks {
		out[i] = []rune(t)
	}
	return out
}

// MongeElkanTokens computes the Monge-Elkan similarity over pre-tokenized,
// pre-converted token lists with caller-owned scratch: the mean over ta of
// the best JaroWinkler match in tb. It is asymmetric; MongeElkanSym is the
// symmetric score.
func MongeElkanTokens(ta, tb [][]rune, sc *Scratch) float64 {
	if len(ta) == 0 {
		if len(tb) == 0 {
			return 1
		}
		return 0
	}
	sum := 0.0
	for _, x := range ta {
		best := 0.0
		for _, y := range tb {
			if s := JaroWinklerRunes(x, y, sc); s > best {
				best = s
			}
		}
		sum += best
	}
	return sum / float64(len(ta))
}

// MongeElkanSymTokens returns the mean of MongeElkanTokens in both
// directions. JaroWinklerRunes is symmetric bit for bit, so it scores each
// token pair once, keeping each token of ta's best match and each token of
// tb's beside each other, and sums both in the order the two directions
// would: the same floats for half the comparisons.
func MongeElkanSymTokens(ta, tb [][]rune, sc *Scratch) float64 {
	if len(ta) == 0 || len(tb) == 0 {
		return (MongeElkanTokens(ta, tb, sc) + MongeElkanTokens(tb, ta, sc)) / 2
	}
	if cap(sc.best) < len(tb) {
		sc.best = make([]float64, len(tb))
	}
	bestB := sc.best[:len(tb)]
	clear(bestB)
	sumA := 0.0
	for _, x := range ta {
		best := 0.0
		for k, y := range tb {
			s := JaroWinklerRunes(x, y, sc)
			if s > best {
				best = s
			}
			if s > bestB[k] {
				bestB[k] = s
			}
		}
		sumA += best
	}
	sumB := 0.0
	for _, b := range bestB {
		sumB += b
	}
	return (sumA/float64(len(ta)) + sumB/float64(len(tb))) / 2
}

// Corpus accumulates documents for TF-IDF weighting. Add documents, then
// call Cosine to compare two texts with inverse-document-frequency
// weighting over the corpus vocabulary.
type Corpus struct {
	docs int
	df   map[string]int
}

// NewCorpus returns an empty corpus.
func NewCorpus() *Corpus {
	return &Corpus{df: make(map[string]int)}
}

// Add registers one document's tokens in the document-frequency table.
func (c *Corpus) Add(doc string) {
	c.docs++
	seen := make(map[string]bool)
	for _, tok := range Tokenize(doc) {
		if !seen[tok] {
			seen[tok] = true
			c.df[tok]++
		}
	}
}

// idf returns smoothed inverse document frequency for a token.
func (c *Corpus) idf(tok string) float64 {
	return math.Log(float64(1+c.docs) / float64(1+c.df[tok]))
}

// Cosine returns TF-IDF cosine similarity of two texts under the corpus
// weights. Unknown tokens get maximal IDF.
func (c *Corpus) Cosine(a, b string) float64 {
	va := c.vector(a)
	vb := c.vector(b)
	if len(va) == 0 && len(vb) == 0 {
		return 1
	}
	dot, na, nb := 0.0, 0.0, 0.0
	for k, w := range va {
		na += w * w
		if wb, ok := vb[k]; ok {
			dot += w * wb
		}
	}
	for _, w := range vb {
		nb += w * w
	}
	if na == 0 || nb == 0 {
		return 0
	}
	return dot / (math.Sqrt(na) * math.Sqrt(nb))
}

func (c *Corpus) vector(s string) map[string]float64 {
	tf := make(map[string]float64)
	for _, tok := range Tokenize(s) {
		tf[tok]++
	}
	for k, v := range tf {
		tf[k] = (1 + math.Log(v)) * c.idf(k)
	}
	return tf
}
