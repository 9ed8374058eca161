// Package text implements the string similarity and normalisation
// primitives used throughout the wrangling pipeline: edit distances for
// schema matching (§4.1 of Furche et al.), token and q-gram measures for
// entity resolution blocking, and TF-IDF cosine similarity for
// instance-based matching.
//
// All similarity functions return values in [0, 1] where 1 means identical;
// all distance functions return non-negative counts.
package text

import (
	"math"
	"sort"
	"strings"
	"unicode"
	"unicode/utf8"
)

// Levenshtein returns the edit distance (insert/delete/substitute, unit
// cost) between a and b, computed over runes.
func Levenshtein(a, b string) int {
	ra, rb := []rune(a), []rune(b)
	if len(ra) == 0 {
		return len(rb)
	}
	if len(rb) == 0 {
		return len(ra)
	}
	prev := make([]int, len(rb)+1)
	cur := make([]int, len(rb)+1)
	for j := range prev {
		prev[j] = j
	}
	for i := 1; i <= len(ra); i++ {
		cur[0] = i
		for j := 1; j <= len(rb); j++ {
			cost := 1
			if ra[i-1] == rb[j-1] {
				cost = 0
			}
			cur[j] = min3(cur[j-1]+1, prev[j]+1, prev[j-1]+cost)
		}
		prev, cur = cur, prev
	}
	return prev[len(rb)]
}

// DamerauLevenshtein returns the edit distance allowing adjacent
// transpositions (optimal string alignment variant).
func DamerauLevenshtein(a, b string) int {
	ra, rb := []rune(a), []rune(b)
	n, m := len(ra), len(rb)
	if n == 0 {
		return m
	}
	if m == 0 {
		return n
	}
	d := make([][]int, n+1)
	for i := range d {
		d[i] = make([]int, m+1)
		d[i][0] = i
	}
	for j := 0; j <= m; j++ {
		d[0][j] = j
	}
	for i := 1; i <= n; i++ {
		for j := 1; j <= m; j++ {
			cost := 1
			if ra[i-1] == rb[j-1] {
				cost = 0
			}
			d[i][j] = min3(d[i-1][j]+1, d[i][j-1]+1, d[i-1][j-1]+cost)
			if i > 1 && j > 1 && ra[i-1] == rb[j-2] && ra[i-2] == rb[j-1] {
				if t := d[i-2][j-2] + 1; t < d[i][j] {
					d[i][j] = t
				}
			}
		}
	}
	return d[n][m]
}

// LevenshteinSimilarity normalises Levenshtein distance into [0,1]:
// 1 - dist/max(len). Two empty strings are identical (1).
func LevenshteinSimilarity(a, b string) float64 {
	la, lb := len([]rune(a)), len([]rune(b))
	if la == 0 && lb == 0 {
		return 1
	}
	maxLen := la
	if lb > maxLen {
		maxLen = lb
	}
	return 1 - float64(Levenshtein(a, b))/float64(maxLen)
}

// Scratch holds the reusable match buffers behind the rune-based
// similarity fast paths (JaroRunes and friends), so hot loops scoring
// millions of pairs allocate nothing per call. The zero value is ready to
// use. A Scratch must not be shared between goroutines.
type Scratch struct {
	matchA, matchB []bool
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

// Jaro returns the Jaro similarity of a and b in [0,1].
func Jaro(a, b string) float64 {
	var sc Scratch
	return JaroRunes([]rune(a), []rune(b), &sc)
}

// JaroRunes is Jaro over pre-converted rune slices with caller-owned
// scratch — the allocation-free form for hot loops that compare the same
// precomputed strings against many candidates.
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

// MongeElkan computes the Monge-Elkan similarity: the mean over tokens of a
// of the best JaroWinkler match in b's tokens. It is asymmetric; use
// MongeElkanSym for a symmetric score.
func MongeElkan(a, b string) float64 {
	var sc Scratch
	return MongeElkanTokens(TokenRunes(Tokenize(a)), TokenRunes(Tokenize(b)), &sc)
}

// MongeElkanSym returns the mean of MongeElkan in both directions.
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

// MongeElkanTokens is MongeElkan over pre-tokenized, pre-converted token
// lists with caller-owned scratch: the mean over ta of the best
// JaroWinkler match in tb.
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
// directions.
func MongeElkanSymTokens(ta, tb [][]rune, sc *Scratch) float64 {
	return (MongeElkanTokens(ta, tb, sc) + MongeElkanTokens(tb, ta, sc)) / 2
}

// Soundex returns the classic 4-character Soundex code of the first word of
// s (letter + 3 digits), or "" if s contains no ASCII letter.
func Soundex(s string) string {
	code := func(r rune) byte {
		switch r {
		case 'b', 'f', 'p', 'v':
			return '1'
		case 'c', 'g', 'j', 'k', 'q', 's', 'x', 'z':
			return '2'
		case 'd', 't':
			return '3'
		case 'l':
			return '4'
		case 'm', 'n':
			return '5'
		case 'r':
			return '6'
		}
		return 0
	}
	s = strings.ToLower(s)
	var first rune
	var rest []rune
	for i, r := range s {
		if r >= 'a' && r <= 'z' {
			first = r
			rest = []rune(s[i+1:])
			break
		}
	}
	if first == 0 {
		return ""
	}
	out := []byte{byte(unicode.ToUpper(first))}
	prev := code(first)
	for _, r := range rest {
		if r < 'a' || r > 'z' {
			prev = 0
			continue
		}
		c := code(r)
		if c != 0 && c != prev {
			out = append(out, c)
			if len(out) == 4 {
				break
			}
		}
		if r != 'h' && r != 'w' {
			prev = c
		}
	}
	for len(out) < 4 {
		out = append(out, '0')
	}
	return string(out)
}

func min3(a, b, c int) int {
	if b < a {
		a = b
	}
	if c < a {
		a = c
	}
	return a
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

// Size returns the number of documents added.
func (c *Corpus) Size() int { return c.docs }

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

// TopTokens returns the n most frequent tokens in the corpus vocabulary,
// ties broken lexicographically — useful for diagnostics.
func (c *Corpus) TopTokens(n int) []string {
	type tc struct {
		tok string
		n   int
	}
	all := make([]tc, 0, len(c.df))
	for k, v := range c.df {
		all = append(all, tc{k, v})
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].n != all[j].n {
			return all[i].n > all[j].n
		}
		return all[i].tok < all[j].tok
	})
	if n > len(all) {
		n = len(all)
	}
	out := make([]string, n)
	for i := 0; i < n; i++ {
		out[i] = all[i].tok
	}
	return out
}
