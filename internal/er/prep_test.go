package er

import (
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/text"
)

// TestInternMatchesStringDerivation pins what intern derives for a new
// name — its token runes, sliced out of the name's runes, and its q-gram
// block ids, read off one reused buffer — to the string derivation it
// replaced: text.TokenRunes over strings.Fields, and a block per
// text.QGrams gram, in order, without repeats. The names are Normalize
// outputs, ASCII and not, at gram sizes 1 to 4.
func TestInternMatchesStringDerivation(t *testing.T) {
	words := []string{"Zentro", "PRO", "toaster", "3M", "Ünïcödé", "αβγ", "K-9", "x", "ΣΊΣΥΦΟΣ", "naïve café", "İstanbul"}
	rng := rand.New(rand.NewSource(1))
	for gram := 1; gram <= 4; gram++ {
		g := newRegistry(gram)
		want := newRegistry(gram) // ids the string derivation assigns
		for n := 0; n < 500; n++ {
			var b strings.Builder
			for k := rng.Intn(5); k >= 0; k-- {
				b.WriteString(words[rng.Intn(len(words))])
				b.WriteString([]string{" ", "-", ", ", "  "}[rng.Intn(4)])
			}
			name := text.Normalize(b.String())
			rf := &rowFeatures{nameOK: true, name: name}
			g.intern(rf)
			id := rf.nameID

			toks := strings.Fields(name)
			if got, exp := g.nameToks[id], text.TokenRunes(toks); len(got) != len(exp) || !slices.EqualFunc(got, exp, slices.Equal[[]rune]) {
				t.Fatalf("gram %d: %q token runes %q, want %q", gram, name, got, exp)
			}
			var blocks []int32
			for _, tok := range toks {
				for _, q := range text.QGrams(tok, gram) {
					if b := want.block(want.gramBlocks, q); !containsBlock(blocks, b) {
						blocks = append(blocks, b)
					}
				}
			}
			if got := g.nameBlocks[id]; !slices.Equal(got, blocks) {
				t.Fatalf("gram %d: %q blocks %v, want %v", gram, name, got, blocks)
			}
		}
	}
}
