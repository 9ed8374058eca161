package text

import (
	"strings"
	"testing"
)

// referenceNormalize is Normalize before its ASCII pass: the token join
// the pass must reproduce.
func referenceNormalize(s string) string {
	return strings.Join(Tokenize(s), " ")
}

// FuzzNormalize checks Normalize against referenceNormalize on arbitrary
// strings, and that a string already normal comes back as it is.
func FuzzNormalize(f *testing.F) {
	for _, s := range []string{
		"", " ", "A  b", "12.99", "$1,299.00", "a\tb\n", "İ", "ß", "a b",
		"\xff", "usb cable.", "usb cable!!", "Anker 4-Port Hub,", "K",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		got, want := Normalize(s), referenceNormalize(s)
		if got != want {
			t.Fatalf("Normalize(%q) = %q, want %q", s, got, want)
		}
		if Normalize(want) != want {
			t.Fatalf("Normalize(%q) = %q, not a fixed point", want, Normalize(want))
		}
	})
}

func TestNormalizeKeepsNormalString(t *testing.T) {
	s := strings.Repeat("x", 3) + " 12 y"
	if allocs := testing.AllocsPerRun(10, func() { _ = Normalize(s) }); allocs != 0 {
		t.Errorf("Normalize of a normal string allocated %v times", allocs)
	}
	if allocs := testing.AllocsPerRun(10, func() { _ = Normalize("USB-Cable, 2M") }); allocs != 1 {
		t.Errorf("Normalize of an ASCII string allocated %v times, want 1", allocs)
	}
}
