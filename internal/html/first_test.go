package html

import (
	"math/rand"
	"strings"
	"testing"
)

// TestFindFirstIsBaseMajor pins Find's order on nested bases: the outer
// div's child comes before the inner div's child, though the inner one
// comes first in the page. FindFirst and FirstSet must return it too.
func TestFindFirstIsBaseMajor(t *testing.T) {
	root := Parse(`<div class="a"><div class="a"><span>inner</span></div><span>outer</span></div>`)
	sel := MustCompile("div.a > span")
	all := sel.Find(root)
	if len(all) != 2 || all[0].Text() != "outer" || all[1].Text() != "inner" {
		t.Fatalf("Find order = %v", texts(all))
	}
	if got := sel.FindFirst(root); got != all[0] {
		t.Errorf("FindFirst = %q, want outer", got.Text())
	}
	out := make([]*Node, 1)
	NewFirstSet([]*Selector{sel}).FindFirst(root, out)
	if out[0] != all[0] {
		t.Errorf("FirstSet = %q, want outer", out[0].Text())
	}
}

func texts(ns []*Node) []string {
	var out []string
	for _, n := range ns {
		out = append(out, n.Text())
	}
	return out
}

// TestFirstSetMatchesFind checks FindFirst and FirstSet against the first
// element of Find over random trees and random selectors, one-step
// selectors whose first match is the root included.
func TestFirstSetMatchesFind(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	tags := []string{"div", "span", "p", "li"}
	classes := []string{"", "a", "b", "a b", " b  a "}
	var gen func(b *strings.Builder, depth int)
	gen = func(b *strings.Builder, depth int) {
		tag := tags[rng.Intn(len(tags))]
		b.WriteString("<" + tag + ` class="` + classes[rng.Intn(len(classes))] + `">x`)
		if depth > 0 {
			for k := rng.Intn(4); k > 0; k-- {
				gen(b, depth-1)
			}
		}
		b.WriteString("</" + tag + ">")
	}
	steps := []string{"div", "span", "p.a", "li.b", "*", "div.a.b", "span:nth-of-type(2)", "[class=a]"}
	for iter := 0; iter < 300; iter++ {
		var b strings.Builder
		gen(&b, 4)
		root := Parse(b.String()).Children[0]
		var sels []*Selector
		for k := 1 + rng.Intn(5); k > 0; k-- {
			var src strings.Builder
			for n := 1 + rng.Intn(3); n > 0; n-- {
				if src.Len() > 0 {
					src.WriteString([]string{" ", " > "}[rng.Intn(2)])
				}
				src.WriteString(steps[rng.Intn(len(steps))])
			}
			sels = append(sels, MustCompile(src.String()))
		}
		sels = append(sels, nil)
		out := make([]*Node, len(sels))
		NewFirstSet(sels).FindFirst(root, out)
		for i, sel := range sels {
			var want *Node
			if sel != nil {
				if all := sel.Find(root); len(all) > 0 {
					want = all[0]
				}
				if got := sel.FindFirst(root); got != want {
					t.Fatalf("%s on %s: FindFirst = %v, want %v", sel, b.String(), got, want)
				}
			}
			if out[i] != want {
				t.Fatalf("%v on %s: FirstSet = %v, want %v", sel, b.String(), out[i], want)
			}
		}
	}
}

func TestHasClassMatchesFields(t *testing.T) {
	for _, attr := range []string{"", " ", "a", "a b", " a\tb\n", "ab", "a  b ", "x a", " a", "\xffa b", "a\u00a0b"} {
		n := &Node{Type: ElementNode, Attrs: map[string]string{"class": attr}}
		for _, class := range []string{"a", "b", "ab", "x", "\xffa"} {
			want := false
			for _, c := range strings.Fields(attr) {
				want = want || c == class
			}
			if got := n.HasClass(class); got != want {
				t.Errorf("HasClass(%q) on class=%q = %v, want %v", class, attr, got, want)
			}
		}
	}
}
