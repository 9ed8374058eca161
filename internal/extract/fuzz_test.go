package extract

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/html"
	"repro/internal/ontology"
	"repro/internal/sources"
)

// FuzzWrapperRun checks the one-pass extraction kernels against the
// oracle in oracle_test.go: Induce must learn the wrapper referenceInduce
// learns (Confidence equal bit for bit), and Run must extract the table
// referenceRun extracts, cell for cell. shape picks the page kind: the
// synthetic listing pages of every template family, the same after
// template drift (with the pre-drift wrapper run on the drifted page), or
// a generated page with nested same-class containers, multi-class
// elements, definition lists and <b>Label:</b> leaves. Every page is also
// run through random wrappers whose selectors use descendant and child
// steps and :nth-of-type.
func FuzzWrapperRun(f *testing.F) {
	for seed := int64(0); seed < 4; seed++ {
		for shape := uint8(0); shape < 3; shape++ {
			f.Add(seed, shape)
		}
	}
	tax := ontology.ProductTaxonomy()
	f.Fuzz(func(t *testing.T, seed int64, shape uint8) {
		rng := rand.New(rand.NewSource(seed))
		// Every wrapper learned so far also runs on every later page: a
		// drifted page meets the wrapper learned before the drift.
		var old []*Wrapper
		for _, src := range fuzzPages(rng, shape%3) {
			page := html.Parse(src)
			want, wantErr := referenceInduce("s", page, tax)
			got, gotErr := Induce("s", page, tax)
			if (wantErr == nil) != (gotErr == nil) || (wantErr != nil && wantErr.Error() != gotErr.Error()) {
				t.Fatalf("Induce error %v, reference %v\npage: %s", gotErr, wantErr, src)
			}
			if want != nil {
				checkSameWrapper(t, got, want, src)
			}
			wrappers := append([]*Wrapper(nil), old...)
			if want != nil {
				wrappers = append(wrappers, want)
				old = append(old, want)
			}
			for i := 0; i < 3; i++ {
				wrappers = append(wrappers, randomWrapper(rng, page))
			}
			for _, w := range wrappers {
				checkSameRun(t, w, page, src)
			}
		}
	})
}

func checkSameWrapper(t *testing.T, got, want *Wrapper, src string) {
	t.Helper()
	if !reflect.DeepEqual(got, want) || math.Float64bits(got.Confidence) != math.Float64bits(want.Confidence) {
		t.Fatalf("Induce = %+v\nreference %+v\npage: %s", got, want, src)
	}
}

func checkSameRun(t *testing.T, w *Wrapper, page *html.Node, src string) {
	t.Helper()
	want, wantErr := referenceRun(w.Clone(), page)
	got, gotErr := w.Clone().Run(page)
	if (wantErr == nil) != (gotErr == nil) || (wantErr != nil && wantErr.Error() != gotErr.Error()) {
		t.Fatalf("Run error %v, reference %v\nwrapper %+v\npage: %s", gotErr, wantErr, w, src)
	}
	if want == nil {
		return
	}
	if !reflect.DeepEqual(got.Schema(), want.Schema()) || got.Len() != want.Len() {
		t.Fatalf("Run schema %v (%d rows), reference %v (%d rows)\nwrapper %+v\npage: %s",
			got.Schema().Names(), got.Len(), want.Schema().Names(), want.Len(), w, src)
	}
	for i := 0; i < want.Len(); i++ {
		for c, wv := range want.Row(i) {
			gv := got.Row(i)[c]
			if gv.Kind() != wv.Kind() || !gv.Same(wv) || gv.String() != wv.String() {
				t.Fatalf("Run row %d col %d = %v, reference %v\nwrapper %+v\npage: %s", i, c, gv, wv, w, src)
			}
		}
	}
}

// fuzzPages returns the page sources for one fuzz input.
func fuzzPages(rng *rand.Rand, shape uint8) []string {
	if shape == 2 {
		return []string{generatedPage(rng), generatedPage(rng)}
	}
	w := sources.NewWorld(rng.Int63(), 60, 0)
	cfg := sources.DefaultConfig(rng.Int63(), 2)
	cfg.CSVShare, cfg.JSONShare, cfg.HTMLShare = 0, 0, 1
	cfg.MinRecords, cfg.MaxRecords = 2, 12
	cfg.CleanShare = rng.Float64()
	u := sources.Generate(w, cfg)
	var out []string
	for _, s := range u.Sources {
		if s.Template == nil {
			continue
		}
		for _, fam := range []string{"table", "cards", "list"} {
			s.Template.Family = fam
			out = append(out, s.Payload())
		}
		if shape == 1 {
			for i := 0; i < 2; i++ {
				s.Template.Drift(rng)
				out = append(out, s.Payload())
			}
		}
	}
	return out
}

var (
	genTags    = []string{"div", "span", "ul", "li", "dl", "dt", "dd", "p", "b", "i", "td", "tr", "section", "strong"}
	genClasses = []string{"", "", "a", "b", "a b", "b a", "item", "item x", " a  ", "x-1", "a a"}
	genTexts   = []string{
		"", "Widget 3", "12.99", "$1,299.00", "SKU-00042", "AX-1", "Price: 4.50",
		"  spaced   out ", "https://x.example/p", "2016-03-15", "4.5", "İstanbul",
		"a\tb", "Name:", "Colour: red", "9 volt", " nbsp ",
	}
)

// genNode is a node of a generated record template.
type genNode struct {
	tag, class string
	label      bool // render as <b>Label:</b> value
	kids       []*genNode
}

func randomGenNode(rng *rand.Rand, depth int) *genNode {
	n := &genNode{tag: genTags[rng.Intn(len(genTags))], class: genClasses[rng.Intn(len(genClasses))]}
	n.label = rng.Intn(5) == 0
	if depth > 0 {
		for k := rng.Intn(4); k > 0; k-- {
			kid := randomGenNode(rng, depth-1)
			if rng.Intn(4) == 0 {
				// A nested container of the parent's own tag and class.
				kid.tag, kid.class = n.tag, n.class
			}
			n.kids = append(n.kids, kid)
		}
	}
	return n
}

func (n *genNode) render(rng *rand.Rand, b *strings.Builder) {
	if rng.Intn(12) == 0 {
		return // a record missing this position
	}
	b.WriteString("<" + n.tag)
	if n.class != "" {
		fmt.Fprintf(b, ` class="%s"`, n.class)
	}
	b.WriteString(">")
	if n.label {
		fmt.Fprintf(b, "<b>%s:</b> ", genTexts[rng.Intn(len(genTexts))])
	}
	b.WriteString(html.Escape(genTexts[rng.Intn(len(genTexts))]))
	for _, k := range n.kids {
		k.render(rng, b)
		if rng.Intn(3) == 0 {
			b.WriteString(html.Escape(genTexts[rng.Intn(len(genTexts))]))
		}
	}
	b.WriteString("</" + n.tag + ">")
}

// generatedPage renders one or two listing containers, each holding
// records of one or two alternating record templates (a tie between
// sibling groups), with a header row, definition-list records and stray
// text between. A container is sometimes rendered again from the same
// random choices with its record classes renamed: a tie between groups
// under different parents, whose selectors differ.
func generatedPage(rng *rand.Rand) string {
	var page strings.Builder
	page.WriteString("<html><body>")
	for c := 1 + rng.Intn(2); c > 0; c-- {
		tmpls := []*genNode{randomGenNode(rng, 1+rng.Intn(3))}
		if rng.Intn(2) == 0 {
			tmpls = append(tmpls, randomGenNode(rng, 1+rng.Intn(3)))
		}
		if rng.Intn(3) == 0 {
			// A definition-list record: <li><dl><dt>k</dt><dd>v</dd>…</dl></li>.
			dl := &genNode{tag: "li", class: genClasses[rng.Intn(len(genClasses))]}
			list := &genNode{tag: "dl"}
			for k := 1 + rng.Intn(3); k > 0; k-- {
				list.kids = append(list.kids, &genNode{tag: "dt"}, &genNode{tag: "dd", class: genClasses[rng.Intn(len(genClasses))]})
			}
			dl.kids = []*genNode{list}
			tmpls = append(tmpls, dl)
		}
		seed := rng.Int63()
		renderBox(rand.New(rand.NewSource(seed)), tmpls, c, &page)
		if rng.Intn(3) == 0 {
			for _, t := range tmpls {
				t.class += " z"
			}
			renderBox(rand.New(rand.NewSource(seed)), tmpls, c+2, &page)
		}
	}
	page.WriteString("</body></html>")
	return page.String()
}

// renderBox renders one container. Containers differ in class, so they
// do not form a record group of their own.
func renderBox(rng *rand.Rand, tmpls []*genNode, box int, b *strings.Builder) {
	fmt.Fprintf(b, `<div class="box-%d">`, box)
	if rng.Intn(3) == 0 {
		b.WriteString("<div><th>Header</th><th>Other</th></div>")
	}
	for i := 2 + rng.Intn(7); i > 0; i-- {
		tmpls[i%len(tmpls)].render(rng, b)
		if rng.Intn(4) == 0 {
			b.WriteString(" \n ")
		}
	}
	b.WriteString("</div>")
}

// randomWrapper builds a wrapper whose record and field selectors are
// drawn from the page's own tags and classes, with descendant and child
// combinators, :nth-of-type and an occasional selector that does not
// compile.
func randomWrapper(rng *rand.Rand, page *html.Node) *Wrapper {
	var steps []string
	page.Walk(func(n *html.Node) bool {
		if n.Type == html.ElementNode && n.Tag != "#root" {
			step := n.Tag
			if cs := strings.Fields(n.Attr("class")); len(cs) > 0 && rng.Intn(2) == 0 {
				step += "." + cs[rng.Intn(len(cs))]
			}
			steps = append(steps, step)
		}
		return true
	})
	if len(steps) == 0 {
		steps = []string{"div"}
	}
	sel := func(max int) string {
		var b strings.Builder
		for k := 1 + rng.Intn(max); k > 0; k-- {
			if b.Len() > 0 {
				if rng.Intn(2) == 0 {
					b.WriteString(" > ")
				} else {
					b.WriteString(" ")
				}
			}
			switch rng.Intn(8) {
			case 0:
				b.WriteString("*")
			case 1:
				fmt.Fprintf(&b, "%s:nth-of-type(%d)", steps[rng.Intn(len(steps))], 1+rng.Intn(3))
			default:
				b.WriteString(steps[rng.Intn(len(steps))])
			}
		}
		return b.String()
	}
	w := &Wrapper{SourceID: "r", RecordSelector: sel(2)}
	for k := 1 + rng.Intn(6); k > 0; k-- {
		f := FieldRule{Selector: sel(3), Index: k}
		switch rng.Intn(10) {
		case 0:
			f.Selector = ""
		case 1:
			f.Selector += ":hover" // an unsupported pseudo-class
		}
		w.Fields = append(w.Fields, f)
	}
	return w
}

// TestInduceTieIsDeterministic pins the tie rule: two sibling groups with
// equal scores resolve to the one whose first member comes first.
func TestInduceTieIsDeterministic(t *testing.T) {
	const src = `<html><body><ul>` +
		`<li class="a"><span>Cable</span><i>4.99</i></li>` +
		`<li class="b"><span>Mouse</span><i>7.50</i></li>` +
		`<li class="a"><span>Hub</span><i>12.00</i></li>` +
		`<li class="b"><span>Lamp</span><i>3.25</i></li>` +
		`</ul></body></html>`
	page := html.Parse(src)
	for i := 0; i < 100; i++ {
		w, err := Induce("s", page, nil)
		if err != nil {
			t.Fatal(err)
		}
		if w.RecordSelector != "li.a" {
			t.Fatalf("call %d: record selector %q, want li.a", i, w.RecordSelector)
		}
	}
}

// BenchmarkExtract measures the extraction front on one synthetic listing
// page per template family, at the 10k tier's record counts: "cold" is a
// first extraction (Induce, then Repair against master data, which runs
// the wrapper and relabels its columns); "refresh" is Run alone with the
// wrapper already known, the path a source refresh takes.
func BenchmarkExtract(b *testing.B) {
	world := sources.NewWorld(1, 2000, 0)
	cfg := sources.DefaultConfig(1, 6)
	cfg.CSVShare, cfg.JSONShare, cfg.HTMLShare = 0, 0, 1
	cfg.MinRecords, cfg.MaxRecords = 80, 120
	u := sources.Generate(world, cfg)
	var skus, names []string
	var prices []float64
	for _, p := range world.Products {
		skus, names, prices = append(skus, p.SKU), append(names, p.Name), append(prices, p.Price)
	}
	master := masterTable(skus, names, prices)
	tax := ontology.ProductTaxonomy()
	type fixture struct {
		page *html.Node
		w    *Wrapper
	}
	var pages []fixture
	for _, s := range u.Sources {
		if s.Template == nil {
			continue
		}
		page := html.Parse(s.Payload())
		w, err := Induce(s.ID, page, tax)
		if err != nil {
			b.Fatal(err)
		}
		pages = append(pages, fixture{page, w})
	}
	b.Run("cold", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, p := range pages {
				w, err := Induce(p.w.SourceID, p.page, tax)
				if err != nil {
					b.Fatal(err)
				}
				if _, _, _, err := Repair(w, p.page, master, tax); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("refresh", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, p := range pages {
				if _, err := p.w.Run(p.page); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}
