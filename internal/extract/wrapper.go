// Package extract implements the Data Extraction component of the
// abstract wrangling architecture (Figure 1 of Furche et al.): fully
// automated wrapper induction over deep-web listing pages in the style of
// DIADEM/DEXTER [19, 30], wrapper execution producing syntactically
// consistent tables, and joint wrapper+data repair in the style of WADaR
// [29] — extraction "informed by existing integrated data" (§2.2, §4.1).
//
// Induction is unsupervised: it finds the repeated record structure on a
// page (the element whose children are many structurally similar subtrees),
// derives one selector per field position, and labels fields with canonical
// properties using the data context (ontology property vocabulary plus
// value-shape analysis).
package extract

import (
	"fmt"
	"sort"
	"strings"
	"unicode"
	"unicode/utf8"

	"repro/internal/dataset"
	"repro/internal/html"
	"repro/internal/ontology"
)

// FieldRule extracts one attribute from a record subtree.
type FieldRule struct {
	Selector string // selector relative to the record node
	Property string // canonical property name ("" if unlabelled)
	Header   string // source-side label if one was visible
	Index    int    // fallback: i-th leaf text position within the record
}

// Wrapper is an induced extraction program for one source: a record
// selector plus per-field rules. Wrappers are working-data artefacts; the
// orchestrator stores them with provenance and quality annotations.
type Wrapper struct {
	SourceID       string
	RecordSelector string
	Fields         []FieldRule
	Confidence     float64 // induction confidence in [0,1]
}

// Clone returns an independent copy of the wrapper. Repair mutates
// wrappers in place (relabelling field properties), so reusing a stored
// wrapper for a new processing round must not alias the stored one.
func (w *Wrapper) Clone() *Wrapper {
	if w == nil {
		return nil
	}
	c := *w
	c.Fields = append([]FieldRule(nil), w.Fields...)
	return &c
}

// Induce learns a wrapper from a parsed listing page. It returns an error
// when no repeated record structure can be found. The optional taxonomy
// labels fields with canonical properties; pass nil to skip labelling
// (ablation: extraction without data context).
func Induce(sourceID string, page *html.Node, tax *ontology.Taxonomy) (*Wrapper, error) {
	recordNodes, selector := findRecordSet(page)
	if len(recordNodes) < 2 {
		return nil, fmt.Errorf("extract: no repeated record structure on page of %s", sourceID)
	}
	leaves := recordLeaves(recordNodes)
	fields := induceFields(leaves, tax)
	if len(fields) == 0 {
		return nil, fmt.Errorf("extract: records of %s have no extractable fields", sourceID)
	}
	conf := structuralConfidence(leaves)
	return &Wrapper{
		SourceID:       sourceID,
		RecordSelector: selector,
		Fields:         fields,
		Confidence:     conf,
	}, nil
}

// findRecordSet locates the repeated record structure: the parent element
// whose element children contain the largest group of structurally similar
// siblings (same tag, same class set), returning the group and a selector
// that finds them. Header rows (th cells) are excluded. Groups are scored
// in document order of their parent, then of their first member, and the
// first group with the highest score wins.
//
// One post-order pass gives every element its subtree size and whether it
// holds non-space text, so each group is scored from its members' figures
// instead of walking their subtrees again.
func findRecordSet(page *html.Node) ([]*html.Node, string) {
	f := recordFinder{groupAt: map[groupKey]int{}}
	f.visit(page)
	if f.best.parent == nil {
		return nil, ""
	}
	var nodes []*html.Node
	for _, c := range f.best.parent.Children {
		if c.Type == html.ElementNode && !isHeaderish(c) && recordKey(c) == f.best.key {
			nodes = append(nodes, c)
		}
	}
	sel := f.best.key.tag
	if f.best.key.class != "" {
		sel += "." + strings.ReplaceAll(f.best.key.class, " ", ".")
	}
	return nodes, sel
}

// groupKey is the split of the sibling-group key tag + "|" + class at its
// first "|": the tag and the canonical class list, unless the tag itself
// holds a "|".
type groupKey struct{ tag, class string }

func recordKey(n *html.Node) groupKey {
	if strings.IndexByte(n.Tag, '|') < 0 {
		return groupKey{n.Tag, canonicalClass(n)}
	}
	parts := strings.SplitN(n.Tag+"|"+canonicalClass(n), "|", 2)
	return groupKey{parts[0], parts[1]}
}

// subtreeInfo is what the record scorer needs of a subtree: its node count
// and whether any text node in it holds a non-space character.
type subtreeInfo struct {
	size int
	text bool
}

// recordGroup accumulates one sibling group's score inputs in member order.
type recordGroup struct {
	key            groupKey
	count, textful int
	sizeSum        float64
}

// recordFinder is findRecordSet's post-order pass and its best group.
type recordFinder struct {
	pre     int           // preorder number of the next element
	kids    []subtreeInfo // stack of the element children's infos
	groups  []recordGroup // the current parent's groups, by first member
	groupAt map[groupKey]int
	best    struct {
		parent *html.Node
		pre    int
		key    groupKey
		score  float64
	}
}

func (f *recordFinder) visit(n *html.Node) subtreeInfo {
	if n.Type != html.ElementNode {
		return subtreeInfo{size: 1, text: hasText(n.Data)}
	}
	pre := f.pre
	f.pre++
	base := len(f.kids)
	info := subtreeInfo{size: 1}
	for _, c := range n.Children {
		ci := f.visit(c)
		info.size += ci.size
		info.text = info.text || ci.text
		if c.Type == html.ElementNode {
			f.kids = append(f.kids, ci)
		}
	}
	f.score(n, pre, f.kids[base:])
	f.kids = f.kids[:base]
	return info
}

// score groups n's element children (kids holds their infos, in order)
// and offers each group of two or more textful records as the best. A
// group wins on a higher score, or on an equal one when its parent comes
// earlier in document order: the visit is post-order, and the first
// maximum in document order must win.
func (f *recordFinder) score(n *html.Node, pre int, kids []subtreeInfo) {
	if len(kids) < 2 {
		return
	}
	f.groups = f.groups[:0]
	clear(f.groupAt)
	k := 0
	for _, c := range n.Children {
		if c.Type != html.ElementNode {
			continue
		}
		ci := kids[k]
		k++
		if isHeaderish(c) {
			continue
		}
		key := recordKey(c)
		g, ok := f.groupAt[key]
		if !ok {
			g = len(f.groups)
			f.groupAt[key] = g
			f.groups = append(f.groups, recordGroup{key: key})
		}
		grp := &f.groups[g]
		grp.count++
		if ci.text {
			grp.textful++
		}
		grp.sizeSum += float64(ci.size)
	}
	for _, g := range f.groups {
		// Records must carry text.
		if g.count < 2 || g.textful < 2 {
			continue
		}
		// Score: group size × mean subtree size (records are substantial).
		score := float64(g.count) * (g.sizeSum / float64(g.count))
		if score > f.best.score || (f.best.parent != nil && score == f.best.score && pre < f.best.pre) {
			f.best.parent, f.best.pre, f.best.key, f.best.score = n, pre, g.key, score
		}
	}
}

// hasText reports whether s holds a character strings.Fields keeps.
func hasText(s string) bool {
	return strings.IndexFunc(s, func(r rune) bool { return !unicode.IsSpace(r) }) >= 0
}

func isHeaderish(n *html.Node) bool {
	if n.Tag == "thead" || n.Tag == "th" {
		return true
	}
	for _, c := range n.Children {
		if c.Type == html.ElementNode && c.Tag == "th" {
			return true
		}
	}
	return false
}

// canonicalClass returns the sorted class list of a node, joined by space.
// An attribute that already holds one class, or several in order and
// single-spaced, is returned as it is.
func canonicalClass(n *html.Node) string {
	attr := n.Attr("class")
	if singleSpaced(attr) && classesSorted(attr) {
		return attr
	}
	fields := strings.Fields(attr)
	sort.Strings(fields)
	return strings.Join(fields, " ")
}

// classesSorted reports whether the space-separated classes of s are in
// sorted order.
func classesSorted(s string) bool {
	prev := ""
	for s != "" {
		cur, rest, _ := strings.Cut(s, " ")
		if cur < prev {
			return false
		}
		prev, s = cur, rest
	}
	return true
}

// leafField is one text-bearing position inside a record subtree.
type leafField struct {
	path   string // tag/class path relative to record root
	header string // embedded label if the page shows one ("Price: …")
	value  string
}

// pathField is one position aligned across records: its values in record
// order.
type pathField struct {
	path   string
	header string
	values []string
}

// recordLeaves collects each record's leaves once, for both induceFields
// and structuralConfidence.
func recordLeaves(records []*html.Node) [][]leafField {
	out := make([][]leafField, len(records))
	for i, rec := range records {
		out[i] = collectLeaves(rec)
	}
	return out
}

// induceFields aligns the leaf text positions across record instances and
// produces one rule per stable position. records holds each record's
// leaves, as recordLeaves returns them.
func induceFields(records [][]leafField, tax *ontology.Taxonomy) []FieldRule {
	// Index the per-record leaves by relative structural path.
	byPath := map[string]*pathField{}
	var pathOrder []string
	for _, leaves := range records {
		for _, lf := range leaves {
			f, ok := byPath[lf.path]
			if !ok {
				f = &pathField{path: lf.path, header: lf.header}
				byPath[lf.path] = f
				pathOrder = append(pathOrder, lf.path)
			}
			if f.header == "" && lf.header != "" {
				f.header = lf.header
			}
			f.values = append(f.values, lf.value)
		}
	}
	// Constant-valued positions across many records are template
	// boilerplate (e.g. <dt> labels); attach the constant as the header of
	// the following position and drop the boilerplate field itself.
	skip := map[string]bool{}
	if len(records) > 3 {
		for i, p := range pathOrder {
			f := byPath[p]
			if c, ok := constantValue(f.values); ok && len(f.values) >= len(records) {
				skip[p] = true
				if i+1 < len(pathOrder) {
					next := byPath[pathOrder[i+1]]
					if next.header == "" {
						next.header = strings.TrimSuffix(strings.TrimSpace(c), ":")
					}
				}
			}
		}
	}
	// Keep positions present in at least half the records; drop positions
	// that match multiple nodes per record (ambiguous selectors, e.g. the
	// shared <dt> path in definition lists).
	threshold := len(records) / 2
	maxCount := len(records)*3/2 + 1
	var fields []FieldRule
	for idx, p := range pathOrder {
		f := byPath[p]
		if skip[p] || len(f.values) < threshold || len(f.values) > maxCount {
			continue
		}
		rule := FieldRule{Selector: pathToSelector(p), Header: f.header, Index: idx}
		rule.Property = labelField(f, tax)
		fields = append(fields, rule)
	}
	return fields
}

// constantValue reports whether every non-empty value is identical.
func constantValue(values []string) (string, bool) {
	c := ""
	for _, v := range values {
		if v == "" {
			continue
		}
		if c == "" {
			c = v
		} else if v != c {
			return "", false
		}
	}
	return c, c != ""
}

// collectLeaves walks a record subtree and returns its text positions. For
// "label: value" markup (e.g. <b>Price:</b> 4.99 or <dt>price</dt><dd>…)
// the label is captured as header rather than value.
func collectLeaves(rec *html.Node) []leafField {
	var out []leafField
	var walk func(n *html.Node, path string)
	walk = func(n *html.Node, path string) {
		if n.Type == html.ElementNode {
			step := n.Tag
			if cc := canonicalClass(n); cc != "" {
				step += "." + strings.ReplaceAll(cc, " ", ".")
			}
			if path != "" {
				path = path + ">" + step
			} else {
				path = step
			}
		}
		// A node is a leaf position if it has direct text content.
		direct := directText(n)
		if n.Type == html.ElementNode && direct != "" {
			header, value := splitLabelled(n, direct)
			if header == "" {
				header = siblingLabel(n)
			}
			out = append(out, leafField{path: path, header: header, value: value})
		}
		for _, c := range n.Children {
			if c.Type == html.ElementNode {
				walk(c, path)
			}
		}
	}
	for _, c := range rec.Children {
		if c.Type == html.ElementNode {
			walk(c, "")
		}
	}
	return out
}

// directText returns the concatenated text of n's direct text children,
// normalised. A lone text child that is already single-spaced is returned
// as it is.
func directText(n *html.Node) string {
	var lone *html.Node
	for _, c := range n.Children {
		if c.Type == html.TextNode {
			if lone != nil {
				lone = nil
				break
			}
			lone = c
		}
	}
	if lone != nil && singleSpaced(lone.Data) {
		return lone.Data
	}
	var b strings.Builder
	for _, c := range n.Children {
		if c.Type == html.TextNode {
			b.WriteString(c.Data)
			b.WriteByte(' ')
		}
	}
	return strings.Join(strings.Fields(b.String()), " ")
}

// singleSpaced reports whether s is printable ASCII with no leading,
// trailing or repeated space. Such a string is its own
// strings.Join(strings.Fields(s), " ").
func singleSpaced(s string) bool {
	for i := 0; i < len(s); i++ {
		b := s[i]
		if b >= utf8.RuneSelf || b < ' ' {
			return false
		}
		if b == ' ' && (i == 0 || i == len(s)-1 || s[i-1] == ' ') {
			return false
		}
	}
	return true
}

// splitLabelled separates "Label: value" patterns. It checks an inline
// <b>/<strong>/<dt> label child first, then a "label:" textual prefix.
func splitLabelled(n *html.Node, direct string) (header, value string) {
	for _, c := range n.Children {
		if c.Type == html.ElementNode && (c.Tag == "b" || c.Tag == "strong" || c.Tag == "label") {
			h := strings.TrimSuffix(strings.TrimSpace(c.Text()), ":")
			return h, direct
		}
	}
	if i := strings.Index(direct, ":"); i > 0 && i < 30 && !strings.HasPrefix(direct[i+1:], "//") {
		head := direct[:i]
		if !strings.ContainsAny(head, "0123456789") {
			return strings.TrimSpace(head), strings.TrimSpace(direct[i+1:])
		}
	}
	return "", direct
}

// siblingLabel returns the text of an immediately preceding label-ish
// sibling (dt, th, label) — the "definition list" labelling convention.
func siblingLabel(n *html.Node) string {
	if n.Parent == nil {
		return ""
	}
	var prev *html.Node
	for _, sib := range n.Parent.Children {
		if sib == n {
			break
		}
		if sib.Type == html.ElementNode {
			prev = sib
		}
	}
	if prev != nil && (prev.Tag == "dt" || prev.Tag == "th" || prev.Tag == "label") {
		return strings.TrimSuffix(strings.TrimSpace(prev.Text()), ":")
	}
	return ""
}

// pathToSelector converts a relative structural path into a selector.
func pathToSelector(path string) string {
	return strings.ReplaceAll(path, ">", " > ")
}

// labelField assigns a canonical property to a field using, in order:
// the visible header via the ontology property vocabulary, then value-shape
// heuristics (prices look like money, ratings like small decimals, SKUs
// like code patterns).
func labelField(f *pathField, tax *ontology.Taxonomy) string {
	if tax != nil && f.header != "" {
		if canon, conf := tax.CanonicalProperty(f.header); canon != "" && conf >= 0.75 {
			return canon
		}
	}
	return shapeLabel(f.values)
}

// shapeLabel inspects value shapes and guesses a property. It is the
// fallback when no header evidence exists.
func shapeLabel(values []string) string {
	if len(values) == 0 {
		return ""
	}
	n := len(values)
	codes, money, small, urls, dates, texts := 0, 0, 0, 0, 0, 0
	for _, v := range values {
		v = strings.TrimSpace(v)
		switch {
		case v == "":
		case looksLikeCode(v):
			codes++
		case strings.HasPrefix(v, "http"):
			urls++
		case looksLikeDate(v):
			dates++
		case looksLikeMoney(v):
			money++
			if looksLikeSmallDecimal(v) {
				small++
			}
		default:
			texts++
		}
	}
	switch {
	case codes*2 > n:
		return "sku"
	case urls*2 > n:
		return "url"
	case dates*2 > n:
		return "updated"
	case money*2 > n:
		// All-money columns whose values fit the 1-5 one-decimal shape are
		// ratings, not prices.
		if small == money {
			return "rating"
		}
		return "price"
	case texts*2 > n:
		return "name"
	}
	return ""
}

func looksLikeCode(v string) bool {
	if len(v) < 5 || strings.Contains(v, " ") {
		return false
	}
	hasDigit, hasUpper, hasDash := false, false, false
	for _, r := range v {
		switch {
		case r >= '0' && r <= '9':
			hasDigit = true
		case r >= 'A' && r <= 'Z':
			hasUpper = true
		case r == '-' || r == '_':
			hasDash = true
		case r >= 'a' && r <= 'z', r == '.':
		default:
			return false
		}
	}
	return hasDigit && (hasUpper || hasDash)
}

func looksLikeMoney(v string) bool {
	v = strings.TrimLeft(v, "$€£ ")
	if v == "" {
		return false
	}
	dot := false
	for _, r := range v {
		if r == '.' {
			if dot {
				return false
			}
			dot = true
			continue
		}
		if r == ',' {
			continue
		}
		if r < '0' || r > '9' {
			return false
		}
	}
	return true
}

func looksLikeSmallDecimal(v string) bool {
	if !looksLikeMoney(v) {
		return false
	}
	var f float64
	if _, err := fmt.Sscanf(strings.TrimLeft(v, "$€£ "), "%f", &f); err != nil {
		return false
	}
	return f >= 0 && f <= 5 && strings.Contains(v, ".")
}

func looksLikeDate(v string) bool {
	return len(v) >= 10 && v[4] == '-' && v[7] == '-'
}

// structuralConfidence measures how uniform the record subtrees are: the
// mean pairwise (sampled) similarity of their tag-path sets. records holds
// each record's leaves, as recordLeaves returns them.
func structuralConfidence(records [][]leafField) float64 {
	if len(records) < 2 {
		return 0
	}
	sigs := make([]map[string]bool, len(records))
	for i, leaves := range records {
		sig := map[string]bool{}
		for _, lf := range leaves {
			sig[lf.path] = true
		}
		sigs[i] = sig
	}
	pairs, sum := 0, 0.0
	step := len(records)/20 + 1
	for i := 0; i < len(records); i += step {
		j := (i + step) % len(records)
		if j == i {
			continue
		}
		sum += setJaccard(sigs[i], sigs[j])
		pairs++
	}
	if pairs == 0 {
		return 1
	}
	return sum / float64(pairs)
}

func setJaccard(a, b map[string]bool) float64 {
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

// Run executes the wrapper against a page and returns the extracted table.
// Columns are named by canonical property when labelled, otherwise by the
// visible header, otherwise "field_i". Values are type-inferred.
func (w *Wrapper) Run(page *html.Node) (*dataset.Table, error) {
	recSel, err := html.Compile(w.RecordSelector)
	if err != nil {
		return nil, fmt.Errorf("extract: bad record selector %q: %w", w.RecordSelector, err)
	}
	records := recSel.Find(page)
	if len(records) == 0 {
		return nil, fmt.Errorf("extract: wrapper for %s matched no records", w.SourceID)
	}
	schema := make(dataset.Schema, 0, len(w.Fields))
	used := map[string]bool{}
	fieldSels := make([]*html.Selector, len(w.Fields))
	for i, f := range w.Fields {
		name := f.Property
		if name == "" {
			name = strings.ToLower(strings.TrimSpace(f.Header))
		}
		if name == "" {
			name = fmt.Sprintf("field_%d", f.Index)
		}
		for used[name] {
			name += "_x"
		}
		used[name] = true
		schema = append(schema, dataset.Field{Name: name, Kind: dataset.KindString})
		if f.Selector != "" {
			fieldSels[i], _ = html.Compile(f.Selector)
		}
	}
	// One walk per record finds every field's first match.
	set := html.NewFirstSet(fieldSels)
	nodes := make([]*html.Node, len(fieldSels))
	out := dataset.NewTable(schema)
	for _, rec := range records {
		row := make(dataset.Record, len(w.Fields))
		set.FindFirst(rec, nodes)
		for i, node := range nodes {
			row[i] = dataset.Null()
			if node != nil {
				_, value := splitLabelled(node, directText(node))
				row[i] = dataset.Parse(value)
			}
		}
		out.Append(row)
	}
	return out, nil
}
