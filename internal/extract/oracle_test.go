package extract

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/dataset"
	"repro/internal/html"
	"repro/internal/ontology"
)

// This file keeps the extraction kernels as they were before the one-pass
// rewrite, as the oracle FuzzWrapperRun compares against: induction that
// collects every record's leaves twice and scores record groups with
// Text() and a subtree walk per member, and execution that runs one
// whole-subtree Find per field per record. The one deliberate difference
// is that referenceFindRecordSet visits a parent's groups in order of
// their first member, where the original ranged over a map and so broke
// score ties at random.

// referenceInduce is Induce before the rewrite.
func referenceInduce(sourceID string, page *html.Node, tax *ontology.Taxonomy) (*Wrapper, error) {
	recordNodes, selector := referenceFindRecordSet(page)
	if len(recordNodes) < 2 {
		return nil, fmt.Errorf("extract: no repeated record structure on page of %s", sourceID)
	}
	fields := referenceInduceFields(recordNodes, tax)
	if len(fields) == 0 {
		return nil, fmt.Errorf("extract: records of %s have no extractable fields", sourceID)
	}
	conf := referenceStructuralConfidence(recordNodes)
	return &Wrapper{
		SourceID:       sourceID,
		RecordSelector: selector,
		Fields:         fields,
		Confidence:     conf,
	}, nil
}

// referenceRun is Wrapper.Run before the rewrite: the first element of
// each field selector's Find, per record.
func referenceRun(w *Wrapper, page *html.Node) (*dataset.Table, error) {
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
	out := dataset.NewTable(schema)
	for _, rec := range records {
		row := make(dataset.Record, len(w.Fields))
		for i := range w.Fields {
			row[i] = dataset.Null()
			if fieldSels[i] == nil {
				continue
			}
			if matches := fieldSels[i].Find(rec); len(matches) > 0 {
				node := matches[0]
				_, value := referenceSplitLabelled(node, referenceDirectText(node))
				row[i] = dataset.Parse(value)
			}
		}
		out.Append(row)
	}
	return out, nil
}

func referenceFindRecordSet(page *html.Node) ([]*html.Node, string) {
	type candidate struct {
		nodes    []*html.Node
		selector string
		score    float64
	}
	var best candidate
	page.Walk(func(n *html.Node) bool {
		if n.Type != html.ElementNode {
			return true
		}
		groups := map[string][]*html.Node{}
		var keys []string
		for _, c := range n.ElementChildren() {
			if referenceIsHeaderish(c) {
				continue
			}
			key := c.Tag + "|" + referenceCanonicalClass(c)
			if _, ok := groups[key]; !ok {
				keys = append(keys, key)
			}
			groups[key] = append(groups[key], c)
		}
		for _, key := range keys {
			nodes := groups[key]
			if len(nodes) < 2 {
				continue
			}
			textful := 0
			for _, nd := range nodes {
				if nd.Text() != "" {
					textful++
				}
			}
			if textful < 2 {
				continue
			}
			meanSize := 0.0
			for _, nd := range nodes {
				meanSize += float64(referenceSubtreeSize(nd))
			}
			meanSize /= float64(len(nodes))
			score := float64(len(nodes)) * meanSize
			if score > best.score {
				parts := strings.SplitN(key, "|", 2)
				sel := parts[0]
				if parts[1] != "" {
					sel += "." + strings.ReplaceAll(parts[1], " ", ".")
				}
				best = candidate{nodes: nodes, selector: sel, score: score}
			}
		}
		return true
	})
	return best.nodes, best.selector
}

func referenceIsHeaderish(n *html.Node) bool {
	if n.Tag == "thead" || n.Tag == "th" {
		return true
	}
	for _, c := range n.ElementChildren() {
		if c.Tag == "th" {
			return true
		}
	}
	return false
}

func referenceCanonicalClass(n *html.Node) string {
	fields := strings.Fields(n.Attr("class"))
	sort.Strings(fields)
	return strings.Join(fields, " ")
}

func referenceSubtreeSize(n *html.Node) int {
	size := 0
	n.Walk(func(*html.Node) bool { size++; return true })
	return size
}

func referenceInduceFields(records []*html.Node, tax *ontology.Taxonomy) []FieldRule {
	byPath := map[string]*pathField{}
	var pathOrder []string
	for _, rec := range records {
		for _, lf := range referenceCollectLeaves(rec) {
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

func referenceCollectLeaves(rec *html.Node) []leafField {
	var out []leafField
	var walk func(n *html.Node, path string)
	walk = func(n *html.Node, path string) {
		if n.Type == html.ElementNode {
			step := n.Tag
			if cc := referenceCanonicalClass(n); cc != "" {
				step += "." + strings.ReplaceAll(cc, " ", ".")
			}
			if path != "" {
				path = path + ">" + step
			} else {
				path = step
			}
		}
		direct := referenceDirectText(n)
		if n.Type == html.ElementNode && direct != "" {
			header, value := referenceSplitLabelled(n, direct)
			if header == "" {
				header = referenceSiblingLabel(n)
			}
			out = append(out, leafField{path: path, header: header, value: value})
		}
		for _, c := range n.Children {
			if c.Type == html.ElementNode {
				walk(c, path)
			}
		}
	}
	for _, c := range rec.ElementChildren() {
		walk(c, "")
	}
	return out
}

func referenceDirectText(n *html.Node) string {
	var b strings.Builder
	for _, c := range n.Children {
		if c.Type == html.TextNode {
			b.WriteString(c.Data)
			b.WriteByte(' ')
		}
	}
	return strings.Join(strings.Fields(b.String()), " ")
}

func referenceSplitLabelled(n *html.Node, direct string) (header, value string) {
	for _, c := range n.ElementChildren() {
		if c.Tag == "b" || c.Tag == "strong" || c.Tag == "label" {
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

func referenceSiblingLabel(n *html.Node) string {
	if n.Parent == nil {
		return ""
	}
	var prev *html.Node
	for _, sib := range n.Parent.ElementChildren() {
		if sib == n {
			break
		}
		prev = sib
	}
	if prev != nil && (prev.Tag == "dt" || prev.Tag == "th" || prev.Tag == "label") {
		return strings.TrimSuffix(strings.TrimSpace(prev.Text()), ":")
	}
	return ""
}

func referenceStructuralConfidence(records []*html.Node) float64 {
	if len(records) < 2 {
		return 0
	}
	sigs := make([]map[string]bool, len(records))
	for i, r := range records {
		sig := map[string]bool{}
		for _, lf := range referenceCollectLeaves(r) {
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
