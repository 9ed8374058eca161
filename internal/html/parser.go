// Package html implements a small HTML parser, DOM and CSS-like selector
// engine. It is the substrate for the web data extraction components
// (§2.2 and §4.1 of Furche et al.): wrapper induction learns node paths on
// these DOM trees and wrapper execution evaluates selectors against them.
//
// The parser is tolerant rather than spec-complete: it handles nesting,
// attributes (quoted and unquoted), void and self-closing elements,
// comments, and the common character entities. That is sufficient for the
// generated deep-web corpus and keeps the package dependency-free.
package html

import (
	"fmt"
	"strings"
	"unicode/utf8"
)

// NodeType distinguishes element nodes from text nodes.
type NodeType uint8

// Node types.
const (
	ElementNode NodeType = iota
	TextNode
)

// Node is one node of the DOM tree. Text nodes have Data set and no
// children; element nodes have Tag, Attrs and Children.
type Node struct {
	Type     NodeType
	Tag      string            // lowercase element name (element nodes)
	Data     string            // text content (text nodes)
	Attrs    map[string]string // attributes (element nodes)
	Children []*Node
	Parent   *Node
}

// voidElements never have children and need no closing tag.
var voidElements = map[string]bool{
	"area": true, "base": true, "br": true, "col": true, "embed": true,
	"hr": true, "img": true, "input": true, "link": true, "meta": true,
	"param": true, "source": true, "track": true, "wbr": true,
}

// Parse parses an HTML document (or fragment) into a synthetic root element
// with tag "#root". It never fails on malformed input; unclosed elements
// are closed at end of input and stray end tags are ignored.
func Parse(src string) *Node {
	root := &Node{Type: ElementNode, Tag: "#root", Attrs: map[string]string{}}
	stack := []*Node{root}
	i := 0
	n := len(src)
	appendText := func(s string) {
		if s == "" {
			return
		}
		parent := stack[len(stack)-1]
		child := &Node{Type: TextNode, Data: Unescape(s), Parent: parent}
		parent.Children = append(parent.Children, child)
	}
	for i < n {
		lt := strings.IndexByte(src[i:], '<')
		if lt < 0 {
			appendText(src[i:])
			break
		}
		appendText(src[i : i+lt])
		i += lt
		// Comment?
		if strings.HasPrefix(src[i:], "<!--") {
			end := strings.Index(src[i+4:], "-->")
			if end < 0 {
				break
			}
			i += 4 + end + 3
			continue
		}
		// Doctype or other declaration?
		if strings.HasPrefix(src[i:], "<!") || strings.HasPrefix(src[i:], "<?") {
			end := strings.IndexByte(src[i:], '>')
			if end < 0 {
				break
			}
			i += end + 1
			continue
		}
		gt := strings.IndexByte(src[i:], '>')
		if gt < 0 {
			appendText(src[i:])
			break
		}
		tagSrc := src[i+1 : i+gt]
		i += gt + 1
		if strings.HasPrefix(tagSrc, "/") {
			// End tag: pop to the matching open element if present.
			name := strings.ToLower(strings.TrimSpace(tagSrc[1:]))
			for d := len(stack) - 1; d >= 1; d-- {
				if stack[d].Tag == name {
					stack = stack[:d]
					break
				}
			}
			continue
		}
		selfClose := strings.HasSuffix(tagSrc, "/")
		if selfClose {
			tagSrc = tagSrc[:len(tagSrc)-1]
		}
		name, attrs := parseTag(tagSrc)
		if name == "" {
			continue
		}
		parent := stack[len(stack)-1]
		el := &Node{Type: ElementNode, Tag: name, Attrs: attrs, Parent: parent}
		parent.Children = append(parent.Children, el)
		if name == "script" || name == "style" {
			// Raw text elements: consume to the closing tag verbatim.
			closer := "</" + name
			idx := strings.Index(strings.ToLower(src[i:]), closer)
			if idx < 0 {
				break
			}
			raw := src[i : i+idx]
			if raw != "" {
				el.Children = append(el.Children, &Node{Type: TextNode, Data: raw, Parent: el})
			}
			i += idx
			gt2 := strings.IndexByte(src[i:], '>')
			if gt2 < 0 {
				break
			}
			i += gt2 + 1
			continue
		}
		if !selfClose && !voidElements[name] {
			stack = append(stack, el)
		}
	}
	return root
}

// parseTag splits "div class=\"x\" id=y" into name and attribute map.
func parseTag(s string) (string, map[string]string) {
	s = strings.TrimSpace(s)
	if s == "" {
		return "", nil
	}
	nameEnd := len(s)
	for j, r := range s {
		if r == ' ' || r == '\t' || r == '\n' || r == '\r' {
			nameEnd = j
			break
		}
	}
	name := strings.ToLower(s[:nameEnd])
	attrs := map[string]string{}
	rest := s[nameEnd:]
	j := 0
	for j < len(rest) {
		// Skip whitespace.
		for j < len(rest) && isSpace(rest[j]) {
			j++
		}
		if j >= len(rest) {
			break
		}
		// Attribute name.
		start := j
		for j < len(rest) && rest[j] != '=' && !isSpace(rest[j]) {
			j++
		}
		key := strings.ToLower(rest[start:j])
		if key == "" {
			j++
			continue
		}
		for j < len(rest) && isSpace(rest[j]) {
			j++
		}
		if j >= len(rest) || rest[j] != '=' {
			attrs[key] = "" // bare attribute
			continue
		}
		j++ // skip '='
		for j < len(rest) && isSpace(rest[j]) {
			j++
		}
		if j >= len(rest) {
			attrs[key] = ""
			break
		}
		var val string
		if rest[j] == '"' || rest[j] == '\'' {
			q := rest[j]
			j++
			end := strings.IndexByte(rest[j:], q)
			if end < 0 {
				val = rest[j:]
				j = len(rest)
			} else {
				val = rest[j : j+end]
				j += end + 1
			}
		} else {
			start = j
			for j < len(rest) && !isSpace(rest[j]) {
				j++
			}
			val = rest[start:j]
		}
		attrs[key] = Unescape(val)
	}
	return name, attrs
}

func isSpace(b byte) bool { return b == ' ' || b == '\t' || b == '\n' || b == '\r' }

// Package-level replacers: a strings.Replacer builds its matching
// machine lazily on first use, so constructing one per call rebuilt it
// for every string — these two showed up in the refresh tail's
// allocation profile.
var (
	unescaper = strings.NewReplacer(
		"&amp;", "&", "&lt;", "<", "&gt;", ">",
		"&quot;", `"`, "&#39;", "'", "&apos;", "'", "&nbsp;", " ",
	)
	escaper = strings.NewReplacer("&", "&amp;", "<", "&lt;", ">", "&gt;", `"`, "&quot;")
)

// Unescape replaces the common character entities with their characters.
func Unescape(s string) string {
	if !strings.ContainsRune(s, '&') {
		return s
	}
	return unescaper.Replace(s)
}

// Escape replaces HTML-significant characters with entities.
func Escape(s string) string {
	return escaper.Replace(s)
}

// Text returns the concatenated, whitespace-normalised text content of the
// subtree rooted at n.
func (n *Node) Text() string {
	var b strings.Builder
	n.collectText(&b)
	return strings.Join(strings.Fields(b.String()), " ")
}

func (n *Node) collectText(b *strings.Builder) {
	if n.Type == TextNode {
		b.WriteString(n.Data)
		b.WriteByte(' ')
		return
	}
	for _, c := range n.Children {
		c.collectText(b)
	}
}

// Attr returns the value of the named attribute, or "".
func (n *Node) Attr(name string) string {
	if n.Attrs == nil {
		return ""
	}
	return n.Attrs[name]
}

// HasClass reports whether the node's class attribute contains the class.
// It scans the attribute in place; only a non-ASCII attribute, whose
// Unicode spaces strings.Fields also splits on, takes the Fields path.
func (n *Node) HasClass(class string) bool {
	attr := n.Attr("class")
	for i := 0; i < len(attr); i++ {
		if attr[i] >= utf8.RuneSelf {
			for _, c := range strings.Fields(attr) {
				if c == class {
					return true
				}
			}
			return false
		}
	}
	for attr != "" {
		i := 0
		for i < len(attr) && asciiSpace(attr[i]) {
			i++
		}
		j := i
		for j < len(attr) && !asciiSpace(attr[j]) {
			j++
		}
		if j > i && attr[i:j] == class {
			return true
		}
		attr = attr[j:]
	}
	return false
}

// asciiSpace reports the ASCII bytes strings.Fields splits on.
func asciiSpace(b byte) bool {
	return b == ' ' || b == '\t' || b == '\n' || b == '\v' || b == '\f' || b == '\r'
}

// ElementChildren returns the element-node children of n.
func (n *Node) ElementChildren() []*Node {
	out := make([]*Node, 0, len(n.Children))
	for _, c := range n.Children {
		if c.Type == ElementNode {
			out = append(out, c)
		}
	}
	return out
}

// Walk visits every node in the subtree in document order. Returning false
// from fn prunes the subtree below the current node.
func (n *Node) Walk(fn func(*Node) bool) {
	if !fn(n) {
		return
	}
	for _, c := range n.Children {
		c.Walk(fn)
	}
}

// Path returns the structural path of n from the root as a slash-separated
// list of tag[childIndex] steps, e.g. "html[0]/body[1]/div[3]". It is the
// representation wrapper induction generalises over.
func (n *Node) Path() string {
	var steps []string
	cur := n
	for cur != nil && cur.Tag != "#root" {
		idx := 0
		if cur.Parent != nil {
			for i, sib := range cur.Parent.ElementChildren() {
				if sib == cur {
					idx = i
					break
				}
			}
		}
		steps = append([]string{fmt.Sprintf("%s[%d]", cur.Tag, idx)}, steps...)
		cur = cur.Parent
	}
	return strings.Join(steps, "/")
}

// Render serialises the subtree back to HTML (element nodes only at root).
func (n *Node) Render() string {
	var b strings.Builder
	n.render(&b)
	return b.String()
}

func (n *Node) render(b *strings.Builder) {
	if n.Type == TextNode {
		b.WriteString(Escape(n.Data))
		return
	}
	if n.Tag != "#root" {
		b.WriteByte('<')
		b.WriteString(n.Tag)
		for k, v := range n.Attrs {
			b.WriteByte(' ')
			b.WriteString(k)
			b.WriteString(`="`)
			b.WriteString(Escape(v))
			b.WriteByte('"')
		}
		b.WriteByte('>')
		if voidElements[n.Tag] {
			return
		}
	}
	for _, c := range n.Children {
		c.render(b)
	}
	if n.Tag != "#root" {
		b.WriteString("</")
		b.WriteString(n.Tag)
		b.WriteByte('>')
	}
}
