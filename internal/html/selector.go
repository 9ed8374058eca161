package html

import (
	"fmt"
	"strconv"
	"strings"
)

// Selector is a compiled CSS-like selector. Supported grammar:
//
//	selector  = step (combinator step)*
//	combinator = " " (descendant) | ">" (child)
//	step      = [tag] ("." class | "#" id | "[" attr ("=" value)? "]" |
//	            ":nth-of-type(" n ")")*
//
// Examples: "div.product > span.price", "table[id=results] td",
// "li:nth-of-type(2)".
type Selector struct {
	steps []selStep
	src   string
}

type selStep struct {
	tag       string
	classes   []string
	id        string
	attrKey   string
	attrVal   string
	hasAttr   bool
	nthOfType int    // 1-based; 0 means unset
	child     bool   // true: direct child of previous step's match
	src       string // the step's source text, the key FirstSet groups by
}

// Compile parses a selector string.
func Compile(src string) (*Selector, error) {
	s := strings.TrimSpace(src)
	if s == "" {
		return nil, fmt.Errorf("html: empty selector")
	}
	var steps []selStep
	child := false
	for len(s) > 0 {
		s = strings.TrimLeft(s, " \t")
		if strings.HasPrefix(s, ">") {
			if len(steps) == 0 {
				return nil, fmt.Errorf("html: selector %q starts with combinator", src)
			}
			child = true
			s = strings.TrimLeft(s[1:], " \t")
			continue
		}
		// Consume one compound step.
		end := 0
		depth := 0
		for end < len(s) {
			c := s[end]
			if c == '[' {
				depth++
			}
			if c == ']' {
				depth--
			}
			if depth == 0 && (c == ' ' || c == '>') {
				break
			}
			end++
		}
		stepSrc := s[:end]
		s = s[end:]
		step, err := parseStep(stepSrc)
		if err != nil {
			return nil, fmt.Errorf("html: selector %q: %w", src, err)
		}
		step.child = child
		step.src = stepSrc
		child = false
		steps = append(steps, step)
	}
	if len(steps) == 0 {
		return nil, fmt.Errorf("html: empty selector")
	}
	return &Selector{steps: steps, src: src}, nil
}

// MustCompile is Compile that panics on error, for static selectors.
func MustCompile(src string) *Selector {
	sel, err := Compile(src)
	if err != nil {
		panic(err)
	}
	return sel
}

// String returns the source text of the selector.
func (s *Selector) String() string { return s.src }

func parseStep(src string) (selStep, error) {
	var st selStep
	i := 0
	// Leading tag name.
	for i < len(src) && src[i] != '.' && src[i] != '#' && src[i] != '[' && src[i] != ':' {
		i++
	}
	st.tag = strings.ToLower(src[:i])
	for i < len(src) {
		switch src[i] {
		case '.':
			j := i + 1
			for j < len(src) && src[j] != '.' && src[j] != '#' && src[j] != '[' && src[j] != ':' {
				j++
			}
			if j == i+1 {
				return st, fmt.Errorf("empty class in %q", src)
			}
			st.classes = append(st.classes, src[i+1:j])
			i = j
		case '#':
			j := i + 1
			for j < len(src) && src[j] != '.' && src[j] != '[' && src[j] != ':' {
				j++
			}
			if j == i+1 {
				return st, fmt.Errorf("empty id in %q", src)
			}
			st.id = src[i+1 : j]
			i = j
		case '[':
			j := strings.IndexByte(src[i:], ']')
			if j < 0 {
				return st, fmt.Errorf("unclosed attribute in %q", src)
			}
			body := src[i+1 : i+j]
			if eq := strings.IndexByte(body, '='); eq >= 0 {
				st.attrKey = strings.ToLower(body[:eq])
				st.attrVal = strings.Trim(body[eq+1:], `"'`)
				st.hasAttr = true
			} else {
				st.attrKey = strings.ToLower(body)
				st.hasAttr = true
				st.attrVal = ""
			}
			i += j + 1
		case ':':
			const prefix = ":nth-of-type("
			if !strings.HasPrefix(src[i:], prefix) {
				return st, fmt.Errorf("unsupported pseudo-class in %q", src)
			}
			j := strings.IndexByte(src[i:], ')')
			if j < 0 {
				return st, fmt.Errorf("unclosed pseudo-class in %q", src)
			}
			nStr := src[i+len(prefix) : i+j]
			n, err := strconv.Atoi(nStr)
			if err != nil || n < 1 {
				return st, fmt.Errorf("bad nth-of-type %q", nStr)
			}
			st.nthOfType = n
			i += j + 1
		default:
			return st, fmt.Errorf("unexpected character %q in %q", src[i], src)
		}
	}
	return st, nil
}

func (st *selStep) matches(n *Node) bool {
	if n.Type != ElementNode {
		return false
	}
	if st.tag != "" && st.tag != "*" && n.Tag != st.tag {
		return false
	}
	for _, c := range st.classes {
		if !n.HasClass(c) {
			return false
		}
	}
	if st.id != "" && n.Attr("id") != st.id {
		return false
	}
	if st.hasAttr {
		v, ok := n.Attrs[st.attrKey]
		if !ok {
			return false
		}
		if st.attrVal != "" && v != st.attrVal {
			return false
		}
	}
	if st.nthOfType > 0 {
		if n.Parent == nil {
			return false
		}
		count := 0
		for _, sib := range n.Parent.Children {
			if sib.Type == ElementNode && sib.Tag == n.Tag {
				count++
				if sib == n {
					break
				}
			}
		}
		if count != st.nthOfType {
			return false
		}
	}
	return true
}

// Find returns all nodes in the subtree rooted at root (excluding root
// itself unless it matches a one-step selector) matching the selector, in
// base-major order: each step lists the matches under its first base, then
// those under the next base not already listed. For one base that is
// document order; for nested bases an outer base's later matches come
// before an inner base's earlier ones.
func (s *Selector) Find(root *Node) []*Node {
	// current holds nodes matching the prefix of steps processed so far.
	current := []*Node{root}
	for si, step := range s.steps {
		var next []*Node
		// One base cannot reach a node twice: a child list and a subtree
		// walk are both duplicate-free.
		var seen map[*Node]bool
		if len(current) > 1 {
			seen = map[*Node]bool{}
		}
		add := func(n *Node) {
			if seen != nil {
				if seen[n] {
					return
				}
				seen[n] = true
			}
			next = append(next, n)
		}
		for _, base := range current {
			if step.child {
				for _, c := range base.Children {
					if step.matches(c) {
						add(c)
					}
				}
			} else {
				base.Walk(func(n *Node) bool {
					// Only the first step may match the base itself.
					if (n != base || si == 0) && step.matches(n) {
						add(n)
					}
					return true
				})
			}
		}
		current = next
		if len(current) == 0 {
			return nil
		}
	}
	return current
}

// FindFirst returns the first node Find would return, or nil. It searches
// depth-first along the steps and stops at the first complete match, so
// it allocates nothing.
func (s *Selector) FindFirst(root *Node) *Node {
	return s.firstFrom(0, root)
}

// firstFrom returns the first match of steps[si:] under base, in Find's
// order. Find's list without its de-duplication expands each base's
// matches in place, and de-duplication keeps first occurrences, so its
// first element is the first complete chain of this depth-first search.
func (s *Selector) firstFrom(si int, base *Node) *Node {
	if si == len(s.steps) {
		return base
	}
	step := &s.steps[si]
	if step.child {
		for _, c := range base.Children {
			if step.matches(c) {
				if r := s.firstFrom(si+1, c); r != nil {
					return r
				}
			}
		}
		return nil
	}
	if si == 0 && step.matches(base) {
		if r := s.firstFrom(1, base); r != nil {
			return r
		}
	}
	return s.firstBelow(si, base)
}

// firstBelow is firstFrom for a descendant step over base's strict
// descendants, in document order.
func (s *Selector) firstBelow(si int, base *Node) *Node {
	step := &s.steps[si]
	for _, c := range base.Children {
		if step.matches(c) {
			if r := s.firstFrom(si+1, c); r != nil {
				return r
			}
		}
		if r := s.firstBelow(si, c); r != nil {
			return r
		}
	}
	return nil
}

// FirstSet finds, for several selectors at once, the node each one's
// FindFirst returns. Selectors sharing a first step share its matches, and
// one walk of the subtree collects every first step's matches; the
// remaining steps then search from those matches as FindFirst does. A
// first step no selector continues past needs only its first match, and
// the walk stops once no step needs more.
type FirstSet struct {
	sels  []*Selector
	head  []int      // per selector: index into heads, -1 for a nil selector
	heads []*selStep // distinct first steps
	all   []bool     // per head: some selector continues past it
	found [][]*Node  // per head: its matches in the last walk, reused
	open  int        // heads still collecting in the current walk
}

// NewFirstSet groups the selectors by first step. A nil selector never
// matches.
func NewFirstSet(sels []*Selector) *FirstSet {
	fs := &FirstSet{sels: sels, head: make([]int, len(sels))}
	byKey := map[string]int{}
	for i, sel := range sels {
		fs.head[i] = -1
		if sel == nil {
			continue
		}
		key := sel.steps[0].src
		h, ok := byKey[key]
		if !ok {
			h = len(fs.heads)
			byKey[key] = h
			fs.heads = append(fs.heads, &sel.steps[0])
			fs.all = append(fs.all, false)
		}
		fs.head[i] = h
		fs.all[h] = fs.all[h] || len(sel.steps) > 1
	}
	fs.found = make([][]*Node, len(fs.heads))
	return fs
}

// FindFirst sets out[i] to sels[i].FindFirst(root) for every selector.
// out must be as long as the selector list.
func (fs *FirstSet) FindFirst(root *Node, out []*Node) {
	for h := range fs.found {
		fs.found[h] = fs.found[h][:0]
	}
	fs.open = len(fs.heads)
	if fs.open > 0 {
		fs.collect(root)
	}
	for i, sel := range fs.sels {
		out[i] = nil
		if fs.head[i] < 0 {
			continue
		}
		for _, m := range fs.found[fs.head[i]] {
			if r := sel.firstFrom(1, m); r != nil {
				out[i] = r
				break
			}
		}
	}
}

// collect appends every element of n's subtree, n included, to the matches
// of each first step it satisfies, in document order, until no step needs
// more.
func (fs *FirstSet) collect(n *Node) {
	if n.Type != ElementNode {
		return
	}
	for h, step := range fs.heads {
		if !fs.all[h] && len(fs.found[h]) > 0 {
			continue
		}
		if step.matches(n) {
			fs.found[h] = append(fs.found[h], n)
			if !fs.all[h] {
				fs.open--
			}
		}
	}
	for _, c := range n.Children {
		if fs.open == 0 {
			return
		}
		fs.collect(c)
	}
}
