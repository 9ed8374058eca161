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
	nthOfType int  // 1-based; 0 means unset
	child     bool // true: direct child of previous step's match
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
// document order.
func (s *Selector) Find(root *Node) []*Node {
	// current holds nodes matching the prefix of steps processed so far.
	current := []*Node{root}
	for si, step := range s.steps {
		var next []*Node
		seen := map[*Node]bool{}
		for _, base := range current {
			if step.child {
				for _, c := range base.Children {
					if step.matches(c) && !seen[c] {
						seen[c] = true
						next = append(next, c)
					}
				}
			} else {
				base.Walk(func(n *Node) bool {
					if n == base && si > 0 {
						return true
					}
					if n != base && step.matches(n) && !seen[n] {
						seen[n] = true
						next = append(next, n)
					}
					// also allow base itself to match for the first step
					if n == base && si == 0 && step.matches(n) && !seen[n] {
						seen[n] = true
						next = append(next, n)
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

// FindFirst returns the first match in document order, or nil.
func (s *Selector) FindFirst(root *Node) *Node {
	matches := s.Find(root)
	if len(matches) == 0 {
		return nil
	}
	return matches[0]
}
