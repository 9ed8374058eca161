package scale

import (
	"fmt"
	"sort"
	"strings"
)

// This file implements conjunctive queries over binary relations together
// with the static under-approximation of Barceló, Libkin and Romero [4]:
// a cyclic CQ is transformed — without looking at the data — into an
// acyclic query Q' with Q' ⊆ Q (every Q' answer is a Q answer) by
// collapsing variables until the query graph is a forest. Acyclic queries
// evaluate in polynomial time, so the approximation trades completeness
// for guaranteed-fast evaluation, exactly the §4.3 proposal.

// Atom is one binary relational atom R(x, y) over variables.
type Atom struct {
	Rel  string
	X, Y string
}

// CQ is a conjunctive query: answer variables plus a body of atoms.
type CQ struct {
	Head []string
	Body []Atom
}

// String renders the query in rule syntax.
func (q CQ) String() string {
	parts := make([]string, len(q.Body))
	for i, a := range q.Body {
		parts[i] = fmt.Sprintf("%s(%s,%s)", a.Rel, a.X, a.Y)
	}
	return fmt.Sprintf("ans(%s) :- %s", strings.Join(q.Head, ","), strings.Join(parts, ", "))
}

// Vars returns the distinct variables of the query body in first-seen
// order.
func (q CQ) Vars() []string {
	var out []string
	seen := map[string]bool{}
	for _, a := range q.Body {
		for _, v := range []string{a.X, a.Y} {
			if !seen[v] {
				seen[v] = true
				out = append(out, v)
			}
		}
	}
	return out
}

// Validate checks that head variables occur in the body.
func (q CQ) Validate() error {
	if len(q.Body) == 0 {
		return fmt.Errorf("scale: empty query body")
	}
	bodyVars := map[string]bool{}
	for _, v := range q.Vars() {
		bodyVars[v] = true
	}
	for _, h := range q.Head {
		if !bodyVars[h] {
			return fmt.Errorf("scale: head variable %q not in body", h)
		}
	}
	return nil
}

// IsAcyclic reports whether the query graph (variables as nodes, atoms as
// edges; parallel edges and self-loops count as cycles only if they relate
// distinct atom pairs over the same variable pair) is a forest.
func (q CQ) IsAcyclic() bool {
	parent := map[string]string{}
	var find func(string) string
	find = func(x string) string {
		p, ok := parent[x]
		if !ok {
			parent[x] = x
			return x
		}
		if p == x {
			return x
		}
		root := find(p)
		parent[x] = root
		return root
	}
	seenEdge := map[string]bool{}
	for _, a := range q.Body {
		if a.X == a.Y {
			continue // self-loop atom is a filter, not a cycle
		}
		ek := edgeKey(a.X, a.Y)
		if seenEdge[ek] {
			continue // parallel atoms over the same pair don't add cycles
		}
		seenEdge[ek] = true
		rx, ry := find(a.X), find(a.Y)
		if rx == ry {
			return false
		}
		parent[rx] = ry
	}
	return true
}

func edgeKey(a, b string) string {
	if b < a {
		a, b = b, a
	}
	return a + "\x1f" + b
}

// Approximate returns an acyclic under-approximation of q: while the query
// graph has a cycle, two variables on a cycle edge are identified (which
// corresponds to a homomorphic image of q, hence a query contained in q).
// The head is rewritten through the same identification. The query is
// returned unchanged when already acyclic. This is a purely static
// transformation — it never consults the data.
func Approximate(q CQ) CQ {
	cur := q
	for !cur.IsAcyclic() {
		x, y, ok := findCycleEdge(cur)
		if !ok {
			break
		}
		cur = identify(cur, x, y)
	}
	return cur
}

// findCycleEdge locates one edge that closes a cycle in the query graph.
func findCycleEdge(q CQ) (string, string, bool) {
	parent := map[string]string{}
	var find func(string) string
	find = func(x string) string {
		p, ok := parent[x]
		if !ok {
			parent[x] = x
			return x
		}
		if p == x {
			return x
		}
		root := find(p)
		parent[x] = root
		return root
	}
	seenEdge := map[string]bool{}
	for _, a := range q.Body {
		if a.X == a.Y {
			continue
		}
		ek := edgeKey(a.X, a.Y)
		if seenEdge[ek] {
			continue
		}
		seenEdge[ek] = true
		rx, ry := find(a.X), find(a.Y)
		if rx == ry {
			return a.X, a.Y, true
		}
		parent[rx] = ry
	}
	return "", "", false
}

// identify substitutes variable y by x throughout the query.
func identify(q CQ, x, y string) CQ {
	sub := func(v string) string {
		if v == y {
			return x
		}
		return v
	}
	out := CQ{Head: make([]string, len(q.Head)), Body: make([]Atom, len(q.Body))}
	for i, h := range q.Head {
		out.Head[i] = sub(h)
	}
	for i, a := range q.Body {
		out.Body[i] = Atom{Rel: a.Rel, X: sub(a.X), Y: sub(a.Y)}
	}
	return out
}

// Graph is a set of named binary relations with forward and backward
// indexes for CQ evaluation.
type Graph struct {
	fwd map[string]map[string][]string // rel -> x -> ys
	bwd map[string]map[string][]string // rel -> y -> xs
}

// NewGraph returns an empty relation store.
func NewGraph() *Graph {
	return &Graph{fwd: map[string]map[string][]string{}, bwd: map[string]map[string][]string{}}
}

// Add inserts the fact rel(x, y).
func (g *Graph) Add(rel, x, y string) {
	if g.fwd[rel] == nil {
		g.fwd[rel] = map[string][]string{}
		g.bwd[rel] = map[string][]string{}
	}
	g.fwd[rel][x] = append(g.fwd[rel][x], y)
	g.bwd[rel][y] = append(g.bwd[rel][y], x)
}

// Eval evaluates the query by backtracking over atoms (index nested-loop
// join) and returns the distinct head bindings, sorted. Work reports the
// number of index probes made — exponential in the worst case for cyclic
// queries, polynomial for acyclic ones.
func (g *Graph) Eval(q CQ) (results [][]string, work int, err error) {
	if err := q.Validate(); err != nil {
		return nil, 0, err
	}
	// Order atoms greedily for connectivity: each next atom shares a
	// variable with the bound set when possible.
	atoms := orderAtoms(q.Body)
	bind := map[string]string{}
	seen := map[string]bool{}
	var rec func(i int)
	rec = func(i int) {
		if i == len(atoms) {
			row := make([]string, len(q.Head))
			for hi, h := range q.Head {
				row[hi] = bind[h]
			}
			k := strings.Join(row, "\x1f")
			if !seen[k] {
				seen[k] = true
				results = append(results, row)
			}
			return
		}
		a := atoms[i]
		bx, hasX := bind[a.X]
		by, hasY := bind[a.Y]
		switch {
		case hasX && hasY:
			work++
			for _, y := range g.fwd[a.Rel][bx] {
				if y == by {
					rec(i + 1)
					break
				}
			}
		case hasX:
			work++
			for _, y := range g.fwd[a.Rel][bx] {
				if a.X == a.Y && y != bx {
					continue
				}
				bind[a.Y] = y
				rec(i + 1)
			}
			delete(bind, a.Y)
			if hasX {
				bind[a.X] = bx
			}
		case hasY:
			work++
			for _, x := range g.bwd[a.Rel][by] {
				if a.X == a.Y && x != by {
					continue
				}
				bind[a.X] = x
				rec(i + 1)
			}
			delete(bind, a.X)
			bind[a.Y] = by
		default:
			// Unbound atom: iterate the whole relation.
			for x, ys := range g.fwd[a.Rel] {
				work++
				for _, y := range ys {
					if a.X == a.Y && x != y {
						continue
					}
					bind[a.X] = x
					bind[a.Y] = y
					rec(i + 1)
				}
			}
			delete(bind, a.X)
			delete(bind, a.Y)
		}
	}
	rec(0)
	sort.Slice(results, func(i, j int) bool {
		for k := range results[i] {
			if results[i][k] != results[j][k] {
				return results[i][k] < results[j][k]
			}
		}
		return false
	})
	return results, work, nil
}

// orderAtoms greedily orders atoms so each shares a variable with the
// already-ordered prefix when possible.
func orderAtoms(body []Atom) []Atom {
	if len(body) <= 1 {
		return body
	}
	remaining := append([]Atom(nil), body...)
	out := []Atom{remaining[0]}
	remaining = remaining[1:]
	bound := map[string]bool{out[0].X: true, out[0].Y: true}
	for len(remaining) > 0 {
		picked := -1
		for i, a := range remaining {
			if bound[a.X] || bound[a.Y] {
				picked = i
				break
			}
		}
		if picked < 0 {
			picked = 0
		}
		a := remaining[picked]
		out = append(out, a)
		bound[a.X] = true
		bound[a.Y] = true
		remaining = append(remaining[:picked], remaining[picked+1:]...)
	}
	return out
}

// Contained reports whether every row of sub appears in super — the
// under-approximation guarantee checked by the E7 tests.
func Contained(sub, super [][]string) bool {
	set := map[string]bool{}
	for _, r := range super {
		set[strings.Join(r, "\x1f")] = true
	}
	for _, r := range sub {
		if !set[strings.Join(r, "\x1f")] {
			return false
		}
	}
	return true
}
