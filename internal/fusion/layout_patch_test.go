package fusion

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/dataset"
)

// patchScript is a claim set edited step by step the way the integration
// tail edits its claim groups: each group is one slice, handed on whole
// from one ClaimGroups to the next until an edit replaces it. Sources come
// in families that share no group, so the claims split into several
// trust-coupled components, and bridge groups join families.
type patchScript struct {
	rng    *rand.Rand
	groups map[string][]Claim // "entity|attribute" -> the group's claims
	fresh  int                // sources made so far by appear
}

const patchFamilies = 3

func (ps *patchScript) source(family int) string {
	return fmt.Sprintf("f%d-s%d", family, ps.rng.Intn(4))
}

// claims makes a group's claims from the given families: values from a
// small set so groups are contested or not, nulls now and then; null
// says every claim is null.
func (ps *patchScript) claims(key string, null bool, families ...int) []Claim {
	entity, attr, _ := strings.Cut(key, "|")
	n := 1 + ps.rng.Intn(4)
	out := make([]Claim, n)
	for i := range out {
		v := dataset.Float(float64(100 + 10*ps.rng.Intn(2)))
		if null || ps.rng.Intn(8) == 0 {
			v = dataset.Null()
		}
		out[i] = Claim{Entity: entity, Attribute: attr, Value: v, SourceID: ps.source(families[i%len(families)])}
	}
	return out
}

// uniform makes a group whose non-null claims all say one value, or, when
// split, two values: a flip between uncontested and contested.
func (ps *patchScript) uniform(key string, split bool) []Claim {
	cs := ps.claims(key, false, ps.rng.Intn(patchFamilies))
	for i := range cs {
		cs[i].Value = dataset.Float(100)
		if split && i%2 == 1 {
			cs[i].Value = dataset.Float(300)
		}
	}
	return cs
}

func (ps *patchScript) randomKey() string {
	return fmt.Sprintf("e%02d|%s", ps.rng.Intn(30), []string{"brand", "name", "price"}[ps.rng.Intn(3)])
}

func (ps *patchScript) existingKey() (string, bool) {
	if len(ps.groups) == 0 {
		return "", false
	}
	keys := slices.Sorted(func(yield func(string) bool) {
		for k := range ps.groups {
			if !yield(k) {
				return
			}
		}
	})
	return keys[ps.rng.Intn(len(keys))], true
}

// edit applies one random edit.
func (ps *patchScript) edit() {
	key, ok := ps.existingKey()
	switch op := ps.rng.Intn(10); {
	case op == 0 && ok: // drop a group: a component may split
		delete(ps.groups, key)
	case op == 1: // add a group of one family
		k := ps.randomKey()
		ps.groups[k] = ps.claims(k, false, ps.rng.Intn(patchFamilies))
	case op == 2: // a bridge: join two families' components
		k := ps.randomKey()
		a := ps.rng.Intn(patchFamilies)
		ps.groups[k] = ps.claims(k, false, a, (a+1)%patchFamilies)
	case op == 3: // a group with only null claims
		k := ps.randomKey()
		ps.groups[k] = ps.claims(k, true, ps.rng.Intn(patchFamilies))
	case op == 4 && ok: // the same claims in a new slice: laid out afresh
		ps.groups[key] = slices.Clone(ps.groups[key])
	case op == 5 && ok: // flip between contested and not
		ps.groups[key] = ps.uniform(key, ps.rng.Intn(2) == 0)
	case op == 6: // a source appears, in a group of its own or beside a family
		ps.fresh++
		k := ps.randomKey()
		cs := ps.claims(k, false, ps.rng.Intn(patchFamilies))
		cs[0].SourceID = fmt.Sprintf("new-%d", ps.fresh)
		ps.groups[k] = cs
	case op == 7 && ok: // a source vanishes from every group
		gone := ps.groups[key][0].SourceID
		for k, cs := range ps.groups {
			if !slices.ContainsFunc(cs, func(c Claim) bool { return c.SourceID == gone }) {
				continue
			}
			if kept := slices.DeleteFunc(slices.Clone(cs), func(c Claim) bool { return c.SourceID == gone }); len(kept) > 0 {
				ps.groups[k] = kept
			} else {
				delete(ps.groups, k)
			}
		}
	case op == 8: // nothing moves: every group is handed on
	default: // replace a group's claims
		k := ps.randomKey()
		ps.groups[k] = ps.claims(k, false, ps.rng.Intn(patchFamilies))
	}
}

// grouped lays the groups out in group order, each as its own slice —
// what the tail hands GroupedClaims — or, with clone, as fresh copies.
func (ps *patchScript) grouped(clone bool) *ClaimGroups {
	keys := make([]string, 0, len(ps.groups))
	for k := range ps.groups {
		keys = append(keys, k)
	}
	slices.SortFunc(keys, func(a, b string) int {
		ea, aa, _ := strings.Cut(a, "|")
		eb, ab, _ := strings.Cut(b, "|")
		return compareKey(ea, aa, eb, ab)
	})
	groups := make([][]Claim, len(keys))
	for i, k := range keys {
		groups[i] = ps.groups[k]
		if clone {
			groups[i] = slices.Clone(groups[i])
		}
	}
	return GroupedClaims(groups, entityStarts(groups))
}

// buildTrustLayout lays the fixpoint out afresh over prepared groups:
// patchLayout with no layout to start from.
func buildTrustLayout(claims [][]Claim, groups []*groupPrep) *trustLayout {
	l, _ := patchLayout(&ClaimGroups{claims: claims, prep: groups}, nil, nil)
	return l
}

// requireSameLayout requires a patched layout to be the one
// buildTrustLayout makes: the same components in the same order, the same
// member groups, sorted sources, claims, offsets, contested groups, counts
// and largest group, the same component per group, and a dictionary whose
// live numbers name exactly the sources present.
func requireSameLayout(t *testing.T, label string, got, want *trustLayout) {
	t.Helper()
	if len(got.comps) != len(want.comps) {
		t.Fatalf("%s: %d components, want %d", label, len(got.comps), len(want.comps))
	}
	for k, c := range got.comps {
		w := want.comps[k]
		switch {
		case c.key != w.key || !slices.Equal(c.sources, w.sources):
			t.Fatalf("%s: component %d: %s %v, want %s %v", label, k, c.key, c.sources, w.key, w.sources)
		case !slices.Equal(c.groups, w.groups):
			t.Fatalf("%s: component %s: other member groups", label, c.key)
		case !slices.Equal(c.src, w.src) || !slices.Equal(c.off, w.off):
			t.Fatalf("%s: component %s: src %v off %v, want %v %v", label, c.key, c.src, c.off, w.src, w.off)
		case !slices.Equal(c.contested, w.contested) || !slices.Equal(c.counts, w.counts) || c.maxClaims != w.maxClaims:
			t.Fatalf("%s: component %s: contested %v counts %v max %d, want %v %v %d", label, c.key,
				c.contested, c.counts, c.maxClaims, w.contested, w.counts, w.maxClaims)
		}
		for i, id := range c.global {
			if got.sources[id] != c.sources[i] {
				t.Fatalf("%s: component %s: local source %d numbers %q, not %q", label, c.key, i, got.sources[id], c.sources[i])
			}
		}
	}
	if !slices.Equal(got.at, want.at) {
		t.Fatalf("%s: per-group components %v, want %v", label, got.at, want.at)
	}
	present := func(l *trustLayout) []string {
		var out []string
		for id, s := range l.sources {
			if l.claims[id] > 0 {
				out = append(out, s)
			}
		}
		slices.Sort(out)
		return out
	}
	if p, w := present(got), present(want); !slices.Equal(p, w) || got.live != len(p) {
		t.Fatalf("%s: sources present %v (live %d), want %v", label, p, got.live, w)
	}
}

// layoutCopy is a deep copy of what a layout holds, to check that a patch
// left the layout it was patched from as it was.
func layoutCopy(l *trustLayout) *trustLayout {
	out := &trustLayout{sources: slices.Clone(l.sources), claims: slices.Clone(l.claims), live: l.live, at: slices.Clone(l.at)}
	for _, c := range l.comps {
		cc := *c
		cc.groups, cc.sources, cc.global = slices.Clone(c.groups), slices.Clone(c.sources), slices.Clone(c.global)
		cc.src, cc.off, cc.contested, cc.counts = slices.Clone(c.src), slices.Clone(c.off), slices.Clone(c.contested), slices.Clone(c.counts)
		out.comps = append(out.comps, &cc)
	}
	return out
}

// TestTrustLayoutPatchEqualsFreshBuild pins patchLayout to
// buildTrustLayout over random edit scripts: groups added and dropped,
// sources appearing and vanishing, bridge groups joining components and
// dropped ones splitting them, null-only groups, and groups flipping
// between contested and not. After every edit the layout laid out from
// the previous one equals a fresh build, the previous layout is left as
// it was, and the estimation over it equals, bit for bit and iteration
// for iteration, one over a fresh grouping of the same claims — and
// counts the same groups to re-vote, from the counts it carried. Patched
// layouts lay out only the groups not handed on whole, and the
// dictionary, which keeps retired numbers, is renumbered afresh before it
// holds more than twice the sources present.
func TestTrustLayoutPatchEqualsFreshBuild(t *testing.T) {
	patched, renumbered, joined, split := 0, 0, 0, 0
	for seed := int64(1); seed <= 40; seed++ {
		ps := &patchScript{rng: rand.New(rand.NewSource(seed)), groups: map[string][]Claim{}}
		for i := 0; i < 25; i++ {
			ps.edit()
		}
		var prev *ClaimGroups
		for step := 0; step < 40; step++ {
			label := fmt.Sprintf("seed %d step %d", seed, step)
			if step > 0 {
				for n := 1 + ps.rng.Intn(3); n > 0; n-- {
					ps.edit()
				}
			}
			g := ps.grouped(false)
			if g.Len() == 0 {
				prev = nil
				continue
			}
			opts := fuzzOptions(TruthFinder, seed*100+int64(step))
			var before *trustLayout
			if prev != nil {
				before = layoutCopy(prev.layout)
			}
			got, _, st := EstimateTrustWarmParallel(g, cloneOpts(opts), prev, 1)
			if prev != nil {
				requireSameLayout(t, label+": the layout patched from", prev.layout, before)
				if !slices.Equal(prev.layout.sources, before.sources) || !slices.Equal(prev.layout.claims, before.claims) {
					t.Fatalf("%s: the patch edited the dictionary it was patched from", label)
				}
				_, numbers, _ := prev.LayoutSize()
				switch _, n, _ := g.LayoutSize(); {
				case st.GroupsLaidOut < g.Len():
					patched++
					if st.Components < len(prev.layout.comps) {
						joined++
					} else if st.Components > len(prev.layout.comps) {
						split++
					}
				case n < numbers:
					renumbered++
				}
			}
			if _, numbers, sources := g.LayoutSize(); numbers > 2*sources {
				t.Fatalf("%s: the dictionary holds %d numbers for %d sources", label, numbers, sources)
			}
			requireSameLayout(t, label, g.layout, buildTrustLayout(g.claims, g.prep))

			fresh := ps.grouped(true)
			want, _, fst := EstimateTrustWarmParallel(fresh, cloneOpts(opts), nil, 1)
			if !slices.Equal(st.Iterations, fst.Iterations) || st.Contested != fst.Contested || st.Components != fst.Components ||
				st.FuseRevoted != fst.FuseRevoted {
				t.Fatalf("%s: patched %+v, fresh %+v", label, st, fst)
			}
			requireBitEqualTrust(t, label, want.Trust, got.Trust)
			checkOracleTrust(t, label, g, opts, got, st)
			prev = g
		}
	}
	if patched < 1000 || renumbered == 0 || joined == 0 || split == 0 {
		t.Errorf("%d estimations patched their layout (%d joining components, %d splitting them), %d renumbered the dictionary: the scripts miss a path",
			patched, joined, split, renumbered)
	}
}
