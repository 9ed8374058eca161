package fusion

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/dataset"
)

// TestGroupedClaimsMatchesGroupClaims pins the two ways into ClaimGroups
// to one layout: claims laid out entity by entity (entities sorted, then
// attributes sorted, each group's claims in input order) and handed to
// GroupedClaims are exactly what GroupClaims sorts the flat claim list
// into, and both fuse to Fuse's results.
func TestGroupedClaimsMatchesGroupClaims(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		claims := randomClaims(rand.New(rand.NewSource(seed)), 120)
		var entities, attrs []string
		for _, c := range claims {
			if !slices.Contains(entities, c.Entity) {
				entities = append(entities, c.Entity)
			}
			if !slices.Contains(attrs, c.Attribute) {
				attrs = append(attrs, c.Attribute)
			}
		}
		slices.Sort(entities)
		slices.Sort(attrs)
		var groups [][]Claim
		var starts []int32
		for _, e := range entities {
			starts = append(starts, int32(len(groups)))
			for _, a := range attrs {
				var cs []Claim
				for _, c := range claims {
					if c.Entity == e && c.Attribute == a {
						cs = append(cs, c)
					}
				}
				if len(cs) > 0 {
					groups = append(groups, cs)
				}
			}
		}
		grouped, sorted := GroupedClaims(groups, append(starts, int32(len(groups)))), GroupClaims(claims)
		if !reflect.DeepEqual(grouped, sorted) {
			t.Fatalf("seed %d: GroupedClaims and GroupClaims disagree", seed)
		}
		opts, _, _ := EstimateTrustWarmParallel(grouped, DefaultOptions(TruthFinder), nil, 1)
		resultsEqual(t, "grouped", Fuse(claims, DefaultOptions(TruthFinder)), grouped.Fuse(opts))
	}
}

// TestGroupOrderIsEntityThenAttribute pins the group order on entity ids
// that hold control bytes: plain string order on the entity, then on the
// attribute, which is also the order MergeResults and Fuse return.
func TestGroupOrderIsEntityThenAttribute(t *testing.T) {
	claims := []Claim{
		claim("A\x01", "name", "x", "s0"),
		claim("A", "price", "1", "s0"),
		claim("A\x1fb", "name", "y", "s1"),
		claim("A", "brand", "z", "s1"),
	}
	want := [][2]string{{"A", "brand"}, {"A", "price"}, {"A\x01", "name"}, {"A\x1fb", "name"}}
	res := Fuse(claims, DefaultOptions(MajorityVote))
	var got [][2]string
	for _, r := range res {
		got = append(got, [2]string{r.Entity, r.Attribute})
	}
	if !slices.Equal(got, want) {
		t.Fatalf("Fuse order %q, want %q", got, want)
	}
	if merged := MergeResults(res[2:], res[:2]); !slices.Equal(merged, res) {
		t.Fatalf("MergeResults order %v, want %v", merged, res)
	}
}

// TestClaimGroupsSupporters pins which sources back a fused value: a
// numeric claim within 1 % of it, a non-numeric claim equal to it (no
// normalisation), each source once, sorted; null claims and a null value
// back nothing.
func TestClaimGroupsSupporters(t *testing.T) {
	g := GroupClaims([]Claim{
		{Entity: "e", Attribute: "price", SourceID: "s3", Value: dataset.Float(100.5)},
		{Entity: "e", Attribute: "price", SourceID: "s1", Value: dataset.Int(100)},
		{Entity: "e", Attribute: "price", SourceID: "s2", Value: dataset.Float(102)},
		{Entity: "e", Attribute: "price", SourceID: "s0", Value: dataset.Null()},
		{Entity: "e", Attribute: "price", SourceID: "s1", Value: dataset.Float(99.5)},
		{Entity: "e", Attribute: "title", SourceID: "s2", Value: dataset.String("Acme")},
		{Entity: "e", Attribute: "title", SourceID: "s0", Value: dataset.String("acme")},
		{Entity: "e", Attribute: "title", SourceID: "s1", Value: dataset.String("Acme")},
	})
	cases := []struct {
		group int
		v     dataset.Value
		want  []string
	}{
		{0, dataset.Float(100), []string{"s1", "s3"}},
		{0, dataset.Float(102), []string{"s2"}},
		{0, dataset.Null(), nil},
		{1, dataset.String("Acme"), []string{"s1", "s2"}},
		{1, dataset.String("Globex"), nil},
	}
	for _, tc := range cases {
		if got := g.Supporters(tc.group, tc.v); !slices.Equal(got, tc.want) {
			t.Errorf("group %d, value %v: supporters %v, want %v", tc.group, tc.v, got, tc.want)
		}
	}
}

// entityStarts derives GroupedClaims' entity starts from groups laid out
// in group order: each entity's first group, then len(groups).
func entityStarts(groups [][]Claim) []int32 {
	var starts []int32
	for i, cs := range groups {
		if i == 0 || cs[0].Entity != groups[i-1][0].Entity {
			starts = append(starts, int32(i))
		}
	}
	return append(starts, int32(len(groups)))
}
