package core

import (
	"reflect"
	"slices"
	"sort"
	"testing"

	"repro/internal/dataset"
	"repro/internal/er"
	"repro/internal/fusion"
)

// TestClaimGroupsFollowTheClustering pins the tail's claim layout to the
// row-order oracle: the groups laid out entity by entity off the
// clustering equal fusion.GroupClaims over the union's claims in row
// order. It holds on a run's clustering and on one where two clusters
// share an entity id with their rows interleaved, which the layout merges
// into one entity whose rows stay in row order.
func TestClaimGroupsFollowTheClustering(t *testing.T) {
	w := newShardedWrangler(3, 6, 2)
	if _, err := w.Run(); err != nil {
		t.Fatal(err)
	}
	check := func(label string) {
		t.Helper()
		if got, want := w.claimGroups(), fusion.GroupClaims(w.BuildClaims()); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: the clustering's groups differ from GroupClaims over the row-order claims", label)
		}
		if !slices.IsSorted(w.entities.ids) || len(w.entities.ids) != len(slices.Compact(slices.Clone(w.entities.ids))) {
			t.Fatalf("%s: entity ids not strictly sorted", label)
		}
		for e, rows := range w.entities.rows {
			if !slices.IsSorted(rows) {
				t.Fatalf("%s: entity %q rows %v not in row order", label, w.entities.ids[e], rows)
			}
		}
	}
	check("run")

	// Split the largest cluster into two, alternating its rows: both halves
	// keep the cluster's key values, so both take its name.
	byCluster := w.clusters.Clusters()
	big := 0
	for cid, rows := range byCluster {
		if len(rows) > len(byCluster[big]) {
			big = cid
		}
	}
	if len(byCluster[big]) < 4 {
		t.Fatalf("largest cluster has %d rows; want at least 4", len(byCluster[big]))
	}
	split := &er.Clustering{Assign: slices.Clone(w.clusters.Assign), Num: w.clusters.Num + 1}
	for k, row := range byCluster[big] {
		if k%2 == 1 {
			split.Assign[row] = w.clusters.Num
		}
	}
	w.clusters = split
	w.nameEntities()
	if n := len(w.entities.ids); n != split.Num-1 {
		t.Fatalf("split clustering: %d entities, want %d (the halves share a name)", n, split.Num-1)
	}
	check("split")
}

// TestNameEntities pins the entity id rule: a cluster takes its most
// frequent non-null key value, the smallest of equally frequent ones, and
// "entity-<cluster>" when it has none; clusters that land on one id are
// one entity with their rows in row order.
func TestNameEntities(t *testing.T) {
	schema := dataset.Schema{{Name: "sku", Kind: dataset.KindString}}
	union := dataset.NewTable(schema)
	for _, k := range []string{"b", "a", "", "b", "a", "c", "", "a"} {
		v := dataset.String(k)
		if k == "" {
			v = dataset.Null()
		}
		union.Append(dataset.Record{v})
	}
	w := &Wrangler{Config: Config{KeyColumn: "sku"}, union: union,
		clusters: &er.Clustering{Assign: []int{0, 3, 1, 0, 0, 0, 2, 0}, Num: 4}}
	w.nameEntities()
	if want := []string{"a", "a", "entity-0001", "a", "a", "a", "entity-0002", "a"}; !slices.Equal(w.entityIDs, want) {
		t.Fatalf("entity ids %q, want %q", w.entityIDs, want)
	}
	wantIDs, wantRows := []string{"a", "entity-0001", "entity-0002"}, [][]int{{0, 1, 3, 4, 5, 7}, {2}, {6}}
	if !slices.Equal(w.entities.ids, wantIDs) || !reflect.DeepEqual(w.entities.rows, wantRows) {
		t.Fatalf("entities %q rows %v, want %q rows %v", w.entities.ids, w.entities.rows, wantIDs, wantRows)
	}
}

// TestSupportersMatchUnionScan pins supporters read from the claim groups
// to the union scan they replace: for every fused result, the sources of
// the entity's rows whose value agrees with the fused one — after a run,
// and after a restore regroups the restored clustering on first use.
func TestSupportersMatchUnionScan(t *testing.T) {
	w := newShardedWrangler(5, 6, 2)
	if _, err := w.Run(); err != nil {
		t.Fatal(err)
	}
	check := func(label string) {
		t.Helper()
		want := scanSupporters(w)
		lines := 0
		for i, r := range w.Results() {
			got := w.Supporters(i)
			if !slices.Equal(got, want[i]) {
				t.Fatalf("%s: %s/%s supporters %v, the union scan %v", label, r.Entity, r.Attribute, got, want[i])
			}
			if by := w.ClaimSupporters(r.Entity, r.Attribute); !slices.Equal(by, got) {
				t.Fatalf("%s: ClaimSupporters(%s, %s) = %v, Supporters = %v", label, r.Entity, r.Attribute, by, got)
			}
			if len(got) > 0 {
				lines++
			}
		}
		if lines == 0 {
			t.Fatalf("%s: no result has supporters", label)
		}
	}
	check("run")
	w.groups = nil // as a restore leaves it
	check("regrouped")
}

// scanSupporters is the union scan: per result, the sources of the
// entity's rows whose value in the result's column is within 1 % of the
// fused value (equal, for non-numbers), sorted and without repeats.
func scanSupporters(w *Wrangler) [][]string {
	out := make([][]string, len(w.results))
	for i, r := range w.results {
		c := w.union.Schema().Index(r.Attribute)
		if r.Value.IsNull() || c < 0 {
			continue
		}
		eps := 0.0
		if r.Value.IsNumeric() {
			eps = 0.01 * r.Value.FloatVal()
			if eps < 0 {
				eps = -eps
			}
		}
		seen := map[string]bool{}
		for row, e := range w.entityIDs {
			v := w.union.Row(row)[c]
			if e != r.Entity || v.IsNull() || !v.ApproxEqual(r.Value, eps) || seen[w.unionSources[row]] {
				continue
			}
			seen[w.unionSources[row]] = true
			out[i] = append(out[i], w.unionSources[row])
		}
		sort.Strings(out[i])
	}
	return out
}

// TestPageRoutes pins the restored routing: each entity goes to the first
// page that holds it, and an entity no page holds to -1.
func TestPageRoutes(t *testing.T) {
	pages := []*shardPage{
		{entities: []string{"a", "c"}, rows: make([]dataset.Record, 2)},
		{entities: []string{"b", "c", "z"}, rows: make([]dataset.Record, 3)},
	}
	if got, want := pageRoutes([]string{"a", "b", "c", "d"}, pages), []int32{0, 1, 0, -1}; !slices.Equal(got, want) {
		t.Fatalf("routes %v, want %v", got, want)
	}
}
