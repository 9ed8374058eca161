package core

import (
	"context"
	"fmt"
	"hash/fnv"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"

	wctx "repro/internal/context"
	"repro/internal/dataset"
	"repro/internal/er"
	"repro/internal/feedback"
	"repro/internal/fusion"
	"repro/internal/ontology"
	"repro/internal/sources"
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
		if got, _, _ := w.claimGroups(w.tail, &tailState{}, nil); !reflect.DeepEqual(got, fusion.GroupClaims(w.BuildClaims())) {
			t.Fatalf("%s: the clustering's groups differ from GroupClaims over the row-order claims", label)
		}
		if !slices.IsSorted(w.tail.entities.ids) || len(w.tail.entities.ids) != len(slices.Compact(slices.Clone(w.tail.entities.ids))) {
			t.Fatalf("%s: entity ids not strictly sorted", label)
		}
		for e, rows := range w.tail.entities.rows {
			if !slices.IsSorted(rows) {
				t.Fatalf("%s: entity %q rows %v not in row order", label, w.tail.entities.ids[e], rows)
			}
		}
	}
	check("run")

	// Split the largest cluster into two, alternating its rows: both halves
	// keep the cluster's key values, so both take its name.
	byCluster := w.tail.clusters.Clusters()
	big := 0
	for cid, rows := range byCluster {
		if len(rows) > len(byCluster[big]) {
			big = cid
		}
	}
	if len(byCluster[big]) < 4 {
		t.Fatalf("largest cluster has %d rows; want at least 4", len(byCluster[big]))
	}
	split := &er.Clustering{Assign: slices.Clone(w.tail.clusters.Assign), Num: w.tail.clusters.Num + 1}
	for k, row := range byCluster[big] {
		if k%2 == 1 {
			split.Assign[row] = w.tail.clusters.Num
		}
	}
	w.tail.clusters = split
	w.nameEntities(w.tail)
	if n := len(w.tail.entities.ids); n != split.Num-1 {
		t.Fatalf("split clustering: %d entities, want %d (the halves share a name)", n, split.Num-1)
	}
	check("split")
}

// nameUnion is a union of (sku, name, brand) rows — "" for a null cell —
// from the given row sources, clustered as assign says.
func nameUnion(rows [][3]string, srcs []string, assign []int) *Wrangler {
	schema := dataset.Schema{{Name: "sku", Kind: dataset.KindString}, {Name: "name", Kind: dataset.KindString},
		{Name: "brand", Kind: dataset.KindString}}
	union := dataset.NewTable(schema)
	for _, r := range rows {
		rec := make(dataset.Record, len(r))
		for i, s := range r {
			rec[i] = dataset.String(s)
			if s == "" {
				rec[i] = dataset.Null()
			}
		}
		union.Append(rec)
	}
	return &Wrangler{Config: Config{KeyColumn: "sku", NameColumn: "name", SecondaryColumn: "brand"},
		tail: &tailState{union: union, unionSources: srcs, clusters: &er.Clustering{Assign: assign, Num: slices.Max(assign) + 1}}}
}

// digestName is the keyless name recipe written out: the source, then
// FNV-32a over the name and secondary cells' Value.Key, each followed by
// a zero byte, in eight hex digits.
func digestName(src, name, brand string) string {
	h := fnv.New32a()
	for _, s := range []string{name, brand} {
		v := dataset.String(s)
		if s == "" {
			v = dataset.Null()
		}
		h.Write([]byte(v.Key()))
		h.Write([]byte{0})
	}
	return fmt.Sprintf("%s~%08x", src, h.Sum32())
}

// TestNameEntities pins the entity id rule: a cluster takes its most
// frequent non-null key value, the smallest of equally frequent ones, and
// clusters that land on one key are one entity with their rows in row
// order. A keyless cluster is named by its smallest row's source and a
// digest of that row's name and secondary cells, whatever its cluster
// number.
func TestNameEntities(t *testing.T) {
	rows := [][3]string{{"b", "x", "y"}, {"a", "x", "y"}, {"", "lamp", "acme"}, {"b", "x", "y"},
		{"a", "x", "y"}, {"c", "x", "y"}, {"", "kettle", ""}, {"a", "x", "y"}, {"", "lamp", "umbra"}}
	srcs := []string{"s1", "s1", "s1", "s2", "s2", "s2", "s3", "s3", "s3"}
	w := nameUnion(rows, srcs, []int{0, 3, 1, 0, 0, 0, 2, 0, 1})
	w.nameEntities(w.tail)
	lamp, kettle := digestName("s1", "lamp", "acme"), digestName("s3", "kettle", "")
	if want := []string{"a", "a", lamp, "a", "a", "a", kettle, "a", lamp}; !slices.Equal(w.tail.entityIDs, want) {
		t.Fatalf("entity ids %q, want %q", w.tail.entityIDs, want)
	}
	wantIDs, wantRows := []string{"a", lamp, kettle}, [][]int{{0, 1, 3, 4, 5, 7}, {2, 8}, {6}} // s1 sorts before s3
	if !slices.Equal(w.tail.entities.ids, wantIDs) || !reflect.DeepEqual(w.tail.entities.rows, wantRows) {
		t.Fatalf("entities %q rows %v, want %q rows %v", w.tail.entities.ids, w.tail.entities.rows, wantIDs, wantRows)
	}

	// The same union clustered under other numbers names the same
	// entities.
	renumbered := nameUnion(rows, srcs, []int{2, 1, 3, 2, 2, 2, 0, 2, 3})
	renumbered.nameEntities(renumbered.tail)
	if !slices.Equal(renumbered.tail.entityIDs, w.tail.entityIDs) {
		t.Fatalf("renumbered clusters are named %q, want %q", renumbered.tail.entityIDs, w.tail.entityIDs)
	}
}

// TestKeylessNamesNeverMerge pins the tie-break: two keyless clusters
// with an equal source and digest stay two entities — the one with the
// smaller smallest row takes the base name, the other the first free
// suffix — and a keyless cluster whose base name some cluster holds as
// its key takes a suffix rather than joining that entity.
func TestKeylessNamesNeverMerge(t *testing.T) {
	base := digestName("s1", "lamp", "acme")
	w := nameUnion([][3]string{{"", "lamp", "acme"}, {"", "kettle", "acme"}, {"", "lamp", "acme"}, {base, "x", "y"},
		{base + "~2", "x", "y"}, {"", "lamp", "acme"}},
		[]string{"s1", "s1", "s1", "s2", "s2", "s1"}, []int{0, 1, 2, 3, 4, 5})
	w.nameEntities(w.tail)
	if want := []string{base + "~3", digestName("s1", "kettle", "acme"), base + "~4", base, base + "~2", base + "~5"}; !slices.Equal(w.tail.entityIDs, want) {
		t.Fatalf("entity ids %q, want %q", w.tail.entityIDs, want)
	}
	if len(w.tail.entities.ids) != 6 {
		t.Fatalf("%d entities %q, want 6: a keyless cluster merged", len(w.tail.entities.ids), w.tail.entities.ids)
	}
	// Clusters with a key still merge on it.
	w.tail.union.Row(4)[0] = dataset.String(base)
	w.nameEntities(w.tail)
	if got := w.tail.entities.rows[slices.Index(w.tail.entities.ids, base)]; !slices.Equal(got, []int{3, 4}) {
		t.Fatalf("key %q holds rows %v, want [3 4]", base, got)
	}
}

// TestKeylessNamesSurviveRenumbering refreshes the first source of a
// dirty universe to empty, which renumbers every later cluster. Every
// keyless cluster whose rows kept their keys and content keeps its name;
// under "entity-<cluster>" names they would all have been renamed.
func TestKeylessNamesSurviveRenumbering(t *testing.T) {
	for _, shards := range []int{0, 4} {
		u := &hollowUniverse{Universe: buildUniverse(7, 12, false), hollow: map[string]bool{}}
		w := New(u, ProductConfig(), nil, wctx.NewDataContext().WithTaxonomy(ontology.ProductTaxonomy()))
		w.IntegrationShards = shards
		if _, err := w.Run(); err != nil {
			t.Fatal(err)
		}
		type cluster struct {
			id, content string
			number      int
		}
		keyless := func() map[string]cluster { // by the cluster's row keys
			out := map[string]cluster{}
			kc := w.tail.union.Schema().Index(w.Config.KeyColumn)
			for cid, rows := range w.tail.clusters.Clusters() {
				if len(rows) == 0 || slices.ContainsFunc(rows, func(r int) bool { return !w.tail.union.Row(r)[kc].IsNull() }) {
					continue
				}
				var keys, content []string
				for _, r := range rows {
					keys = append(keys, w.RowKey(r))
					content = append(content, fmt.Sprint(w.tail.union.Row(r)))
				}
				out[strings.Join(keys, " ")] = cluster{id: w.tail.entityIDs[rows[0]], content: strings.Join(content, "\n"), number: cid}
			}
			return out
		}
		before := keyless()
		u.empty = true
		if _, err := w.RefreshSource(w.SelectedSources()[0]); err != nil {
			t.Fatal(err)
		}
		kept, renumbered := 0, 0
		for keys, c := range keyless() {
			old, ok := before[keys]
			if !ok || old.content != c.content {
				continue
			}
			if kept++; old.number != c.number {
				renumbered++
			}
			if old.id != c.id {
				t.Errorf("shards=%d: keyless cluster %s was %q, now %q", shards, keys, old.id, c.id)
			}
		}
		if renumbered == 0 {
			t.Fatalf("shards=%d: the refresh renumbered none of the %d kept keyless clusters", shards, kept)
		}
	}
}

// TestSupportersMatchUnionScan pins supporters read from the claim groups
// to the union scan they replace: for every fused result, the sources of
// the entity's rows whose value agrees with the fused one — after a run,
// and after the groups are laid out and prepared afresh from the
// clustering, as a restore lays them out (restoreGroups).
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
	w.tail.groups, w.tail.slabs = nil, 0
	if err := w.restoreGroups(w.tail, 0, w.tail.rowEntities); err != nil || w.tail.groups == nil {
		t.Fatalf("regrouping: groups %v, err %v", w.tail.groups, err)
	}
	check("regrouped")
}

// scanSupporters is the union scan: per result, the sources of the
// entity's rows whose value in the result's column is within 1 % of the
// fused value (equal, for non-numbers), sorted and without repeats.
func scanSupporters(w *Wrangler) [][]string {
	out := make([][]string, len(w.tail.results))
	for i, r := range w.tail.results {
		c := w.tail.union.Schema().Index(r.Attribute)
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
		for row, e := range w.tail.entityIDs {
			v := w.tail.union.Row(row)[c]
			if e != r.Entity || v.IsNull() || !v.ApproxEqual(r.Value, eps) || seen[w.tail.unionSources[row]] {
				continue
			}
			seen[w.tail.unionSources[row]] = true
			out[i] = append(out[i], w.tail.unionSources[row])
		}
		sort.Strings(out[i])
	}
	return out
}

// TestValueFeedbackKeepsItsKeylessTarget gives value feedback on a keyless
// entity, then refreshes the first source to empty, which renumbers every
// later cluster. The item's entity id must still name the cluster it was
// given on — the same rows — and the blamed source must still claim its
// price there. Under "entity-<cluster>" names the id passed to whichever
// cluster inherited the number.
func TestValueFeedbackKeepsItsKeylessTarget(t *testing.T) {
	for _, shards := range []int{0, 4} {
		u := &hollowUniverse{Universe: buildUniverse(7, 12, false), hollow: map[string]bool{}}
		w := New(u, ProductConfig(), nil, wctx.NewDataContext().WithTaxonomy(ontology.ProductTaxonomy()))
		w.IntegrationShards = shards
		if _, err := w.Run(); err != nil {
			t.Fatal(err)
		}
		first := w.SelectedSources()[0]
		rowsOf := func(entity string) []string {
			var keys []string
			for i := 0; i < w.Union().Len(); i++ {
				if w.EntityOf(i) == entity {
					keys = append(keys, w.RowKey(i))
				}
			}
			return keys
		}
		kc := w.Union().Schema().Index(w.Config.KeyColumn)
		keyed := map[string]bool{}
		for i := 0; i < w.Union().Len(); i++ {
			if !w.Union().Row(i)[kc].IsNull() || w.UnionSourceOf(i) == first {
				keyed[w.EntityOf(i)] = true // or partly the emptied source's
			}
		}
		var item feedback.Item
		var target []string
		for i := 0; i < w.Union().Len() && target == nil; i++ {
			e, src := w.EntityOf(i), w.UnionSourceOf(i)
			if keyed[e] {
				continue
			}
			if sup := w.ClaimSupporters(e, "price"); slices.Contains(sup, src) {
				item = feedback.Item{Kind: feedback.ValueIncorrect, SourceID: src, Entity: e, Attribute: "price",
					Worker: "expert", Cost: 0.5}
				target = rowsOf(e)
			}
		}
		if target == nil {
			t.Fatalf("shards=%d: no keyless entity outside %s has a supported price", shards, first)
		}
		w.AddFeedback(item)
		if _, err := w.ReactToFeedback(); err != nil {
			t.Fatal(err)
		}
		u.empty = true
		if _, err := w.RefreshSource(first); err != nil {
			t.Fatal(err)
		}
		if got := rowsOf(item.Entity); !slices.Equal(got, target) {
			t.Fatalf("shards=%d: after the renumbering refresh %s names rows %v, the feedback was given on %v",
				shards, item.Entity, got, target)
		}
		if sup := w.ClaimSupporters(item.Entity, item.Attribute); !slices.Contains(sup, item.SourceID) {
			t.Fatalf("shards=%d: %s no longer supports %s/%s (supporters %v)", shards, item.SourceID, item.Entity, item.Attribute, sup)
		}
	}
}

// TestKeptEntitiesSkipsSharedRows pins keptEntities, which compares by
// value only the rows whose record the last layout's union does not hold
// at the same source position (unionDelta's same map), to the full check
// it replaced — every row's source and record against the last layout's —
// over a random refresh script at shards 0, 1 and 4: refreshes of one to
// three sources under world churn, some of which drop a source's first
// records or list them again. Each reaction's kept map is recomputed after
// it, both ways, from the tail state it started from.
func TestKeptEntitiesSkipsSharedRows(t *testing.T) {
	ctx := context.Background()
	for _, shards := range []int{0, 1, 4} {
		t.Run(fmt.Sprintf("shards%d", shards), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(45 + shards)))
			u := buildUniverse(5, 6, false)
			w := New(u, ProductConfig(), nil, nil)
			w.IntegrationShards = shards
			if _, err := w.Run(); err != nil {
				t.Fatal(err)
			}
			full := map[string][]sources.EmittedRecord{}
			kept, shared, compared := 0, 0, 0
			for step := range 12 {
				ids := w.SelectedSources()
				rng.Shuffle(len(ids), func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
				ids = ids[:1+rng.Intn(3)]
				if s := u.Source(ids[0]); rng.Intn(3) == 0 {
					if recs, ok := full[s.ID]; ok {
						s.Records = recs
						delete(full, s.ID)
					} else if len(s.Records) > 8 {
						full[s.ID], s.Records = s.Records, s.Records[1+rng.Intn(6):]
					}
				}
				u.World.Evolve(0.3 * rng.Float64())
				prev := w.tail
				if _, err := w.RefreshSourcesContext(ctx, ids); err != nil {
					t.Fatalf("step %d: %v", step, err)
				}
				cur := w.tail
				_, same := unionDelta(cur, prev)
				schema, _, cols := w.claimedColumns(cur.union)
				got, want := keptEntities(cur, prev, schema, cols, same), fullKeptCheck(cur, prev, schema, cols)
				if !slices.Equal(got, want) {
					t.Fatalf("step %d: kept map %v, the full check %v", step, got, want)
				}
				for e, pe := range got {
					if pe < 0 {
						continue
					}
					kept++
					for k, r := range cur.entities.rows[e] {
						if int(same[r]) == prev.entities.rows[pe][k] {
							shared++
						} else {
							compared++
						}
					}
				}
			}
			if kept == 0 || shared == 0 || compared == 0 {
				t.Fatalf("the script keeps %d entities, %d rows of them shared and %d compared by value", kept, shared, compared)
			}
		})
	}
}

// fullKeptCheck is keptEntities with every row of a candidate entity
// checked by source and record against prev's.
func fullKeptCheck(t, prev *tailState, schema dataset.Schema, cols []int) []int {
	kept := make([]int, len(t.entities.ids))
	for e := range kept {
		kept[e] = -1
	}
	groups, from := prev.groups, prev.entities
	if groups == nil || groups.Len() != len(from.ids)*len(cols) || groups.Len() == 0 {
		return kept
	}
	for c, ci := range cols {
		if groups.Group(c)[0].Attribute != schema[ci].Name {
			return kept
		}
	}
	for e, id := range t.entities.ids {
		pe, ok := slices.BinarySearch(from.ids, id)
		if !ok || len(t.entities.rows[e]) != len(from.rows[pe]) {
			continue
		}
		claims, held := groups.Group(pe*len(cols)), true
		for k, r := range t.entities.rows[e] {
			if t.unionSources[r] != claims[k].SourceID || !t.union.Row(r).Same(prev.union.Row(from.rows[pe][k])) {
				held = false
			}
		}
		if held {
			kept[e] = pe
		}
	}
	return kept
}
