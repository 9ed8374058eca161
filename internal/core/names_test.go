package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/feedback"
	"repro/internal/sources"
)

// namesRow is one row of a CSV source in the naming script.
type namesRow struct {
	sku, name, brand string
	price            int
}

// namesScript drives a wrangler over CSV sources the test edits row by
// row, so each refresh moves a few clusters and leaves the rest as they
// were. Keyed rows share their SKU's name across sources; keyless rows
// have names of their own.
type namesScript struct {
	t    *testing.T
	rng  *rand.Rand
	p    *deltaProvider
	w    *Wrangler
	rows map[string][]namesRow
}

var namesWords = []string{"palma", "brond", "kettle", "lampal", "umbra", "dronib", "vorbel", "quisp", "mallap", "tindor"}

func (ns *namesScript) randomRow() namesRow {
	if ns.rng.Intn(3) == 0 {
		return namesRow{name: ns.word() + " " + ns.word(), brand: ns.word(), price: 10 + ns.rng.Intn(90)}
	}
	k := ns.rng.Intn(12)
	return namesRow{sku: fmt.Sprintf("SK-%02d", k), name: namesWords[k%len(namesWords)] + " " + namesWords[(k*7+3)%len(namesWords)],
		brand: namesWords[(k+5)%len(namesWords)], price: 10 + ns.rng.Intn(90)}
}

func (ns *namesScript) word() string { return namesWords[ns.rng.Intn(len(namesWords))] }

func (ns *namesScript) render(id string) {
	var b strings.Builder
	b.WriteString("sku,name,brand,price\n")
	for _, r := range ns.rows[id] {
		fmt.Fprintf(&b, "%s,%s,%s,%d\n", r.sku, r.name, r.brand, r.price)
	}
	ns.p.srcs[id] = csvSource(id, b.String())
}

func (ns *namesScript) refresh(id string) {
	ns.t.Helper()
	ns.render(id)
	if _, err := ns.w.RefreshSource(id); err != nil {
		ns.t.Fatal(err)
	}
}

// label adds a not-duplicate label and reacts to it.
func (ns *namesScript) label(a, b string) {
	ns.t.Helper()
	ns.w.AddFeedback(feedback.Item{Kind: feedback.NotDuplicatePair, PairKey: feedback.PairKey(a, b), Worker: "expert"})
	if _, err := ns.w.ReactToFeedback(); err != nil {
		ns.t.Fatal(err)
	}
}

// edit applies one random edit to one source and refreshes it. srcA's
// first two rows, the keyless twins, are never moved or dropped.
func (ns *namesScript) edit() {
	id := ns.p.order[ns.rng.Intn(len(ns.p.order))]
	rows := ns.rows[id]
	first := 0
	if id == "srcA" {
		first = 2
	}
	i := first + ns.rng.Intn(max(1, len(rows)-first))
	switch op := ns.rng.Intn(6); {
	case op == 0 && i < len(rows): // a value: every cluster holds
		rows[i].price = 10 + ns.rng.Intn(90)
	case op == 1 && i < len(rows): // a name: its cluster moves
		rows[i].name = ns.word() + " " + ns.word()
	case op == 2 && i < len(rows): // a key
		rows[i].sku = ns.randomRow().sku
	case op == 3 && len(rows) > first+1: // drop the last row
		rows = rows[:len(rows)-1]
	case op == 4 && len(rows) > first+1: // drop a middle row: later rows shift
		rows = slices.Delete(rows, i, i+1)
	default:
		rows = append(rows, ns.randomRow())
	}
	ns.rows[id] = rows
	ns.refresh(id)
}

// check requires the names the last tail left to be the ones
// nameClusters gives the clustering afresh: the same entity per row, and
// the same ids, rows and name bases entity by entity.
func (ns *namesScript) check(label string) {
	ns.t.Helper()
	w := ns.w
	got, fresh := w.tail.entities, *w.tail
	w.nameClusters(&fresh, false)
	want := fresh.entities
	if !slices.Equal(w.tail.entityIDs, fresh.entityIDs) {
		ns.t.Fatalf("%s: entity per row %q, named afresh %q", label, w.tail.entityIDs, fresh.entityIDs)
	}
	if !slices.Equal(got.ids, want.ids) || !reflect.DeepEqual(got.rows, want.rows) || !slices.Equal(got.base, want.base) {
		ns.t.Fatalf("%s: entities %q rows %v bases %v, named afresh %q rows %v bases %v",
			label, got.ids, got.rows, got.base, want.ids, want.rows, want.base)
	}
}

// newNamesScript sets a naming script up at the given shard count: four
// sources of ten random rows, srcA led by two keyless twins — one name,
// brand and source, so one base name — which a not-duplicate label keeps
// apart as the base name and its "~2".
func newNamesScript(t *testing.T, shards int) *namesScript {
	t.Helper()
	ns := &namesScript{t: t, rng: rand.New(rand.NewSource(int64(shards) + 11)),
		p: &deltaProvider{srcs: map[string]*sources.Source{}}, rows: map[string][]namesRow{}}
	for _, id := range []string{"srcA", "srcB", "srcC", "srcD"} {
		ns.p.order = append(ns.p.order, id)
		for range 10 {
			ns.rows[id] = append(ns.rows[id], ns.randomRow())
		}
	}
	ns.rows["srcA"] = append([]namesRow{namesTwin, namesTwin}, ns.rows["srcA"]...)
	for _, id := range ns.p.order {
		ns.render(id)
	}
	ns.w = New(ns.p, ProductConfig(), nil, nil)
	ns.w.IntegrationShards = shards
	if _, err := ns.w.Run(); err != nil {
		t.Fatal(err)
	}
	ns.check("run")
	ns.label("srcA#0", "srcA#1")
	ns.check("twins")
	ns.requireNames("twins", map[int]string{0: "", 1: "~2"})
	return ns
}

var namesTwin = namesRow{name: "twin kettle", brand: "acme", price: 10}

// requireNames requires the given union rows of srcA to be named the
// twins' base name with the given suffixes, with names carried over.
func (ns *namesScript) requireNames(label string, want map[int]string) {
	ns.t.Helper()
	base := digestName("srcA", namesTwin.name, namesTwin.brand)
	for row, suffix := range want {
		if got := ns.w.tail.entityIDs[row]; got != base+suffix {
			ns.t.Errorf("shards=%d %s: row %d is %q, want %q", ns.w.IntegrationShards, label, row, got, base+suffix)
		}
	}
}

// TestShardedNamesCarryEqualsFreshNaming pins carryNames to nameClusters:
// after every reaction of a randomized refresh script, at shards 0, 1 and
// 4, the names a tail carried over and the moved clusters' names equal the
// clustering named afresh; ordinary edits carry most names over. Scripted
// reactions then force the cases where a kept name must move with the
// clusters that moved — each moves what it meets and carries the rest: a
// keyless twin that joins a chain whose links all held (a third twin,
// cannot-linked to both), a chain link that moves from the middle (the
// third twin takes "~2") and from the front (it takes the base name), and
// a moved cluster whose key a kept entity holds (a row cannot-linked to
// that entity's only row).
func TestShardedNamesCarryEqualsFreshNaming(t *testing.T) {
	for _, shards := range []int{0, 1, 4} {
		ns := newNamesScript(t, shards)
		w := ns.w
		carried := 0
		for step := 0; step < 40; step++ {
			ns.edit()
			if w.tail.namesKept > 0 {
				carried++
			}
			ns.check(fmt.Sprintf("shards=%d step %d", shards, step))
		}
		if carried < 30 {
			t.Errorf("shards=%d: %d of 40 reactions carried names over", shards, carried)
		}

		third := len(ns.rows["srcA"])
		for _, twin := range []string{"srcA#0", "srcA#1"} {
			ns.label(fmt.Sprintf("srcA#%d", third), twin)
		}
		ns.rows["srcA"] = append(ns.rows["srcA"], namesTwin)
		for _, step := range []struct {
			label string
			edit  func()
			want  map[int]string
		}{
			{"third twin", func() {}, map[int]string{0: "", 1: "~2", third: "~3"}},
			{"middle twin moved", func() { ns.rows["srcA"][1].name = "lone kettle" }, map[int]string{0: "", third: "~2"}},
			{"first twin moved", func() { ns.rows["srcA"][0].name = "other kettle" }, map[int]string{third: ""}},
		} {
			step.edit()
			ns.refresh("srcA")
			if w.tail.namesKept == 0 {
				t.Errorf("shards=%d %s: no name carried over", shards, step.label)
			}
			ns.requireNames(step.label, step.want)
			ns.check(fmt.Sprintf("shards=%d %s", shards, step.label))
		}
	}

	for _, shards := range []int{0, 1, 4} {
		ns := newNamesScript(t, shards)
		w := ns.w
		e := slices.IndexFunc(w.tail.entities.ids, func(id string) bool {
			return strings.HasPrefix(id, "SK-") && len(w.tail.entities.rows[slices.Index(w.tail.entities.ids, id)]) == 1
		})
		if e < 0 {
			t.Fatalf("shards=%d: no keyed entity of one row in %q", shards, w.tail.entities.ids)
		}
		sku, only := w.tail.entities.ids[e], w.RowKey(w.tail.entities.rows[e][0])
		ns.label(fmt.Sprintf("srcD#%d", len(ns.rows["srcD"])), only)
		ns.check(fmt.Sprintf("shards=%d: label for a row to come", shards))
		ns.rows["srcD"] = append(ns.rows["srcD"], namesRow{sku: sku, name: "zzqx vorbel", brand: "quisp", price: 99})
		ns.refresh("srcD")
		if rows := w.tail.entities.rows[slices.Index(w.tail.entities.ids, sku)]; w.tail.namesKept == 0 || len(rows) != 2 {
			t.Errorf("shards=%d: %s holds rows %v (%d names carried), want 2 rows and the other names carried", shards, sku, rows, w.tail.namesKept)
		}
		ns.check(fmt.Sprintf("shards=%d: %s shared", shards, sku))
	}
}
