package quality

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/dataset"
)

// fdTable builds rows where sku -> brand holds except for noise typos,
// and price is random (no dependency).
func fdTable(seed int64, entities, copies int, noise float64) *dataset.Table {
	rng := rand.New(rand.NewSource(seed))
	t := dataset.NewTable(dataset.MustSchema(
		dataset.Field{Name: "sku", Kind: dataset.KindString},
		dataset.Field{Name: "brand", Kind: dataset.KindString},
		dataset.Field{Name: "price", Kind: dataset.KindFloat},
	))
	brands := []string{"Anker", "Belkin", "Logi", "Voltix"}
	for e := 0; e < entities; e++ {
		sku := fmt.Sprintf("SKU-%03d", e)
		brand := brands[e%len(brands)]
		for c := 0; c < copies; c++ {
			b := brand
			if rng.Float64() < noise {
				b = b + "x" // typo violating the FD
			}
			t.AppendValues(dataset.String(sku), dataset.String(b), dataset.Float(rng.Float64()*100))
		}
	}
	return t
}

// discoverFDs runs the dependency discovery RepairProfile repairs with.
func discoverFDs(t *dataset.Table, minConf float64, minGroups int) []DiscoveredFD {
	return profileOf(t).discover(t.Schema(), minConf, minGroups)
}

func TestDiscoverFDsFindsDependency(t *testing.T) {
	tab := fdTable(1, 30, 4, 0.05)
	fds := discoverFDs(tab, 0.85, 2)
	found := false
	for _, fd := range fds {
		if fd.LHS[0] == "sku" && fd.RHS == "brand" {
			found = true
			if fd.Confidence < 0.85 || fd.Confidence > 1 {
				t.Errorf("confidence = %f", fd.Confidence)
			}
			if fd.Groups != 30 {
				t.Errorf("groups = %d, want 30", fd.Groups)
			}
		}
		if fd.LHS[0] == "sku" && fd.RHS == "price" {
			t.Error("sku -> price should not be discovered (random prices)")
		}
	}
	if !found {
		t.Errorf("sku -> brand not discovered: %v", fds)
	}
}

func TestDiscoverFDsExcludesKeyLHS(t *testing.T) {
	// One row per sku: every column "determines" every other vacuously.
	tab := fdTable(2, 20, 1, 0)
	for _, fd := range discoverFDs(tab, 0.9, 2) {
		if fd.Groups == tab.Len() {
			t.Errorf("key-like LHS leaked: %v", fd)
		}
	}
}

func TestDiscoverFDsEmptyTable(t *testing.T) {
	tab := dataset.NewTable(fdTable(3, 1, 1, 0).Schema())
	if fds := discoverFDs(tab, 0.5, 1); fds != nil {
		t.Errorf("empty table should discover nothing: %v", fds)
	}
}

func TestDiscoverFDsSorted(t *testing.T) {
	tab := fdTable(4, 30, 4, 0.1)
	fds := discoverFDs(tab, 0.5, 2)
	for i := 1; i < len(fds); i++ {
		if fds[i].Confidence > fds[i-1].Confidence {
			t.Fatal("not sorted by confidence")
		}
	}
}

func TestProfileAndRepair(t *testing.T) {
	tab := fdTable(5, 40, 5, 0.08)
	// Count typo brands before.
	dirty := 0
	for _, r := range tab.Rows() {
		if strings.HasSuffix(r[1].Str(), "x") {
			dirty++
		}
	}
	if dirty == 0 {
		t.Skip("no noise generated")
	}
	used, changed, _, err := ProfileAndRepairRows(tab, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	if changed == 0 || len(used) == 0 {
		t.Fatalf("repair did nothing: used=%v changed=%d", used, changed)
	}
	after := 0
	for _, r := range tab.Rows() {
		if strings.HasSuffix(r[1].Str(), "x") {
			after++
		}
	}
	if after >= dirty {
		t.Errorf("typos not reduced: %d -> %d", dirty, after)
	}
	// The repaired table now satisfies the dependency.
	c, err := Consistency(tab, []CFD{{LHS: []string{"sku"}, RHS: "brand"}})
	if err != nil {
		t.Fatal(err)
	}
	if c < 0.999 {
		t.Errorf("post-repair consistency = %f", c)
	}
}

func TestProfileAndRepairWeakEvidenceUntouched(t *testing.T) {
	// 50% noise: the "dependency" is too weak to act on.
	tab := fdTable(6, 20, 4, 0.5)
	before := tab.Clone()
	_, changed, _, err := ProfileAndRepairRows(tab, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	if changed != 0 {
		t.Errorf("weak dependencies must not trigger repair (changed %d)", changed)
	}
	for i := 0; i < tab.Len(); i++ {
		if !tab.Row(i).Equal(before.Row(i)) {
			t.Fatal("table mutated despite weak evidence")
		}
	}
}

func TestDiscoveredFDString(t *testing.T) {
	d := DiscoveredFD{LHS: []string{"sku"}, RHS: "brand", Confidence: 0.95, Groups: 12}
	if s := d.String(); !strings.Contains(s, "sku") || !strings.Contains(s, "0.950") {
		t.Errorf("String = %q", s)
	}
}
