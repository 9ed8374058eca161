package intern

import (
	"fmt"
	"testing"
	"unsafe"
)

// sameInstance reports whether two equal strings share their backing
// bytes — what "canonical instance" means for an interner.
func sameInstance(a, b string) bool {
	return a == b && unsafe.StringData(a) == unsafe.StringData(b)
}

func TestStrReturnsOneCanonicalInstance(t *testing.T) {
	tab := New()
	first := tab.Str(string([]byte("SKU-0001")))
	again := tab.Str(string([]byte("SKU-0001"))) // equal content, fresh allocation
	if !sameInstance(first, again) {
		t.Error("Str returned a second instance of an already interned string")
	}
	other := tab.Str("SKU-0002")
	if other != "SKU-0002" || sameInstance(first, other) {
		t.Errorf("distinct strings must stay distinct: %q vs %q", first, other)
	}
	if got := tab.Str(""); got != "" {
		t.Errorf("Str(\"\") = %q", got)
	}
}

// TestKeyMatchesRowKeyFormat pins the one format feedback addressing and
// shard routing agree on: core.rowKey renders "%s#%d", and the interner
// must build exactly that.
func TestKeyMatchesRowKeyFormat(t *testing.T) {
	tab := New()
	for _, src := range []string{"srcA", "shop#7", ""} {
		for _, idx := range []int{0, 1, 9, 10, 123} {
			if got, want := tab.Key(src, idx), fmt.Sprintf("%s#%d", src, idx); got != want {
				t.Errorf("Key(%q, %d) = %q, want %q", src, idx, got, want)
			}
		}
	}
}

// TestKeyStableAcrossCallsAndGrowth pins the reuse a refresh relies on:
// asking for a key again — before or after the source's key slice grew
// past it — hands back the identical instance, never a re-format.
func TestKeyStableAcrossCallsAndGrowth(t *testing.T) {
	tab := New()
	k3 := tab.Key("srcA", 3)
	if !sameInstance(k3, tab.Key("srcA", 3)) {
		t.Error("repeated Key call re-formatted the key")
	}
	k0 := tab.Key("srcA", 0) // below the high-water mark: built by the first call
	tab.Key("srcA", 500)     // grow well past both, forcing the slice to reallocate
	if !sameInstance(k3, tab.Key("srcA", 3)) || !sameInstance(k0, tab.Key("srcA", 0)) {
		t.Error("growing past an index replaced its interned key")
	}
	if got := tab.Key("srcA", 500); got != "srcA#500" {
		t.Errorf("Key(srcA, 500) = %q", got)
	}
}

func TestKeySourcesNeverAlias(t *testing.T) {
	tab := New()
	// Interleave growth of two sources, one a prefix of the other.
	for i := 0; i < 20; i++ {
		tab.Key("src", i)
		tab.Key("src1", 2*i)
	}
	seen := map[string]string{}
	for _, src := range []string{"src", "src1"} {
		for i := 0; i < 20; i++ {
			k := tab.Key(src, i)
			if want := fmt.Sprintf("%s#%d", src, i); k != want {
				t.Fatalf("Key(%q, %d) = %q after interleaved growth", src, i, k)
			}
			if prev, dup := seen[k]; dup {
				t.Fatalf("key %q handed to both %q and %q", k, prev, src)
			}
			seen[k] = src
		}
	}
}

// TestSweepDropsWhatARoundLeftUnreferenced pins Str's bound: a sweep
// keeps everything while at most half the entries went unreferenced by
// the round it ends, and once more than half did, it keeps exactly the
// referenced ones — as the same canonical instances.
func TestSweepDropsWhatARoundLeftUnreferenced(t *testing.T) {
	tab := New()
	keep := tab.Str(string([]byte("SKU-0001")))
	for i := 0; i < 3; i++ {
		tab.Str(fmt.Sprintf("old-%d", i))
	}
	tab.Sweep()
	if tab.Len() != 4 {
		t.Fatalf("the first round referenced all 4 entries, the sweep left %d", tab.Len())
	}
	tab.Str("SKU-0001")
	tab.Str("old-0")
	tab.Sweep() // 2 of 4 unreferenced: not more than half
	if tab.Len() != 4 {
		t.Fatalf("half the entries unreferenced, the sweep left %d of 4", tab.Len())
	}
	tab.Str(string([]byte("SKU-0001")))
	tab.Sweep() // 3 of 4 unreferenced
	if tab.Len() != 1 {
		t.Fatalf("3 of 4 entries unreferenced, the sweep left %d", tab.Len())
	}
	if !sameInstance(keep, tab.Str(string([]byte("SKU-0001")))) {
		t.Error("the rebuild replaced a referenced entry's canonical instance")
	}
	if got := tab.Str("old-1"); got != "old-1" || tab.Len() != 2 {
		t.Errorf("re-interning a dropped string: %q, %d entries", got, tab.Len())
	}
}
