package engine

import "testing"

func TestPartition(t *testing.T) {
	parts := partition(10, 3)
	if len(parts) != 3 {
		t.Fatalf("parts = %v", parts)
	}
	covered := 0
	for _, p := range parts {
		covered += p[1] - p[0]
	}
	if covered != 10 {
		t.Errorf("partitions cover %d rows", covered)
	}
	if len(partition(0, 4)) != 0 {
		t.Error("empty input -> no partitions")
	}
	if len(partition(3, 10)) != 3 {
		t.Error("more workers than rows should clamp")
	}
	if len(partition(5, 0)) != 1 {
		t.Error("zero workers should clamp to 1")
	}
}

// TestPartitionEdgeCases pins the degenerate-input contract Map relies
// on: worker counts at or below zero clamp to one, an empty range yields
// no partitions, and more workers than items clamp to one item per
// partition — never an empty or out-of-range slice.
func TestPartitionEdgeCases(t *testing.T) {
	cases := []struct {
		name     string
		rows     int
		workers  int
		wantPart int // expected number of partitions
	}{
		{"zero workers", 10, 0, 1},
		{"negative workers", 10, -5, 1},
		{"one worker", 10, 1, 1},
		{"empty table any workers", 0, 4, 0},
		{"empty table zero workers", 0, 0, 0},
		{"workers equal rows", 6, 6, 6},
		{"workers exceed rows", 3, 64, 3},
		{"single row many workers", 1, 8, 1},
		{"even split", 8, 4, 4},
		{"uneven split", 7, 3, 3},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := partition(tc.rows, tc.workers)
			if len(got) != tc.wantPart {
				t.Fatalf("%d partitions, want %d", len(got), tc.wantPart)
			}
			total := 0
			for i, p := range got {
				if p[1] <= p[0] {
					t.Errorf("partition %d is empty", i)
				}
				total += p[1] - p[0]
			}
			if total != tc.rows {
				t.Errorf("partitions cover %d rows, want %d", total, tc.rows)
			}
		})
	}
}

// TestPartitionInvariants checks partition's slices are contiguous,
// non-overlapping and cover [0, total) for a sweep of shapes, including
// the adversarial ones (n > total, n <= 0, total = 0).
func TestPartitionInvariants(t *testing.T) {
	for _, total := range []int{0, 1, 2, 3, 7, 64, 1000} {
		for _, n := range []int{-3, 0, 1, 2, 3, 7, 64, 2000} {
			parts := partition(total, n)
			if total == 0 {
				if len(parts) != 0 {
					t.Errorf("partition(%d,%d) = %v, want none", total, n, parts)
				}
				continue
			}
			prev := 0
			for i, p := range parts {
				if p[0] != prev {
					t.Fatalf("partition(%d,%d): part %d starts at %d, want %d", total, n, i, p[0], prev)
				}
				if p[1] <= p[0] {
					t.Fatalf("partition(%d,%d): part %d is empty (%v)", total, n, i, p)
				}
				prev = p[1]
			}
			if prev != total {
				t.Errorf("partition(%d,%d) covers [0,%d), want [0,%d)", total, n, prev, total)
			}
			if want := clampWorkers(n, total); len(parts) > want {
				t.Errorf("partition(%d,%d) produced %d parts, want <= %d", total, n, len(parts), want)
			}
		}
	}
}

func clampWorkers(n, total int) int {
	if n < 1 {
		n = 1
	}
	if n > total {
		n = total
	}
	return n
}
