package nesting

import (
	"testing"

	"qof/internal/region"
)

func set(rs ...region.Region) region.Set { return region.FromRegions(rs) }

func TestCheck(t *testing.T) {
	of := region.Of
	name := set(of(0, 20), of(30, 50))
	for _, tc := range []struct {
		label string
		sets  []region.Set
		ok    bool
	}{
		{"nested", []region.Set{name, set(of(0, 8), of(30, 38)), set(of(9, 20), of(39, 50))}, true},
		{"equal regions under two names", []region.Set{name, set(of(0, 20)), set(of(2, 5))}, true},
		{"self-nesting", []region.Set{set(of(0, 50), of(1, 40), of(2, 30)), set(of(3, 4))}, true},
		// A First_Name one position too long overlaps its Last_Name with
		// no region inside the overlap: each still has one direct
		// container, Name, so only the forest sees it.
		{"leaf-level partial overlap", []region.Set{name, set(of(0, 9)), set(of(8, 20))}, false},
		{"partial overlap", []region.Set{set(of(0, 10)), set(of(5, 15)), set(of(6, 7))}, false},
		{"empty region where two touch", []region.Set{set(of(0, 5), of(5, 10)), set(of(5, 5))}, false},
	} {
		err := Check(tc.sets)
		if (err == nil) != tc.ok {
			t.Errorf("%s: Check = %v, want ok %v", tc.label, err, tc.ok)
		}
	}
}
