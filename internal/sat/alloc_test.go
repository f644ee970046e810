package sat

import "testing"

// TestAddClauseAllocations pins that an input clause added after
// Reserve has sized the slabs costs no allocation: its literals and its
// clause record come from the slabs, and deduplication uses the
// solver's mark array.
func TestAddClauseAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not stable under -race")
	}
	const runs = 100
	s := New(10, true)
	s.Reserve(runs+1, 3*(runs+1)) // AllocsPerRun makes one extra call
	if n := testing.AllocsPerRun(runs, func() {
		if err := s.AddClause(1, -2, 3); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("3-literal AddClause allocates %v objects, want 0", n)
	}
}
