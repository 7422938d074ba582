package intern

import "testing"

func TestStatsObserve(t *testing.T) {
	var st Stats
	// Column 0: three cells over two distinct IDs; column 2 forces growth
	// past an unobserved column 1.
	st.Observe(0, 7)
	st.Observe(0, 7)
	st.Observe(0, 9)
	st.Observe(2, 1)
	if got := st.Columns(); got != 3 {
		t.Errorf("Columns = %d, want 3", got)
	}
	if got := st.Rows(0); got != 3 {
		t.Errorf("Rows(0) = %d, want 3", got)
	}
	if got := st.Distinct(0); got != 2 {
		t.Errorf("Distinct(0) = %d, want 2", got)
	}
	if got := st.Freq(0, 7); got != 2 {
		t.Errorf("Freq(0,7) = %d, want 2", got)
	}
	if got := st.Rows(1); got != 0 {
		t.Errorf("Rows(1) = %d, want 0 (grown but unobserved)", got)
	}
	if got := st.Distinct(2); got != 1 {
		t.Errorf("Distinct(2) = %d, want 1", got)
	}
}

func TestStatsObserveRow(t *testing.T) {
	var st Stats
	st.ObserveRow([]uint32{1, 2})
	st.ObserveRow([]uint32{1, 3})
	if got := st.Columns(); got != 2 {
		t.Fatalf("Columns = %d, want 2", got)
	}
	if st.Rows(0) != 2 || st.Distinct(0) != 1 {
		t.Errorf("col 0: rows=%d distinct=%d, want 2/1", st.Rows(0), st.Distinct(0))
	}
	if st.Rows(1) != 2 || st.Distinct(1) != 2 {
		t.Errorf("col 1: rows=%d distinct=%d, want 2/2", st.Rows(1), st.Distinct(1))
	}
}

func TestStatsNilSafe(t *testing.T) {
	var st *Stats
	if st.Columns() != 0 || st.Rows(0) != 0 || st.Distinct(0) != 0 || st.Freq(0, 1) != 0 {
		t.Error("nil Stats readers must return zero")
	}
}

// TestStatsSpillOnlySharedIDs: an ID counts in its flat slot for as long as
// it stays in one column — no map exists until some ID shows up in a second
// column, and then the map holds that (column, ID) alone.
func TestStatsSpillOnlySharedIDs(t *testing.T) {
	var st Stats
	st.ObserveRow([]uint32{0, 1})
	st.ObserveRow([]uint32{2, 1})
	st.Observe(0, 900) // far past the IDs seen so far
	if st.spill != nil {
		t.Fatalf("single-column IDs spilled: %v", st.spill)
	}
	st.Observe(1, 0)
	st.Observe(1, 0)
	if len(st.spill) != 1 || st.spill[[2]uint32{1, 0}] != 2 {
		t.Fatalf("spill = %v, want only (column 1, ID 0) ×2", st.spill)
	}
	if st.Freq(0, 0) != 1 || st.Freq(1, 0) != 2 || st.Freq(1, 1) != 2 || st.Freq(0, 900) != 1 || st.Freq(1, 900) != 0 {
		t.Errorf("Freq wrong after spill: (0,0)=%d (1,0)=%d (1,1)=%d (0,900)=%d (1,900)=%d",
			st.Freq(0, 0), st.Freq(1, 0), st.Freq(1, 1), st.Freq(0, 900), st.Freq(1, 900))
	}
	if st.Distinct(0) != 3 || st.Distinct(1) != 2 {
		t.Errorf("Distinct = %d/%d, want 3/2", st.Distinct(0), st.Distinct(1))
	}
}
