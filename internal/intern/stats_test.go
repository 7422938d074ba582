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
