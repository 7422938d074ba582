package intern

// Stats accumulates per-column value statistics as tables are encoded: for
// every column position, the number of cells observed (rows), the number of
// distinct value IDs, and the exact frequency of each ID. dataset.Encode
// feeds one observation per cell, so after encoding a table the counters
// are the exact column cardinalities the rule planner (internal/plan) ranks
// predicates by — no separate stats-collection pass ever runs.
//
// Stats follows the same concurrency contract as the Dict that owns it:
// writes (Observe) are confined to the serial encode phases, and once the
// pipeline fans out into the parallel stage-I/II loops the structure is only
// read.
type Stats struct {
	cols []colStats
}

type colStats struct {
	rows int
	freq map[uint32]int
}

// Observe records one cell of column col holding the interned value id.
func (s *Stats) Observe(col int, id uint32) {
	s.grow(col)
	c := &s.cols[col]
	c.rows++
	c.freq[id]++
}

// ObserveRow records one encoded row: cell j is an observation of column j.
func (s *Stats) ObserveRow(row []uint32) {
	s.grow(len(row) - 1)
	for j, id := range row {
		c := &s.cols[j]
		c.rows++
		c.freq[id]++
	}
}

func (s *Stats) grow(col int) {
	for len(s.cols) <= col {
		s.cols = append(s.cols, colStats{freq: make(map[uint32]int)})
	}
}

// Columns returns the number of columns with at least one observation slot.
func (s *Stats) Columns() int {
	if s == nil {
		return 0
	}
	return len(s.cols)
}

// Rows returns the number of cells observed in column col.
func (s *Stats) Rows(col int) int {
	if s == nil || col < 0 || col >= len(s.cols) {
		return 0
	}
	return s.cols[col].rows
}

// Distinct returns the number of distinct value IDs observed in column col.
func (s *Stats) Distinct(col int) int {
	if s == nil || col < 0 || col >= len(s.cols) {
		return 0
	}
	return len(s.cols[col].freq)
}

// Freq returns how often value id was observed in column col.
func (s *Stats) Freq(col int, id uint32) int {
	if s == nil || col < 0 || col >= len(s.cols) {
		return 0
	}
	return s.cols[col].freq[id]
}
