package intern

// Stats accumulates per-column value statistics as tables are encoded: for
// every column position, the number of cells observed (rows), the number of
// distinct value IDs, and the exact frequency of each ID. dataset.Encode
// feeds one observation per cell, so after encoding a table the counters
// are the exact column cardinalities the rule planner (internal/plan) ranks
// predicates by — no separate stats-collection pass ever runs.
//
// Value IDs are dense, and a value almost always lives in one column, so the
// frequencies are one flat (home column, count) slot per ID: an observation
// is an array increment. Only an ID observed in a second column goes to the
// spill map, keyed by {column, ID}.
//
// Stats follows the same concurrency contract as the Dict that owns it:
// writes (Observe) are confined to the serial encode phases, and once the
// pipeline fans out into the parallel stage-I/II loops the structure is only
// read.
type Stats struct {
	cols  []colStats
	ids   []idStat
	spill map[[2]uint32]int
}

type colStats struct {
	rows     int
	distinct int
}

// idStat counts one ID's observations in its home column, the first column
// it was observed in (stored +1; 0 marks an ID never observed).
type idStat struct {
	home int32
	n    int32
}

// Observe records one cell of column col holding the interned value id.
func (s *Stats) Observe(col int, id uint32) {
	s.grow(col)
	s.observe(col, id)
}

// ObserveRow records one encoded row: cell j is an observation of column j.
func (s *Stats) ObserveRow(row []uint32) {
	s.grow(len(row) - 1)
	for j, id := range row {
		s.observe(j, id)
	}
}

func (s *Stats) observe(col int, id uint32) {
	c := &s.cols[col]
	c.rows++
	if int(id) >= len(s.ids) {
		grown := make([]idStat, max(int(id)+1, 2*len(s.ids)))
		copy(grown, s.ids)
		s.ids = grown
	}
	switch e := &s.ids[id]; e.home {
	case int32(col) + 1:
		e.n++
	case 0:
		e.home, e.n = int32(col)+1, 1
		c.distinct++
	default:
		if s.spill == nil {
			s.spill = make(map[[2]uint32]int)
		}
		k := [2]uint32{uint32(col), id}
		if s.spill[k] == 0 {
			c.distinct++
		}
		s.spill[k]++
	}
}

func (s *Stats) grow(col int) {
	for len(s.cols) <= col {
		s.cols = append(s.cols, colStats{})
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
	return s.cols[col].distinct
}

// Freq returns how often value id was observed in column col.
func (s *Stats) Freq(col int, id uint32) int {
	if s == nil || col < 0 || col >= len(s.cols) {
		return 0
	}
	if int(id) < len(s.ids) && s.ids[id].home == int32(col)+1 {
		return int(s.ids[id].n)
	}
	return s.spill[[2]uint32{uint32(col), id}]
}
