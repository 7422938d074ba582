package intern_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"mlnclean/internal/datagen"
	"mlnclean/internal/dataset"
	"mlnclean/internal/errgen"
	"mlnclean/internal/intern"
	"mlnclean/internal/plan"
	"mlnclean/internal/rules"
)

// refStats is Stats as it stood before the flat per-ID slots — one
// map[uint32]int per column — kept as the oracle.
type refStats struct {
	cols []refCol
}

type refCol struct {
	rows int
	freq map[uint32]int
}

func (s *refStats) Observe(col int, id uint32) {
	for len(s.cols) <= col {
		s.cols = append(s.cols, refCol{freq: make(map[uint32]int)})
	}
	s.cols[col].rows++
	s.cols[col].freq[id]++
}

func (s *refStats) ObserveRow(row []uint32) {
	for j, id := range row {
		s.Observe(j, id)
	}
}

// checkStats compares every reader of st with the oracle, for every column
// (one past the last too) and every ID below maxID.
func checkStats(t *testing.T, label string, st *intern.Stats, ref *refStats, maxID uint32) {
	t.Helper()
	if st.Columns() != len(ref.cols) {
		t.Fatalf("%s: Columns = %d, oracle %d", label, st.Columns(), len(ref.cols))
	}
	for col := 0; col <= len(ref.cols); col++ {
		var want refCol
		if col < len(ref.cols) {
			want = ref.cols[col]
		}
		if st.Rows(col) != want.rows || st.Distinct(col) != len(want.freq) {
			t.Fatalf("%s: column %d rows/distinct = %d/%d, oracle %d/%d",
				label, col, st.Rows(col), st.Distinct(col), want.rows, len(want.freq))
		}
		for id := uint32(0); id < maxID; id++ {
			if got := st.Freq(col, id); got != want.freq[id] {
				t.Fatalf("%s: Freq(%d, %d) = %d, oracle %d", label, col, id, got, want.freq[id])
			}
		}
	}
}

// TestStatsMatchesReference: the flat statistics answer every question the
// per-column maps answered — on random observation sequences with IDs in up
// to three columns, gaps in the ID space and a dictionary that keeps growing,
// and on the three generators, where the planner must also choose what it
// chose over the maps (the plan lines are the parent commit's).
func TestStatsMatchesReference(t *testing.T) {
	for seed := int64(0); seed < 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var st intern.Stats
		var ref refStats
		width := 1 + rng.Intn(5)
		maxID := uint32(4)
		for step, steps := 0, rng.Intn(400); step < steps; step++ {
			if rng.Intn(8) == 0 {
				maxID += uint32(rng.Intn(300)) // the dictionary grows, sometimes past unobserved IDs
			}
			// Mostly one column per ID (id mod width), sometimes a neighbour.
			pick := func(col int) uint32 {
				id := uint32(rng.Intn(int(maxID)))
				if rng.Intn(5) > 0 {
					id -= id % uint32(width)
					id += uint32((col + rng.Intn(3)/2) % width)
				}
				return id
			}
			if rng.Intn(3) == 0 {
				col := rng.Intn(width + 1) // one past the widest row: Observe grows the columns
				id := pick(col)
				st.Observe(col, id)
				ref.Observe(col, id)
				continue
			}
			row := make([]uint32, 1+rng.Intn(width))
			for j := range row {
				row[j] = pick(j)
			}
			st.ObserveRow(row)
			ref.ObserveRow(row)
		}
		checkStats(t, fmt.Sprintf("seed %d", seed), &st, &ref, maxID+uint32(width)+2)
	}

	gens := []struct {
		name string
		gen  func() (*dataset.Table, []*rules.Rule, error)
		plan []string
	}{
		{"hai", func() (*dataset.Table, []*rules.Rule, error) {
			return datagen.HAI(datagen.HAIConfig{Providers: 120, Measures: 8, Seed: 7})
		}, []string{
			"r1: full-scan [PhoneNumber] — single-attribute reason — planning is a no-op, full scan",
			"r2: full-scan [PhoneNumber] — single-attribute reason — planning is a no-op, full scan",
			"r3: full-scan [ZIPCode] — single-attribute reason — planning is a no-op, full scan",
			"r4: full-scan [MeasureID] — single-attribute reason — planning is a no-op, full scan",
			"r5: full-scan [ZIPCode] — single-attribute reason — planning is a no-op, full scan",
			"r6: full-scan [ProviderID] — single-attribute reason — planning is a no-op, full scan",
			"r7: full-scan [PhoneNumber] — single-attribute reason — planning is a no-op, full scan",
		}},
		{"car", func() (*dataset.Table, []*rules.Rule, error) {
			return datagen.CAR(datagen.CARConfig{Rows: 5000, Seed: 7})
		}, []string{
			"r1: posting-union [Make Type] — 1 constant(s) cover ≤252/5000 rows — posting union over constant ID lists",
			"r2: full-scan [Model Type] — best pivot Model has 344 distinct over 5000 rows (avg list > 8) — full scan",
			"r3: full-scan [Make Type] — best pivot Make has 146 distinct over 5000 rows (avg list > 8) — full scan",
		}},
		{"tpch", func() (*dataset.Table, []*rules.Rule, error) {
			return datagen.TPCH(datagen.TPCHConfig{Customers: 200, Rows: 4000, Seed: 7})
		}, []string{
			"r1: full-scan [CustKey] — single-attribute reason — planning is a no-op, full scan",
		}},
	}
	for _, g := range gens {
		truth, rs, err := g.gen()
		if err != nil {
			t.Fatal(err)
		}
		inj, err := errgen.Inject(truth, rs, errgen.Config{Rate: 0.1, ReplacementRatio: 0.5, Seed: 11})
		if err != nil {
			t.Fatal(err)
		}
		dict := intern.NewDict()
		enc := dataset.Encode(inj.Dirty, dict)
		var ref refStats
		for _, row := range enc.Rows {
			ref.ObserveRow(row)
		}
		checkStats(t, g.name, dict.Stats(), &ref, uint32(dict.Len()))
		var got []string
		for _, c := range plan.New(rs, inj.Dirty.Schema, dict).Choices() {
			got = append(got, c.String())
		}
		if !reflect.DeepEqual(got, g.plan) {
			t.Errorf("%s: plan\n got %q\nwant %q", g.name, got, g.plan)
		}
	}
}
