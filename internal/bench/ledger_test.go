package bench

import (
	"fmt"
	"math"
	"testing"

	"mlnclean/internal/core"
	"mlnclean/internal/dataset"
	"mlnclean/internal/errgen"
	"mlnclean/internal/eval"
	"mlnclean/internal/holoclean"
	"mlnclean/internal/rules"
)

// TestLedgerReproducesRepairQuality: the cell ledger's totals are
// RepairQuality's reading, bit for bit, on every fig6 cell: both datasets at
// default scale, every rate of ErrorSweep, MLNClean and HoloClean as Fig6
// runs them. MLNClean runs as a DeltaCleaner loaded with the dirty table,
// whose version is Clean's result byte for byte (TestDeltaLoadParity and the
// parity suites in internal/core) and carries the audit trail the ledger
// attributes changed cells by. MLNClean's broken clean cells are held to
// brokenCells.
func TestLedgerReproducesRepairQuality(t *testing.T) {
	if testing.Short() {
		t.Skip("default-scale experiment run")
	}
	sc := Default
	for _, name := range []string{"car", "hai"} {
		ds, err := sc.Generate(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, rate := range ErrorSweep {
			inj, err := injectFor(ds, sc, rate, 0.5)
			if err != nil {
				t.Fatal(err)
			}
			eng, err := core.NewDeltaCleaner(inj.Dirty.Schema, ds.Rules, core.Options{Tau: ds.Tau})
			if err != nil {
				t.Fatal(err)
			}
			v, err := eng.LoadVersion(inj.Dirty)
			if err != nil {
				t.Fatal(err)
			}
			l := ledgerMatches(t, name+" MLNClean", rate, ds.Truth, inj, v.Result().Repaired, v.Trail())
			key := fmt.Sprintf("%s %.0f%%", name, rate*100)
			switch broken, rec := l.Count(eval.Broken), brokenCells[key]; {
			case broken > rec:
				t.Errorf("broken cells %s: %d, %d recorded: a clean must not break more clean cells", key, broken, rec)
			case broken < rec:
				t.Logf("broken cells %s: %d, %d recorded: lower the record", key, broken, rec)
			}
			hc, err := holoclean.Repair(inj.Dirty, ds.Rules, inj.NoisyCells(), holoclean.Options{Seed: sc.Seed})
			if err != nil {
				t.Fatal(err)
			}
			ledgerMatches(t, name+" HoloClean", rate, ds.Truth, inj, hc.Repaired, nil)
		}
	}
}

// brokenCells is, per dataset and error rate of ErrorSweep, how many clean
// cells MLNClean rewrites to a wrong value (default scale, tuned τ, Rret
// 0.5). At high rates they outnumber the wrong fixes, most of them in tuples
// that carry another error (ROADMAP item 27). The lines are one-sided: a
// count may shrink, and must not grow.
var brokenCells = map[string]int{
	"car 5%":  81,
	"car 10%": 173,
	"car 15%": 384,
	"car 20%": 542,
	"car 25%": 779,
	"car 30%": 883,
	"hai 5%":  107,
	"hai 10%": 193,
	"hai 15%": 409,
	"hai 20%": 645,
	"hai 25%": 1788,
	"hai 30%": 2900,
}

// ledgerMatches fails unless the ledger of repaired holds every cell once,
// and its totals give RepairQuality's counts and ratios bit for bit. It
// returns the ledger.
func ledgerMatches(t *testing.T, label string, rate float64, truth *dataset.Table, inj *errgen.Injection, repaired *dataset.Table, trail []core.Repair) eval.Ledger {
	t.Helper()
	l := eval.CellLedger(truth, inj.Dirty, repaired, inj.Errors, trail)
	got, want := l.Quality(), eval.RepairQuality(truth, inj.Dirty, repaired)
	same := got.Correct == want.Correct && got.Updated == want.Updated && got.Erroneous == want.Erroneous
	for _, p := range [][2]float64{{got.Precision, want.Precision}, {got.Recall, want.Recall}, {got.F1, want.F1}} {
		same = same && math.Float64bits(p[0]) == math.Float64bits(p[1])
	}
	if !same {
		t.Fatalf("%s %.0f%%: the ledger reads %+v, RepairQuality %+v", label, 100*rate, got, want)
	}
	cells := 0
	for _, n := range l {
		cells += n
	}
	if want := inj.Dirty.Len() * inj.Dirty.Schema.Len(); cells != want {
		t.Fatalf("%s %.0f%%: the ledger holds %d cells, the table %d", label, 100*rate, cells, want)
	}
	t.Logf("%s %.0f%%: fixed %d, missed %d, wrong fix %d, broken %d; F1 %.3f", label, 100*rate,
		l.Count(eval.Fixed), l.Count(eval.Missed), l.Count(eval.WrongFix), l.Count(eval.Broken), got.F1)
	return l
}

// TestLedgerSideAmbiguity counts what the side ambiguity of an FD costs
// MLNClean (ROADMAP item 27 (c)): a replacement on an FD's reason attribute
// cannot be told, under the rule alone, from one on its result, and the
// clean rewrites the result. On both datasets at default scale and 5 %
// errors, with every injected error a typo (Rret 0) and every one a
// replacement (Rret 1), it counts three kinds of cells (sideCounts) and
// holds each one-sided, as brokenCells holds the broken cells: broken and
// missed may shrink and must not grow, fixed may grow and must not shrink.
func TestLedgerSideAmbiguity(t *testing.T) {
	if testing.Short() {
		t.Skip("default-scale experiment run")
	}
	sc := Default
	for _, name := range []string{"car", "hai"} {
		ds, err := sc.Generate(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, rret := range []float64{0, 1} {
			inj, err := injectFor(ds, sc, 0.05, rret)
			if err != nil {
				t.Fatal(err)
			}
			res, err := core.Clean(inj.Dirty, ds.Rules, core.Options{Tau: ds.Tau})
			if err != nil {
				t.Fatal(err)
			}
			key := fmt.Sprintf("%s 5%% Rret %.0f", name, rret)
			got, rec := sideAmbiguity(ds.Truth, inj, res.Repaired, ds.Rules), sideRecord[key]
			for _, c := range []struct {
				what      string
				got, rec  int
				worseIfUp bool
			}{
				{"result cells broken beside a dirty reason", got.broken, rec.broken, true},
				{"reason replacements missed", got.missed, rec.missed, true},
				{"result replacements fixed", got.fixed, rec.fixed, false},
			} {
				switch worse := c.got > c.rec; {
				case c.got == c.rec:
				case worse == c.worseIfUp:
					t.Errorf("%s: %s: %d, %d recorded", key, c.what, c.got, c.rec)
				default:
					t.Logf("%s: %s: %d, %d recorded: move the record", key, c.what, c.got, c.rec)
				}
			}
			t.Logf("%s: %+v", key, got)
		}
	}
}

// sideCounts are TestLedgerSideAmbiguity's three counts, over the FD rules'
// cells, each cell counted once:
//   - broken: a result cell whose observed value is clean and was
//     rewritten, in a tuple where a reason cell of the same rule is dirty;
//   - missed: a reason cell holding an injected replacement, left as
//     observed;
//   - fixed: a result cell holding an injected replacement, repaired to its
//     true value.
type sideCounts struct{ broken, missed, fixed int }

// sideRecord is sideCounts per dataset and Rret at 5 % errors (default
// scale, tuned τ). At Rret 0 a replacement is only errgen's fallback for a
// value too short for a typo (CAR's one-digit Doors), so missed is 0 there.
// At Rret 1, for every 10 result replacements fixed, CAR leaves 6 reason
// replacements and breaks 3 clean results beside them, HAI 1.6 and 1.5.
var sideRecord = map[string]sideCounts{
	"car 5% Rret 0": {broken: 1, missed: 0, fixed: 277},
	"car 5% Rret 1": {broken: 154, missed: 300, fixed: 503},
	"hai 5% Rret 0": {broken: 16, missed: 0, fixed: 0},
	"hai 5% Rret 1": {broken: 183, missed: 198, fixed: 1253},
}

func sideAmbiguity(truth *dataset.Table, inj *errgen.Injection, repaired *dataset.Table, rs []*rules.Rule) sideCounts {
	replaced := make(map[[2]int]bool)
	schema := inj.Dirty.Schema
	for _, e := range inj.Errors {
		if e.Type == errgen.Replacement {
			replaced[[2]int{e.TupleID, schema.MustIndex(e.Attr)}] = true
		}
	}
	byID := make(map[int]*dataset.Tuple, repaired.Len())
	for _, tp := range repaired.Tuples {
		byID[tp.ID] = tp
	}
	var c sideCounts
	broken, missed, fixed := make(map[int]bool), make(map[int]bool), make(map[int]bool)
	for i, dt := range inj.Dirty.Tuples {
		tt, rt := truth.Tuples[i], byID[dt.ID]
		clear(broken)
		clear(missed)
		clear(fixed)
		for _, r := range rs {
			if r.Kind != rules.FD {
				continue
			}
			reasonDirty := false
			for _, a := range r.ReasonAttrs() {
				j := schema.MustIndex(a)
				reasonDirty = reasonDirty || dt.Values[j] != tt.Values[j]
				if replaced[[2]int{dt.ID, j}] && rt.Values[j] == dt.Values[j] {
					missed[j] = true
				}
			}
			for _, a := range r.ResultAttrs() {
				j := schema.MustIndex(a)
				if reasonDirty && dt.Values[j] == tt.Values[j] && rt.Values[j] != dt.Values[j] {
					broken[j] = true
				}
				if replaced[[2]int{dt.ID, j}] && rt.Values[j] == tt.Values[j] {
					fixed[j] = true
				}
			}
		}
		c.broken, c.missed, c.fixed = c.broken+len(broken), c.missed+len(missed), c.fixed+len(fixed)
	}
	return c
}
