package bench

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"
	"time"

	"mlnclean/internal/core"
)

// The fidelity ratchet: every "paper shape:" note in figures.go and every
// "paper:" note in tables.go, asserted at default scale. Each shape is one
// margin, ≥ 0 when the reproduction has the paper's shape and below 0 by
// how far it misses. knownGaps lists the shapes that miss today, each with
// its measured margin, and TestPaperShapesRatchet fails when an unlisted
// shape breaks, when a listed gap gets worse, or when a listed gap has
// closed and is still listed.
//
// Where a note names no number, these bands read its words.
const (
	// mildBand: "declines mildly" and "no significant fluctuation" allow
	// at most this much change over a sweep.
	mildBand = 0.10
	// flatBand: "flat" and "slight fluctuation" allow at most this spread.
	flatBand = 0.05
	// collapseBand: a "collapse" ends at least this far below the peak.
	collapseBand = 0.10
	// highBand: precision that "stays high" stays at least this.
	highBand = 0.85
	// paperBand: a number the paper states is matched within this.
	paperBand = 0.05
)

// Run-to-run spread of a wall-time ratio: tens of percent on a loaded box.
// A margin within its noise of a bound is read as on neither side of it.
// Every accuracy cell repeats exactly, so its margin has no noise: the
// seeds are fixed, and the HoloClean baseline trains its attributes in
// sorted order.
const timeNoise = 0.5

// knownGaps is every shape the reproduction misses at default scale, with
// the margin measured (ROADMAP item 1: step 2 diagnoses them, step 3 closes
// or explains each).
var knownGaps = map[string]float64{
	"fig6-car: MLNClean declines mildly":              -0.160,
	"fig6-car: HoloClean declines mildly":             -0.008,
	"fig6-hai: MLNClean above HoloClean":              -0.042,
	"fig6-hai: MLNClean declines mildly":              -0.256,
	"fig6-hai: HoloClean declines mildly":             -0.045,
	"fig7-car: MLNClean flat in Rret":                 -0.238,
	"fig7-car: HoloClean worst on all typos":          -0.001,
	"fig7-hai: MLNClean flat in Rret":                 -0.043,
	"fig8-car: collapse at large τ":                   -0.058,
	"fig9-car: peak at the tuned τ":                   -0.080,
	"fig9-hai: peak at the tuned τ":                   -0.002,
	"fig10-car: recall collapses past the optimum":    -0.094,
	"fig11-car: F1 peaks at the tuned τ":              -0.043,
	"fig11-hai: F1 peaks at the tuned τ":              -0.004,
	"fig13-car: precision −≈10% over the sweep":       -0.189,
	"fig13-car: recall −≈1% over the sweep":           -0.304,
	"fig13-hai: precision −≈10% over the sweep":       -0.024,
	"fig13-hai: recall −≈1% over the sweep":           -0.120,
	"fig14-car: no significant fluctuation":           -0.193,
	"fig14-hai: no significant fluctuation":           -0.341,
	"fig14-hai: FSCR recall at least RSC's":           -0.010,
	"fig15-hai: F1 drops under 3% over the sweep":     -0.335,
	"fig15-tpch: F1 drops under 3% over the sweep":    -0.276,
	"table5-car: Levenshtein F1 near the paper's":     -0.103,
	"table5-hai: Levenshtein wins":                    -0.001,
	"table6: speedup 2 → 10 workers near the paper's": -2.48,
	"table6: slight accuracy fluctuation":             -0.074,
}

// secondPass is, per dataset and error rate, how many cells a second clean
// of the repaired table changes (default scale, tuned τ, Rret 0.5): a clean
// is not a fixed point at high error rates, because its own output exposes
// groups and conflicts the first pass left (ROADMAP item 1, step 2). The
// lines are one-sided: a count may shrink, and must not grow. Pairs not
// listed change nothing.
var secondPass = map[string]int{
	"hai 30%": 909,
	"car 5%":  7,
	"car 15%": 66,
	"car 30%": 170,
}

// secondPassRates are the error rates secondPass is read at.
var secondPassRates = []float64{0.05, 0.15, 0.30}

// shape is one paper-shape assertion: its margin (≥ 0 holds) and that
// margin's run-to-run noise.
type shape struct {
	name          string
	margin, noise float64
}

// TestPaperShapesRatchet runs every figure and table of §7 at default scale
// (≈ 20 s on 2 cores) and holds each paper shape to knownGaps.
func TestPaperShapesRatchet(t *testing.T) {
	if testing.Short() {
		t.Skip("default-scale experiment run")
	}
	reps := make(map[string]*Report)
	for _, name := range Names() {
		if strings.HasPrefix(name, "ablation") {
			continue
		}
		r, err := Run(name, Default)
		if err != nil {
			t.Fatal(err)
		}
		reps[name] = r
	}
	shapes := paperShapes(t, reps)
	for name := range knownGaps {
		if !slices.ContainsFunc(shapes, func(s shape) bool { return s.name == name }) {
			t.Errorf("knownGaps lists %q, which is no shape", name)
		}
	}
	for _, s := range shapes {
		rec, listed := knownGaps[s.name]
		noise := s.noise + 1e-9 // the cells' own rounding
		switch {
		case !listed && s.margin < -noise:
			t.Errorf("%s: broke, margin %.4f (noise %.3g)", s.name, s.margin, s.noise)
		case listed && s.margin < rec-noise:
			t.Errorf("%s: gap got worse, margin %.4f against %.4f recorded (noise %.3g)", s.name, s.margin, rec, s.noise)
		case listed && s.margin > noise:
			t.Errorf("%s: gap closed, margin %.4f (noise %.3g): delete it from knownGaps", s.name, s.margin, s.noise)
		default:
			t.Logf("%-52s %8.4f", s.name, s.margin)
		}
	}
	checkSecondPass(t)
}

// checkSecondPass cleans each dataset's dirty table at each of
// secondPassRates twice, the second time from the first's repaired table,
// and holds the cells the second pass changes to secondPass.
func checkSecondPass(t *testing.T) {
	t.Helper()
	for _, name := range []string{"hai", "car", "tpch"} {
		ds, err := Default.Generate(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, rate := range secondPassRates {
			inj, err := injectFor(ds, Default, rate, 0.5)
			if err != nil {
				t.Fatal(err)
			}
			opts := core.Options{Tau: ds.Tau}
			first, err := core.Clean(inj.Dirty, ds.Rules, opts)
			if err != nil {
				t.Fatal(err)
			}
			second, err := core.Clean(first.Repaired, ds.Rules, opts)
			if err != nil {
				t.Fatal(err)
			}
			changed := 0
			for i, tp := range first.Repaired.Tuples {
				for j, v := range tp.Values {
					if second.Repaired.Tuples[i].Values[j] != v {
						changed++
					}
				}
			}
			key := fmt.Sprintf("%s %.0f%%", name, rate*100)
			switch rec := secondPass[key]; {
			case changed > rec:
				t.Errorf("second pass %s: %d cells changed, %d recorded: a second clean of the repaired table must not find more", key, changed, rec)
			case changed < rec:
				t.Logf("second pass %-8s %5d cells changed, %d recorded: lower the record", key, changed, rec)
			default:
				t.Logf("second pass %-8s %5d cells changed", key, changed)
			}
		}
	}
}

// paperShapes measures every shape the notes state, on reports keyed by
// experiment name.
func paperShapes(t *testing.T, reps map[string]*Report) []shape {
	var out []shape
	add := func(name string, margin, noise float64) { out = append(out, shape{name, margin, noise}) }
	col := func(name string, c int) []float64 { return column(t, reps[name], c) }
	secs := func(name string, c int) []float64 { return seconds(t, reps[name], c) }
	tuned := map[string]int{"car": Default.CARTau, "hai": Default.HAITau}

	for _, ds := range []string{"car", "hai"} {
		at := func(fig string) int { return tauRow(t, reps[fig+"-"+ds], tuned[ds]) }

		// Fig. 6: MLNClean F1 above HoloClean at every rate; both decline
		// mildly; MLNClean faster.
		mc, hc := col("fig6-"+ds, 1), col("fig6-"+ds, 2)
		add("fig6-"+ds+": MLNClean above HoloClean", slices.Min(sub(mc, hc)), 0)
		add("fig6-"+ds+": MLNClean declines mildly", mildDecline(mc), 0)
		add("fig6-"+ds+": HoloClean declines mildly", mildDecline(hc), 0)
		add("fig6-"+ds+": MLNClean faster", slices.Min(ratio(secs("fig6-"+ds, 4), secs("fig6-"+ds, 3)))-1, timeNoise)

		// Fig. 7: MLNClean flat in Rret (the HoloClean halves follow the
		// loop: they compare the datasets).
		add("fig7-"+ds+": MLNClean flat in Rret", flatBand-spread(col("fig7-"+ds, 1)), 0)

		// Fig. 8: accuracy peaks at an intermediate τ (τ=0 detects
		// nothing), #dag grows with τ, collapse at large τ.
		p, r, dag := col("fig8-"+ds, 1), col("fig8-"+ds, 2), col("fig8-"+ds, 3)
		add("fig8-"+ds+": τ=0 detects nothing", -dag[0], 0)
		add("fig8-"+ds+": #dag grows with τ", minStep(dag), 0)
		add("fig8-"+ds+": accuracy peaks at an intermediate τ", min(interiorPeak(p), interiorPeak(r)), 0)
		add("fig8-"+ds+": collapse at large τ", slices.Max(p)-p[len(p)-1]-collapseBand, 0)

		// Fig. 9: peak at the tuned τ, deteriorating on both sides;
		// precision ≥ recall.
		p, r = col("fig9-"+ds, 1), col("fig9-"+ds, 2)
		add("fig9-"+ds+": peak at the tuned τ", min(peakAt(p, at("fig9")), peakAt(r, at("fig9"))), 0)
		add("fig9-"+ds+": precision at least recall", slices.Min(sub(p, r)), 0)

		// Fig. 10: precision stays high across τ; recall collapses once τ
		// passes the optimum.
		p, r = col("fig10-"+ds, 1), col("fig10-"+ds, 2)
		add("fig10-"+ds+": precision stays high", slices.Min(p)-highBand, 0)
		add("fig10-"+ds+": recall collapses past the optimum", slices.Max(r)-r[len(r)-1]-collapseBand, 0)

		// Fig. 11: F1 peaks at the tuned τ; runtime grows with τ.
		add("fig11-"+ds+": F1 peaks at the tuned τ", peakAt(col("fig11-"+ds, 1), at("fig11")), 0)
		add("fig11-"+ds+": runtime grows with τ", halves(secs("fig11-"+ds, 2))-1, timeNoise)

		// Fig. 12: both precision and recall decay as the error rate grows;
		// #dag grows.
		p, r = col("fig12-"+ds, 1), col("fig12-"+ds, 2)
		add("fig12-"+ds+": precision and recall decay", min(drop(p), drop(r)), 0)
		add("fig12-"+ds+": #dag grows", minStep(col("fig12-"+ds, 3)), 0)

		// Fig. 13: mild decay (precision −≈10 %, recall −≈1 % over the
		// sweep); RSC is robust.
		p, r = col("fig13-"+ds, 1), col("fig13-"+ds, 2)
		add("fig13-"+ds+": precision −≈10% over the sweep", paperBand-math.Abs(drop(p)-0.10), 0)
		add("fig13-"+ds+": recall −≈1% over the sweep", paperBand-math.Abs(drop(r)-0.01), 0)

		// Fig. 14: no significant fluctuation; FSCR cleans what AGP/RSC
		// missed.
		p, r = col("fig14-"+ds, 1), col("fig14-"+ds, 2)
		add("fig14-"+ds+": no significant fluctuation", mildBand-max(spread(p), spread(r)), 0)
		add("fig14-"+ds+": FSCR recall at least RSC's", slices.Min(sub(r, col("fig13-"+ds, 2))), 0)
	}

	// Fig. 7: HoloClean rises with Rret on sparse CAR (all-typos worst),
	// flatter on dense HAI.
	car, hai := col("fig7-car", 2), col("fig7-hai", 2)
	add("fig7-car: HoloClean rises with Rret", car[len(car)-1]-car[0], 0)
	add("fig7-car: HoloClean worst on all typos", slices.Min(car[1:])-car[0], 0)
	add("fig7-hai: HoloClean flatter than on CAR", spread(car)-spread(hai), 0)

	// Fig. 15: F1 stays high with < 3 % drop across the sweep; runtime grows
	// with error rate.
	for _, ds := range []string{"hai", "tpch"} {
		ts := secs("fig15-"+ds, 2)
		add("fig15-"+ds+": F1 drops under 3% over the sweep", 0.03-drop(col("fig15-"+ds, 1)), 0)
		add("fig15-"+ds+": runtime grows with error rate", ts[len(ts)-1]/ts[0]-1, timeNoise)
	}

	// Table 5: Levenshtein 0.968/0.970 vs cosine 0.730/0.947 on CAR/HAI —
	// Levenshtein wins, much larger gap on CAR.
	lev, cos := col("table5", 1), col("table5", 2)
	paper := map[string][2]float64{"car": {0.968, 0.730}, "hai": {0.970, 0.947}}
	for i, ds := range []string{"car", "hai"} {
		if reps["table5"].Rows[i][0] != ds {
			t.Fatalf("table5 row %d is %q, want %q", i, reps["table5"].Rows[i][0], ds)
		}
		add("table5-"+ds+": Levenshtein wins", lev[i]-cos[i], 0)
		add("table5-"+ds+": Levenshtein F1 near the paper's", paperBand-math.Abs(lev[i]-paper[ds][0]), 0)
		add("table5-"+ds+": cosine F1 near the paper's", paperBand-math.Abs(cos[i]-paper[ds][1]), 0)
	}
	add("table5: larger gap on CAR", (lev[0]-cos[0])-(lev[1]-cos[1]), 0)

	// Table 6: 50,759 s → 7,578 s from 2 → 10 workers (≈ 6.7×); near-linear
	// decay with slight accuracy fluctuation. Half the paper's speedup is
	// the band.
	times := secs("table6", 1)
	add("table6: speedup 2 → 10 workers near the paper's", times[0]/times[len(times)-1]-6.7/2, timeNoise)
	add("table6: slight accuracy fluctuation", flatBand-spread(col("table6", 2)), 0)
	return out
}

// column parses column c of every row of r as a number.
func column(t *testing.T, r *Report, c int) []float64 {
	t.Helper()
	out := make([]float64, len(r.Rows))
	for i, row := range r.Rows {
		out[i] = parseF(t, row[c])
	}
	return out
}

// seconds parses column c of every row of r as a duration, in seconds.
func seconds(t *testing.T, r *Report, c int) []float64 {
	t.Helper()
	out := make([]float64, len(r.Rows))
	for i, row := range r.Rows {
		d, err := time.ParseDuration(row[c])
		if err != nil {
			t.Fatalf("%s: parse %q: %v", r.Name, row[c], err)
		}
		out[i] = max(d.Seconds(), 1e-3) // rounded to the millisecond
	}
	return out
}

// tauRow is the row of τ in a τ sweep.
func tauRow(t *testing.T, r *Report, tau int) int {
	t.Helper()
	i := slices.IndexFunc(r.Rows, func(row []string) bool { return row[0] == fmt.Sprint(tau) })
	if i < 0 {
		t.Fatalf("%s has no row for τ = %d", r.Name, tau)
	}
	return i
}

func sub(a, b []float64) []float64 {
	out := make([]float64, len(a))
	for i := range a {
		out[i] = a[i] - b[i]
	}
	return out
}

func ratio(a, b []float64) []float64 {
	out := make([]float64, len(a))
	for i := range a {
		out[i] = a[i] / b[i]
	}
	return out
}

// drop is how far a series fell from its first point to its last.
func drop(v []float64) float64 { return v[0] - v[len(v)-1] }

// mildDecline: the series ends no higher than it starts, and at most
// mildBand lower.
func mildDecline(v []float64) float64 { return min(drop(v), mildBand-drop(v)) }

func spread(v []float64) float64 { return slices.Max(v) - slices.Min(v) }

// minStep is the smallest rise between neighbours: ≥ 0 when v never falls.
func minStep(v []float64) float64 {
	step := math.Inf(1)
	for i := 1; i < len(v); i++ {
		step = min(step, v[i]-v[i-1])
	}
	return step
}

// interiorPeak: how far the best interior point is above both ends.
func interiorPeak(v []float64) float64 {
	return slices.Max(v[1:len(v)-1]) - max(v[0], v[len(v)-1])
}

// peakAt: how far v[at] is above every other point.
func peakAt(v []float64, at int) float64 {
	rest := slices.Delete(slices.Clone(v), at, at+1)
	return v[at] - slices.Max(rest)
}

// halves: the upper half of a sweep's times over its lower half.
func halves(v []float64) float64 {
	var lo, hi float64
	for i, x := range v {
		if i < len(v)/2 {
			lo += x
		} else {
			hi += x
		}
	}
	return hi / lo
}
