package bench

import (
	"strconv"
	"strings"
	"testing"
)

func TestRegistryComplete(t *testing.T) {
	// Every figure and table of §7 must be present.
	want := []string{
		"fig6-car", "fig6-hai", "fig7-car", "fig7-hai",
		"fig8-car", "fig8-hai", "fig9-car", "fig9-hai",
		"fig10-car", "fig10-hai", "fig11-car", "fig11-hai",
		"fig12-car", "fig12-hai", "fig13-car", "fig13-hai",
		"fig14-car", "fig14-hai", "fig15-hai", "fig15-tpch",
		"table5", "table6",
		"ablation-minimality", "ablation-mergecap", "ablation-weightmerge",
		"ablation-planner",
	}
	for _, name := range want {
		if _, ok := Registry[name]; !ok {
			t.Errorf("experiment %q missing from registry", name)
		}
	}
	if len(Names()) != len(want) {
		t.Errorf("registry has %d entries, want %d", len(Names()), len(want))
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	if _, err := Run("nope", Small); err == nil {
		t.Error("unknown experiment should fail")
	}
}

func TestScaleByName(t *testing.T) {
	for _, name := range []string{"", "small", "default", "large"} {
		if _, err := ScaleByName(name); err != nil {
			t.Errorf("ScaleByName(%q): %v", name, err)
		}
	}
	if _, err := ScaleByName("huge"); err == nil {
		t.Error("unknown scale should fail")
	}
}

func TestGenerateDatasets(t *testing.T) {
	for _, name := range []string{"hai", "car", "tpch"} {
		ds, err := Small.Generate(name)
		if err != nil {
			t.Fatalf("Generate(%s): %v", name, err)
		}
		if ds.Truth.Len() == 0 || len(ds.Rules) == 0 || ds.Tau < 1 {
			t.Errorf("%s dataset incomplete: %d tuples, %d rules, tau %d", name, ds.Truth.Len(), len(ds.Rules), ds.Tau)
		}
	}
	if _, err := Small.Generate("nope"); err == nil {
		t.Error("unknown dataset should fail")
	}
}

func TestReportRendering(t *testing.T) {
	r := &Report{Name: "x", Title: "t", Columns: []string{"a", "bb"}}
	r.AddRow("1", "2")
	r.Notes = append(r.Notes, "a note")
	s := r.String()
	for _, want := range []string{"x — t", "a", "bb", "note: a note"} {
		if !strings.Contains(s, want) {
			t.Errorf("report missing %q:\n%s", want, s)
		}
	}
}

// parseF extracts a float cell.
func parseF(t *testing.T, s string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("parse %q: %v", s, err)
	}
	return v
}

// TestFig6ShapeCAR asserts the paper's headline claim at small scale:
// MLNClean's F1 dominates HoloClean's at every error rate (Fig. 6a).
func TestFig6ShapeCAR(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment run")
	}
	r, err := Fig6(Small, "car")
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != len(ErrorSweep) {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	for _, row := range r.Rows {
		mc, hc := parseF(t, row[1]), parseF(t, row[2])
		if mc <= hc {
			t.Errorf("at %s: MLNClean %.3f ≤ HoloClean %.3f", row[0], mc, hc)
		}
	}
	// Accuracy declines as errors grow (mildly): first point ≥ last point.
	if first, last := parseF(t, r.Rows[0][1]), parseF(t, r.Rows[len(r.Rows)-1][1]); first < last {
		t.Errorf("F1 should not improve with more errors: %.3f → %.3f", first, last)
	}
}

// TestFig7ShapeCAR asserts Fig. 7(a)'s direction: the baseline's worst
// point is all-typos; MLNClean dominates everywhere.
func TestFig7ShapeCAR(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment run")
	}
	r, err := Fig7(Small, "car")
	if err != nil {
		t.Fatal(err)
	}
	firstHC := parseF(t, r.Rows[0][2])
	lastHC := parseF(t, r.Rows[len(r.Rows)-1][2])
	if firstHC > lastHC {
		t.Errorf("HoloClean should do worse on all-typos (%.3f) than all-replacements (%.3f)", firstHC, lastHC)
	}
	for _, row := range r.Rows {
		if parseF(t, row[1]) <= parseF(t, row[2]) {
			t.Errorf("MLNClean not dominant at Rret=%s", row[0])
		}
	}
}

// TestFig8ShapeHAI asserts the τ study's endpoints: τ=0 detects nothing
// (#dag = 0) and the tuned τ beats both extremes on precision.
func TestFig8ShapeHAI(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment run")
	}
	r, err := Fig8(Small, "hai")
	if err != nil {
		t.Fatal(err)
	}
	if dag := r.Rows[0][3]; dag != "0" {
		t.Errorf("τ=0 #dag = %s, want 0", dag)
	}
	// #dag grows with τ.
	prev := -1
	for _, row := range r.Rows {
		dag, _ := strconv.Atoi(row[3])
		if dag < prev {
			t.Errorf("#dag not monotone: %d after %d", dag, prev)
		}
		prev = dag
	}
}

// TestTable5Shape asserts Levenshtein ≥ cosine on both datasets, with the
// bigger gap on CAR (Table 5).
func TestTable5Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment run")
	}
	r, err := Table5(Small)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range r.Rows {
		lev, cos := parseF(t, row[1]), parseF(t, row[2])
		if lev < cos {
			t.Errorf("%s: cosine (%.3f) beat Levenshtein (%.3f)", row[0], cos, lev)
		}
		t.Logf("%s: Levenshtein %.3f vs cosine %.3f", row[0], lev, cos)
	}
	// The paper's CAR gap (0.24) needs full-scale string diversity; at the
	// small CI scale we only assert the ordering.
}

// TestAblationMinimalityShape: the minimality/observation prior must not
// hurt, and should help on at least one dataset.
func TestAblationMinimalityShape(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment run")
	}
	r, err := AblationMinimality(Small)
	if err != nil {
		t.Fatal(err)
	}
	helped := false
	for _, row := range r.Rows {
		with, without := parseF(t, row[1]), parseF(t, row[2])
		if with+0.02 < without {
			t.Errorf("%s: prior hurt F1: %.3f vs %.3f", row[0], with, without)
		}
		if with > without+0.02 {
			helped = true
		}
	}
	if !helped {
		t.Error("prior helped nowhere — ablation uninformative")
	}
}
