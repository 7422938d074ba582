package bench

import (
	"fmt"
	"time"
)

// Fig6 reproduces Fig. 6 for one dataset ("car" or "hai"): MLNClean vs
// HoloClean F1 and runtime across error rates 5–30%.
func Fig6(sc Scale, dsName string) (*Report, error) {
	ds, err := sc.Generate(dsName)
	if err != nil {
		return nil, err
	}
	r := &Report{
		Name:    "fig6-" + dsName,
		Title:   fmt.Sprintf("Fig. 6: F1 and runtime vs error rate (%s, %d tuples)", dsName, ds.Truth.Len()),
		Columns: []string{"error%", "MLNClean F1", "HoloClean F1", "MLNClean time", "HoloClean time"},
	}
	for _, rate := range ErrorSweep {
		mc, err := RunMLNClean(ds, sc, rate, 0.5, -1, nil)
		if err != nil {
			return nil, err
		}
		hc, err := RunHoloClean(ds, sc, rate, 0.5)
		if err != nil {
			return nil, err
		}
		r.AddRow(pct(rate), f3(mc.Quality.F1), f3(hc.Quality.F1),
			mc.Duration.Round(time.Millisecond).String(),
			hc.Duration.Round(time.Millisecond).String())
	}
	r.Notes = append(r.Notes,
		"paper shape: MLNClean F1 above HoloClean at every rate; both decline mildly; MLNClean faster",
		"MLNClean time covers detection+repair; HoloClean time covers repair only (its detection is the oracle), as in §7.2")
	return r, nil
}

// Fig7 reproduces Fig. 7 for one dataset: F1 vs the replacement-error ratio
// Rret at a fixed 5% total error rate.
func Fig7(sc Scale, dsName string) (*Report, error) {
	ds, err := sc.Generate(dsName)
	if err != nil {
		return nil, err
	}
	r := &Report{
		Name:    "fig7-" + dsName,
		Title:   fmt.Sprintf("Fig. 7: F1 vs replacement-error ratio Rret (%s, 5%% errors)", dsName),
		Columns: []string{"Rret", "MLNClean F1", "HoloClean F1"},
	}
	for _, rret := range RretSweep {
		mc, err := RunMLNClean(ds, sc, 0.05, rret, -1, nil)
		if err != nil {
			return nil, err
		}
		hc, err := RunHoloClean(ds, sc, 0.05, rret)
		if err != nil {
			return nil, err
		}
		r.AddRow(pct(rret), f3(mc.Quality.F1), f3(hc.Quality.F1))
	}
	r.Notes = append(r.Notes,
		"paper shape: MLNClean flat in Rret; HoloClean rises with Rret on sparse CAR (all-typos worst), flatter on dense HAI")
	return r, nil
}

// tauSweep returns the τ axis for a dataset at this scale: the paper sweeps
// 0–5 on CAR and 0–50 on HAI; group sizes scale with the dataset, so the
// sweep tops out around 4–5× the tuned τ.
func tauSweep(ds *Dataset) []int {
	max := ds.Tau * 5
	if max < 5 {
		max = 5
	}
	var out []int
	step := max / 5
	if step < 1 {
		step = 1
	}
	for t := 0; t <= max; t += step {
		out = append(out, t)
	}
	return out
}

// Fig8 reproduces Fig. 8: AGP precision/recall and #dag vs τ.
func Fig8(sc Scale, dsName string) (*Report, error) {
	return tauComponentReport(sc, dsName, "fig8", "AGP accuracy vs threshold τ",
		[]string{"tau", "Precision-A", "Recall-A", "#dag"},
		func(res RunResult) []string {
			return []string{f3(res.AGP.Precision), f3(res.AGP.Recall), fmt.Sprint(res.AGP.DetectedPieces)}
		},
		"paper shape: accuracy peaks at an intermediate τ (τ=0 detects nothing), #dag grows with τ, collapse at large τ")
}

// Fig9 reproduces Fig. 9: RSC precision/recall vs τ.
func Fig9(sc Scale, dsName string) (*Report, error) {
	return tauComponentReport(sc, dsName, "fig9", "RSC accuracy vs threshold τ",
		[]string{"tau", "Precision-R", "Recall-R"},
		func(res RunResult) []string {
			return []string{f3(res.RSC.Precision), f3(res.RSC.Recall)}
		},
		"paper shape: peak at the tuned τ, deteriorating on both sides; precision ≥ recall")
}

// Fig10 reproduces Fig. 10: FSCR precision/recall vs τ.
func Fig10(sc Scale, dsName string) (*Report, error) {
	return tauComponentReport(sc, dsName, "fig10", "FSCR accuracy vs threshold τ",
		[]string{"tau", "Precision-F", "Recall-F"},
		func(res RunResult) []string {
			return []string{f3(res.FSCR.Precision), f3(res.FSCR.Recall)}
		},
		"paper shape: precision stays high across τ; recall collapses once τ passes the optimum")
}

// Fig11 reproduces Fig. 11: overall MLNClean F1 and runtime vs τ.
func Fig11(sc Scale, dsName string) (*Report, error) {
	return tauComponentReport(sc, dsName, "fig11", "MLNClean F1 and runtime vs threshold τ",
		[]string{"tau", "F1", "time"},
		func(res RunResult) []string {
			return []string{f3(res.Quality.F1), res.Duration.Round(time.Millisecond).String()}
		},
		"paper shape: F1 peaks at the tuned τ; runtime grows with τ (more detected abnormal groups)")
}

func tauComponentReport(sc Scale, dsName, figName, title string, cols []string,
	row func(RunResult) []string, note string) (*Report, error) {
	ds, err := sc.Generate(dsName)
	if err != nil {
		return nil, err
	}
	r := &Report{
		Name:    figName + "-" + dsName,
		Title:   fmt.Sprintf("%s: %s (%s, 5%% errors)", figLabel(figName), title, dsName),
		Columns: cols,
	}
	for _, tau := range tauSweep(ds) {
		res, err := RunMLNClean(ds, sc, 0.05, 0.5, tau, nil)
		if err != nil {
			return nil, err
		}
		r.AddRow(append([]string{fmt.Sprint(tau)}, row(res)...)...)
	}
	r.Notes = append(r.Notes, note,
		fmt.Sprintf("tuned τ at this scale is %d (the paper's τ=1 on CAR / τ=10 on HAI correspond to its larger group sizes)", ds.Tau))
	return r, nil
}

func figLabel(name string) string {
	switch name {
	case "fig8":
		return "Fig. 8"
	case "fig9":
		return "Fig. 9"
	case "fig10":
		return "Fig. 10"
	case "fig11":
		return "Fig. 11"
	}
	return name
}

// Fig12 reproduces Fig. 12: AGP accuracy and #dag vs error rate.
func Fig12(sc Scale, dsName string) (*Report, error) {
	return errComponentReport(sc, dsName, "fig12", "AGP accuracy vs error rate",
		[]string{"error%", "Precision-A", "Recall-A", "#dag"},
		func(res RunResult) []string {
			return []string{f3(res.AGP.Precision), f3(res.AGP.Recall), fmt.Sprint(res.AGP.DetectedPieces)}
		},
		"paper shape: both precision and recall decay as the error rate grows; #dag grows")
}

// Fig13 reproduces Fig. 13: RSC accuracy vs error rate.
func Fig13(sc Scale, dsName string) (*Report, error) {
	return errComponentReport(sc, dsName, "fig13", "RSC accuracy vs error rate",
		[]string{"error%", "Precision-R", "Recall-R"},
		func(res RunResult) []string {
			return []string{f3(res.RSC.Precision), f3(res.RSC.Recall)}
		},
		"paper shape: mild decay (precision −≈10%, recall −≈1% over the sweep); RSC is robust")
}

// Fig14 reproduces Fig. 14: FSCR accuracy vs error rate.
func Fig14(sc Scale, dsName string) (*Report, error) {
	return errComponentReport(sc, dsName, "fig14", "FSCR accuracy vs error rate",
		[]string{"error%", "Precision-F", "Recall-F"},
		func(res RunResult) []string {
			return []string{f3(res.FSCR.Precision), f3(res.FSCR.Recall)}
		},
		"paper shape: no significant fluctuation; FSCR cleans what AGP/RSC missed")
}

func errComponentReport(sc Scale, dsName, figName, title string, cols []string,
	row func(RunResult) []string, note string) (*Report, error) {
	ds, err := sc.Generate(dsName)
	if err != nil {
		return nil, err
	}
	r := &Report{
		Name:    figName + "-" + dsName,
		Title:   fmt.Sprintf("%s: %s (%s)", figLabel2(figName), title, dsName),
		Columns: cols,
	}
	for _, rate := range ErrorSweep {
		res, err := RunMLNClean(ds, sc, rate, 0.5, -1, nil)
		if err != nil {
			return nil, err
		}
		r.AddRow(append([]string{pct(rate)}, row(res)...)...)
	}
	r.Notes = append(r.Notes, note)
	return r, nil
}

func figLabel2(name string) string {
	switch name {
	case "fig12":
		return "Fig. 12"
	case "fig13":
		return "Fig. 13"
	case "fig14":
		return "Fig. 14"
	}
	return name
}

// Fig15 reproduces Fig. 15: distributed MLNClean F1 and modeled cluster
// time vs error rate, on HAI or TPC-H.
func Fig15(sc Scale, dsName string) (*Report, error) {
	ds, err := sc.Generate(dsName)
	if err != nil {
		return nil, err
	}
	r := &Report{
		Name:    "fig15-" + dsName,
		Title:   fmt.Sprintf("Fig. 15: distributed MLNClean vs error rate (%s, %d workers)", dsName, sc.Workers),
		Columns: []string{"error%", "F1", "cluster time"},
	}
	for _, rate := range ErrorSweep {
		res, err := RunDistributed(ds, sc, rate, sc.Workers)
		if err != nil {
			return nil, err
		}
		r.AddRow(pct(rate), f3(res.Quality.F1), res.Duration.Round(time.Millisecond).String())
	}
	r.Notes = append(r.Notes,
		"paper shape: F1 stays high with <3% drop across the sweep; runtime grows with error rate",
		"cluster time = partition + max(worker) + gather (ideal-cluster model; see README › Deviations from the paper)")
	return r, nil
}
