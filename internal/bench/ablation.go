package bench

import (
	"context"
	"time"

	"mlnclean/internal/core"
	"mlnclean/internal/distributed"
	"mlnclean/internal/eval"
	"mlnclean/internal/index"
)

// The ablation experiments quantify the documented interpretation choices
// this reproduction adds on top of the paper's letter (README › Deviations
// from the paper): the FSCR minimality/observation prior, the AGP
// merge-distance cap, and the Eq. 6 weight merge (the last is the paper's
// own mechanism, ablated to show why it exists).

// AblationMinimality compares FSCR with and without the minimality /
// observation prior (ε = 0.05 vs disabled) on CAR and HAI at 5% errors.
func AblationMinimality(sc Scale) (*Report, error) {
	r := &Report{
		Name:    "ablation-minimality",
		Title:   "Ablation: FSCR minimality/observation prior (5% errors)",
		Columns: []string{"dataset", "F1 with prior", "F1 without prior"},
	}
	for _, dsName := range []string{"car", "hai"} {
		ds, err := sc.Generate(dsName)
		if err != nil {
			return nil, err
		}
		inj, err := injectFor(ds, sc, 0.05, 0.5)
		if err != nil {
			return nil, err
		}
		with, err := core.Clean(inj.Dirty, ds.Rules, core.Options{Tau: ds.Tau})
		if err != nil {
			return nil, err
		}
		without, err := core.Clean(inj.Dirty, ds.Rules, core.Options{Tau: ds.Tau, MinimalityPrior: 0, MinimalityPriorSet: true})
		if err != nil {
			return nil, err
		}
		qw := eval.RepairQuality(ds.Truth, inj.Dirty, with.Repaired)
		qo := eval.RepairQuality(ds.Truth, inj.Dirty, without.Repaired)
		r.AddRow(dsName, f3(qw.F1), f3(qo.F1))
	}
	r.Notes = append(r.Notes,
		"without the prior, Eq. 5 alone decides identity-steal conflicts near-randomly (README › Deviations from the paper)")
	return r, nil
}

// AblationMergeCap compares AGP with the relative merge-distance cap (0.4)
// against the paper's unconditional merge (cap ≥ 1).
func AblationMergeCap(sc Scale) (*Report, error) {
	r := &Report{
		Name:    "ablation-mergecap",
		Title:   "Ablation: AGP merge-distance cap (5% errors)",
		Columns: []string{"dataset", "F1 cap=0.4", "F1 unconditional"},
	}
	for _, dsName := range []string{"car", "hai"} {
		ds, err := sc.Generate(dsName)
		if err != nil {
			return nil, err
		}
		inj, err := injectFor(ds, sc, 0.05, 0.5)
		if err != nil {
			return nil, err
		}
		capped, err := core.Clean(inj.Dirty, ds.Rules, core.Options{Tau: ds.Tau})
		if err != nil {
			return nil, err
		}
		uncond, err := core.Clean(inj.Dirty, ds.Rules, core.Options{Tau: ds.Tau, MergeCapRatio: 10})
		if err != nil {
			return nil, err
		}
		qc := eval.RepairQuality(ds.Truth, inj.Dirty, capped.Repaired)
		qu := eval.RepairQuality(ds.Truth, inj.Dirty, uncond.Repaired)
		r.AddRow(dsName, f3(qc.F1), f3(qu.F1))
	}
	r.Notes = append(r.Notes,
		"the cap matters most when groups fragment (distributed partitions); stand-alone deltas are small")
	return r, nil
}

// AblationWeightMerge compares distributed cleaning with and without the
// Eq. 6 cross-worker weight adjustment.
func AblationWeightMerge(sc Scale) (*Report, error) {
	ds, err := sc.Generate("hai")
	if err != nil {
		return nil, err
	}
	inj, err := injectFor(ds, sc, 0.05, 0.5)
	if err != nil {
		return nil, err
	}
	r := &Report{
		Name:    "ablation-weightmerge",
		Title:   "Ablation: Eq. 6 cross-worker weight merge (HAI, 5% errors)",
		Columns: []string{"variant", "F1", "cluster time"},
	}
	for _, skip := range []bool{false, true} {
		res, err := distributed.Clean(inj.Dirty, ds.Rules, distributed.Options{
			Workers:         sc.Workers,
			Seed:            sc.Seed,
			Core:            core.Options{Tau: ds.Tau},
			SkipWeightMerge: skip,
		})
		if err != nil {
			return nil, err
		}
		q := eval.RepairQuality(ds.Truth, inj.Dirty, res.Repaired)
		label := "with Eq. 6"
		if skip {
			label = "without Eq. 6"
		}
		r.AddRow(label, f3(q.F1), res.ClusterTime().Round(time.Millisecond).String())
	}
	r.Notes = append(r.Notes,
		"per-part weights are unreliable for fragmented groups (§6); Eq. 6 pools their support")
	return r, nil
}

// AblationPlanner compares stage I (index construction + AGP, the phases
// whose scan order the selectivity planner controls) over a planned and a
// fixed-order index build, and prints the plan. That the two builds clean
// identically is asserted by tests, not here (see the closing note).
func AblationPlanner(sc Scale) (*Report, error) {
	r := &Report{
		Name:    "ablation-planner",
		Title:   "Ablation: selectivity-driven rule planner (5% errors)",
		Columns: []string{"dataset", "stage-I planned", "stage-I fixed", "plan"},
	}
	const reps = 3
	for _, dsName := range []string{"car", "hai"} {
		ds, err := sc.Generate(dsName)
		if err != nil {
			return nil, err
		}
		inj, err := injectFor(ds, sc, 0.05, 0.5)
		if err != nil {
			return nil, err
		}
		// stageI returns the mean build+AGP time and the last build's index.
		stageI := func(fixed bool) (time.Duration, *index.Index, error) {
			opts := core.Options{Tau: ds.Tau}
			var (
				total time.Duration
				ix    *index.Index
			)
			for i := 0; i < reps; i++ {
				t0 := time.Now()
				var err error
				ix, err = index.BuildConfigured(inj.Dirty, ds.Rules, index.BuildConfig{FixedOrder: fixed})
				if err != nil {
					return 0, nil, err
				}
				var st core.Stats
				if err := core.StageAGP(context.Background(), ix, opts, &st); err != nil {
					return 0, nil, err
				}
				total += time.Since(t0)
			}
			return total / reps, ix, nil
		}
		planned, ix, err := stageI(false)
		if err != nil {
			return nil, err
		}
		fixed, _, err := stageI(true)
		if err != nil {
			return nil, err
		}
		scans := ""
		for i, c := range ix.Plan().Choices() {
			if i > 0 {
				scans += " "
			}
			scans += c.Scan
		}
		r.AddRow(dsName, planned.Round(time.Millisecond).String(), fixed.Round(time.Millisecond).String(), scans)
	}
	r.Notes = append(r.Notes,
		"planned == fixed-order is asserted by index.TestPlannedBuildEquivalence (block contents) and core.TestFusedStagedParity (repairs, Stats and traces end to end)")
	return r, nil
}
