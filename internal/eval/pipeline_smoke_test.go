package eval

import (
	"fmt"
	"testing"

	"mlnclean/internal/core"
	"mlnclean/internal/datagen"
	"mlnclean/internal/errgen"
)

// TestPipelineSmokeHAI runs the full loop — generate, corrupt, clean,
// score — on a small HAI instance and checks the cleaner actually cleans.
func TestPipelineSmokeHAI(t *testing.T) {
	truth, rs, err := datagen.HAI(datagen.HAIConfig{Providers: 120, Measures: 8, Seed: 7})
	if err != nil {
		t.Fatalf("HAI: %v", err)
	}
	inj, err := errgen.Inject(truth, rs, errgen.Config{Rate: 0.05, ReplacementRatio: 0.5, Seed: 11})
	if err != nil {
		t.Fatalf("Inject: %v", err)
	}
	tr := &core.Trace{}
	res, err := core.Clean(inj.Dirty, rs, core.Options{Tau: 2, Trace: tr})
	if err != nil {
		t.Fatalf("Clean: %v", err)
	}
	q := RepairQuality(truth, inj.Dirty, res.Repaired)
	t.Logf("HAI 5%%: P=%.3f R=%.3f F1=%.3f (correct=%d updated=%d erroneous=%d)",
		q.Precision, q.Recall, q.F1, q.Correct, q.Updated, q.Erroneous)
	if q.F1 < 0.80 {
		t.Errorf("HAI F1 = %.3f, want ≥ 0.80", q.F1)
	}

	agp, err := AGPQualityFromTrace(tr, truth, inj.Dirty, rs)
	if err != nil {
		t.Fatalf("AGPQuality: %v", err)
	}
	rsc, err := RSCQualityFromTrace(tr, truth, inj.Dirty, rs)
	if err != nil {
		t.Fatalf("RSCQuality: %v", err)
	}
	fscr := FSCRQualityFromTrace(tr, truth, inj.Dirty, res.Repaired)
	t.Logf("AGP: P=%.3f R=%.3f detected=%d real=%d #dag=%d", agp.Precision, agp.Recall, agp.Detected, agp.Real, agp.DetectedPieces)
	t.Logf("RSC: P=%.3f R=%.3f repaired=%d erroneous=%d", rsc.Precision, rsc.Recall, rsc.Repaired, rsc.Erroneous)
	t.Logf("FSCR: P=%.3f R=%.3f", fscr.Precision, fscr.Recall)
}

// TestPipelineSmokeCAR does the same on the sparse CAR dataset.
func TestPipelineSmokeCAR(t *testing.T) {
	truth, rs, err := datagen.CAR(datagen.CARConfig{Rows: 2500, Seed: 3})
	if err != nil {
		t.Fatalf("CAR: %v", err)
	}
	inj, err := errgen.Inject(truth, rs, errgen.Config{Rate: 0.05, ReplacementRatio: 0.5, Seed: 5})
	if err != nil {
		t.Fatalf("Inject: %v", err)
	}
	res, err := core.Clean(inj.Dirty, rs, core.Options{Tau: 1})
	if err != nil {
		t.Fatalf("Clean: %v", err)
	}
	q := RepairQuality(truth, inj.Dirty, res.Repaired)
	t.Logf("CAR 5%%: P=%.3f R=%.3f F1=%.3f (correct=%d updated=%d erroneous=%d)",
		q.Precision, q.Recall, q.F1, q.Correct, q.Updated, q.Erroneous)
	if q.F1 < 0.60 {
		t.Errorf("CAR F1 = %.3f, want ≥ 0.60", q.F1)
	}
}

// TestComponentQualityPinned pins the §7.3 component metrics of one traced
// HAI clean (15 % errors, so AGP merges and RSC rewrites abound). They are
// computed from the trace alone, so they move only if the AGP, RSC or FSCR
// records a traced run produces do — trace records are built only when a
// trace is set, and must stay exactly what they were.
func TestComponentQualityPinned(t *testing.T) {
	truth, rs, err := datagen.HAI(datagen.HAIConfig{Providers: 120, Measures: 8, Seed: 7})
	if err != nil {
		t.Fatalf("HAI: %v", err)
	}
	inj, err := errgen.Inject(truth, rs, errgen.Config{Rate: 0.15, ReplacementRatio: 0.5, Seed: 11})
	if err != nil {
		t.Fatalf("Inject: %v", err)
	}
	tr := &core.Trace{}
	res, err := core.Clean(inj.Dirty, rs, core.Options{Tau: 2, Trace: tr})
	if err != nil {
		t.Fatalf("Clean: %v", err)
	}
	agp, err := AGPQualityFromTrace(tr, truth, inj.Dirty, rs)
	if err != nil {
		t.Fatal(err)
	}
	rsc, err := RSCQualityFromTrace(tr, truth, inj.Dirty, rs)
	if err != nil {
		t.Fatal(err)
	}
	fscr := FSCRQualityFromTrace(tr, truth, inj.Dirty, res.Repaired)
	got := fmt.Sprintf("AGP %+v\nRSC %+v\nFSCR %+v\nentries %d/%d/%d", agp, rsc, fscr, len(tr.AGP), len(tr.RSC), len(tr.FSCR))
	const want = `AGP {Precision:0.9351230425055929 Recall:0.9146608315098468 Detected:447 Correct:418 Real:457 DetectedPieces:457}
RSC {Precision:0.6981566820276498 Recall:0.6913861950941244 Repaired:1736 Correct:1212 Erroneous:1753}
FSCR {Precision:0.6920415224913494 Recall:0.7630208333333334 ConflictCorrect:200 ConflictErroneous:289 Correct:879 Erroneous:1152}
entries 447/1736/960`
	if got != want {
		t.Errorf("component metrics moved:\ngot\n%s\nwant\n%s", got, want)
	}
}
