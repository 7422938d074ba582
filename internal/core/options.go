// Package core implements MLNClean's two-stage cleaning pipeline (§4–§5):
// MLN index construction, Abnormal Group Processing (AGP), reliability-score
// cleaning (RSC) on top of per-block MLN weight learning, fusion-score
// conflict resolution (FSCR), and duplicate elimination.
package core

import "mlnclean/internal/distance"

// Options configures a cleaning run.
type Options struct {
	// Tau is the AGP threshold τ: groups with tuple count ≤ Tau are treated
	// as abnormal (§5.1.1). The paper tunes τ per dataset (1 on CAR, 10 on
	// HAI). Default 1.
	Tau int
	// TauSet, when true, honours Tau even if it is zero (τ=0 disables AGP,
	// exercised by Fig. 8). When false and Tau==0 the default of 1 applies.
	TauSet bool
	// Metric is the string distance used by AGP and RSC. Default Levenshtein
	// (§7.1); Cosine reproduces Table 5.
	Metric distance.Metric
	// MergeCapRatio bounds AGP merges: an abnormal group only merges into
	// its nearest normal group when their γ⋆ distance is at most this
	// fraction of the γ⋆ value length. Error-born groups sit very close to
	// their origin (a typo is one edit, ~5% of a key), while small-but-clean
	// groups — common when the distributed partitioner fragments a dataset —
	// are far from every other group (~40%+). The paper merges
	// unconditionally and flags abnormal-group identification as its main
	// future work (§5.1.1, §8); the cap is our answer, ablated by the
	// ablation-mergecap experiment. Default 0.4; values ≥ 1 restore the
	// paper's unconditional merge.
	MergeCapRatio float64
	// Parallelism is how many goroutines stage I and FSCR each run on:
	// stage I's pool workers, which clean one block each and, with no block
	// of their own, help the blocks still running, and the FSCR goroutines
	// that claim chunks of tuples. Output does not depend on it. Default:
	// number of CPUs.
	Parallelism int
	// MinimalityPrior is the assumed prior cell-error rate ε used by FSCR to
	// weight candidate fusions by the likelihood of the observed tuple:
	// every cell a fusion changes multiplies its score by ε/(1−ε). This is
	// the principle of minimality the paper bakes into the reliability score
	// (§1, Def. 2) carried into stage II; it deterministically resolves
	// "identity steal" ties where the fusion score alone is ambiguous
	// (see README › Deviations from the paper). Set to 0.5 to disable (a
	// change then costs nothing); default 0.05, the enterprise error rate
	// the paper cites (§7.1).
	MinimalityPrior float64
	// KeepDuplicates skips the final duplicate-elimination step.
	KeepDuplicates bool
	// Trace, when non-nil, collects the per-phase decisions needed by the
	// component metrics of §7.3 (Precision/Recall-A/R/F, #dag).
	Trace *Trace
}

func (o Options) withDefaults() Options {
	if o.Tau <= 0 && !o.TauSet {
		o.Tau = 1
	}
	if o.Tau < 0 {
		o.Tau = 0
	}
	if o.Metric == nil {
		o.Metric = distance.Levenshtein{}
	}
	if o.MergeCapRatio <= 0 {
		o.MergeCapRatio = 0.4
	}
	if o.MinimalityPrior <= 0 {
		o.MinimalityPrior = 0.05
	}
	if o.MinimalityPrior > 0.5 {
		o.MinimalityPrior = 0.5
	}
	return o
}

// changePenalty is the multiplicative cost of one changed cell under the
// minimality prior: ε/(1−ε). A prior of 0.5 disables minimality (factor 1
// exactly), as does an unset prior on options that skipped withDefaults.
func (o Options) changePenalty() float64 {
	if o.MinimalityPrior <= 0 {
		return 1
	}
	return o.MinimalityPrior / (1 - o.MinimalityPrior)
}

// Stats summarizes a cleaning run.
type Stats struct {
	Tuples            int
	Blocks            int
	Groups            int
	AbnormalGroups    int
	AbnormalPieces    int // #dag: γs inside detected abnormal groups
	AGPPromotions     int // abnormal groups promoted to normal in blocks with no normal group
	RSCRepairs        int // pieces rewritten by RSC
	FSCRCellChanges   int // cells changed during fusion (vs dirty input)
	FusionFailures    int // tuples whose every fusion order conflicted out
	FusionTruncated   int // tuples whose fusion search hit maxFusionStates
	DuplicatesRemoved int
	// LearnIterations is, per block, the most Newton steps on t that any
	// of its groups took in its exact solve (mln.Learn), summed over
	// blocks.
	LearnIterations int
}

// Add folds another run's counters into s. Blocks is kept at the maximum
// rather than summed: every distributed worker sees the same rule set, so
// summing would multiply the block count by the worker count.
func (s *Stats) Add(o Stats) {
	s.Tuples += o.Tuples
	if o.Blocks > s.Blocks {
		s.Blocks = o.Blocks
	}
	s.Groups += o.Groups
	s.AbnormalGroups += o.AbnormalGroups
	s.AbnormalPieces += o.AbnormalPieces
	s.AGPPromotions += o.AGPPromotions
	s.RSCRepairs += o.RSCRepairs
	s.FSCRCellChanges += o.FSCRCellChanges
	s.FusionFailures += o.FusionFailures
	s.FusionTruncated += o.FusionTruncated
	s.DuplicatesRemoved += o.DuplicatesRemoved
	s.LearnIterations += o.LearnIterations
}
