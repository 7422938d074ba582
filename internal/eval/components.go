package eval

import (
	"sort"

	"mlnclean/internal/core"
	"mlnclean/internal/dataset"
	"mlnclean/internal/index"
	"mlnclean/internal/rules"
)

// AGPQuality reports the §7.3 AGP metrics.
type AGPQuality struct {
	// Precision is Precision-A: correctly merged abnormal groups over
	// detected abnormal groups.
	Precision float64
	// Recall is Recall-A: correctly merged abnormal groups over real
	// abnormal groups.
	Recall float64
	// Detected, Correct, Real are the underlying counts.
	Detected int
	Correct  int
	Real     int
	// DetectedPieces is #dag: the total number of γs inside detected
	// abnormal groups.
	DetectedPieces int
}

// trueReasonKey returns the majority ground-truth reason key of the given
// tuples under rule r.
func trueReasonKey(truth *dataset.Table, r *rules.Rule, tupleIDs []int) string {
	counts := make(map[string]int)
	for _, id := range tupleIDs {
		t := truth.Tuples[id]
		counts[dataset.JoinKey(truth.Project(t, r.ReasonAttrs()))]++
	}
	bestKey, bestN := "", -1
	keys := make([]string, 0, len(counts))
	for k := range counts {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if counts[k] > bestN {
			bestKey, bestN = k, counts[k]
		}
	}
	return bestKey
}

// AGPQualityFromTrace computes Precision-A / Recall-A / #dag.
//
// Ground-truth definitions (the extended abstract does not spell them out;
// see README › Deviations from the paper): a group of the dirty index is
// *really abnormal* when its observed reason key differs from the majority
// clean reason key of its member tuples — i.e. the group only exists because
// reason-part values were corrupted. A detected abnormal group is *correctly
// merged* when its AGP target group's key equals that majority clean key.
func AGPQualityFromTrace(tr *core.Trace, truth, dirty *dataset.Table, rs []*rules.Rule) (AGPQuality, error) {
	var q AGPQuality

	ruleByID := make(map[string]*rules.Rule, len(rs))
	for _, r := range rs {
		ruleByID[r.ID] = r
	}

	// Count real abnormal groups from a fresh dirty index.
	ix, err := index.Build(dirty, rs)
	if err != nil {
		return q, err
	}
	for _, b := range ix.Blocks {
		for _, g := range b.Groups {
			var ids []int
			for _, p := range g.Pieces {
				ids = append(ids, p.TupleIDs...)
			}
			if g.Key != trueReasonKey(truth, b.Rule, ids) {
				q.Real++
			}
		}
	}

	for _, m := range tr.AGP {
		if m.Promoted {
			// A promotion is bookkeeping for a degenerate block, not a
			// detected-and-merged abnormal group; counting it would deflate
			// Precision-A for runs that never merged anything.
			continue
		}
		q.Detected++
		q.DetectedPieces += m.SourcePieces
		r, ok := ruleByID[m.RuleID]
		if !ok {
			continue
		}
		want := trueReasonKey(truth, r, m.SourceTuples)
		if m.TargetKey == want && m.SourceKey != want {
			q.Correct++
		}
	}
	if q.Detected > 0 {
		q.Precision = float64(q.Correct) / float64(q.Detected)
	}
	if q.Real > 0 {
		q.Recall = float64(q.Correct) / float64(q.Real)
	} else if q.Detected == 0 {
		q.Recall = 1
		q.Precision = 1
	}
	return q, nil
}

// RSCQuality reports the §7.3 RSC metrics.
type RSCQuality struct {
	// Precision is Precision-R: correctly repaired γs over repaired γs.
	Precision float64
	// Recall is Recall-R: correctly repaired γs over γs containing errors.
	Recall    float64
	Repaired  int
	Correct   int
	Erroneous int
}

// RSCQualityFromTrace computes Precision-R / Recall-R.
//
// A repaired γ is *correct* when the winner values it was rewritten to
// match the majority ground truth of its supporting tuples on the rule's
// attributes. A γ of the dirty index *contains errors* when its observed
// values differ from that majority ground truth.
func RSCQualityFromTrace(tr *core.Trace, truth, dirty *dataset.Table, rs []*rules.Rule) (RSCQuality, error) {
	var q RSCQuality

	ix, err := index.Build(dirty, rs)
	if err != nil {
		return q, err
	}
	for _, b := range ix.Blocks {
		attrs := b.Rule.Attrs()
		for _, g := range b.Groups {
			for _, p := range g.Pieces {
				if dataset.JoinKey(p.Values()) != majorityTruthKey(truth, attrs, p.TupleIDs) {
					q.Erroneous++
				}
			}
		}
	}

	for _, rep := range tr.RSC {
		q.Repaired++
		if dataset.JoinKey(rep.New) == majorityTruthKey(truth, rep.Attrs, rep.Tuples) {
			q.Correct++
		}
	}
	if q.Repaired > 0 {
		q.Precision = float64(q.Correct) / float64(q.Repaired)
	} else if q.Erroneous == 0 {
		q.Precision = 1
	}
	if q.Erroneous > 0 {
		q.Recall = float64(q.Correct) / float64(q.Erroneous)
	} else {
		q.Recall = 1
	}
	return q, nil
}

func majorityTruthKey(truth *dataset.Table, attrs []string, tupleIDs []int) string {
	counts := make(map[string]int)
	for _, id := range tupleIDs {
		t := truth.Tuples[id]
		counts[dataset.JoinKey(truth.Project(t, attrs))]++
	}
	bestKey, bestN := "", -1
	keys := make([]string, 0, len(counts))
	for k := range counts {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if counts[k] > bestN {
			bestKey, bestN = k, counts[k]
		}
	}
	return bestKey
}

// FSCRQuality reports the §7.3 FSCR metrics.
type FSCRQuality struct {
	// Precision is Precision-F: correctly repaired attribute values among
	// conflict-detected cells over erroneous attribute values among
	// conflict-detected cells.
	Precision float64
	// Recall is Recall-F: correctly repaired attribute values over all
	// erroneous attribute values.
	Recall            float64
	ConflictCorrect   int
	ConflictErroneous int
	Correct           int
	Erroneous         int
}

// FSCRQualityFromTrace computes Precision-F / Recall-F from the fusion
// outcomes: a cell counts as correctly repaired when stage II's final value
// equals the ground truth and the dirty value did not.
func FSCRQualityFromTrace(tr *core.Trace, truth, dirty, repaired *dataset.Table) FSCRQuality {
	var q FSCRQuality

	conflictAttrs := make(map[int]map[string]bool, len(tr.FSCR))
	for _, f := range tr.FSCR {
		if len(f.ConflictAttrs) == 0 {
			continue
		}
		m := make(map[string]bool, len(f.ConflictAttrs))
		for _, a := range f.ConflictAttrs {
			m[a] = true
		}
		conflictAttrs[f.TupleID] = m
	}
	repairedByID := make(map[int]*dataset.Tuple, repaired.Len())
	for _, t := range repaired.Tuples {
		repairedByID[t.ID] = t
	}
	for i, dt := range dirty.Tuples {
		tt := truth.Tuples[i]
		rt := repairedByID[dt.ID]
		for j := range dt.Values {
			if dt.Values[j] == tt.Values[j] {
				continue
			}
			q.Erroneous++
			attr := dirty.Schema.Attr(j)
			inConflict := conflictAttrs[dt.ID][attr]
			if inConflict {
				q.ConflictErroneous++
			}
			if rt != nil && rt.Values[j] == tt.Values[j] {
				q.Correct++
				if inConflict {
					q.ConflictCorrect++
				}
			}
		}
	}
	if q.ConflictErroneous > 0 {
		q.Precision = float64(q.ConflictCorrect) / float64(q.ConflictErroneous)
	} else {
		q.Precision = 1
	}
	if q.Erroneous > 0 {
		q.Recall = float64(q.Correct) / float64(q.Erroneous)
	} else {
		q.Recall = 1
	}
	return q
}
