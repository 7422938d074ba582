package server

import (
	"fmt"
	"sort"

	"mlnclean/internal/dataset"
	"mlnclean/internal/index"
	"mlnclean/internal/rules"
)

// Repair is one applied cell change in the audit trail: which tuple and
// attribute, the dirty and repaired values, and the rule (with its learned
// weight) the change is attributed to. Repairs are ordered by tuple
// then schema column, so the trail reads top-to-bottom like the table.
//
// Attribution is a projection lookup: the repaired row projected onto a
// candidate rule's attributes must match a piece in the version's weight
// vector — the repair moved the tuple into that piece — and among matching
// rules the heaviest piece wins (ties break on rule id for determinism). A
// repair no piece explains (an RSC distance-repair, for instance) carries an
// empty rule and zero weight.
type Repair struct {
	Tuple  int     `json:"tuple"`
	Attr   string  `json:"attr"`
	Old    string  `json:"old"`
	New    string  `json:"new"`
	Rule   string  `json:"rule,omitempty"`
	Weight float64 `json:"weight,omitempty"`
}

// computeRepairsTable diffs a version's input table against its repaired output
// (pre-dedup, so both carry the same tuple IDs: stream positions at first,
// store row ids with gaps once tuples are deleted) and attributes each changed
// cell.
func computeRepairsTable(schema *dataset.Schema, dirty, repaired *dataset.Table, rs []*rules.Rule, weights []index.PieceSummary) []Repair {
	origRows := make(map[int][]string, dirty.Len())
	for _, t := range dirty.Tuples {
		origRows[t.ID] = t.Values
	}
	weightOf := make(map[string]float64, len(weights))
	for i := range weights {
		s := &weights[i]
		weightOf[s.RuleID+"\x1f"+dataset.JoinKey(s.Values)] = s.Weight
	}
	attrs := schema.Attrs()
	var out []Repair
	for _, t := range repaired.Tuples {
		orig, ok := origRows[t.ID]
		if !ok || len(orig) != len(t.Values) {
			continue
		}
		for j, attr := range attrs {
			if orig[j] == t.Values[j] {
				continue
			}
			rule, weight := attributeRepair(repaired, t, attr, rs, weightOf)
			out = append(out, Repair{
				Tuple: t.ID, Attr: attr,
				Old: orig[j], New: t.Values[j],
				Rule: rule, Weight: weight,
			})
		}
	}
	sort.SliceStable(out, func(i, k int) bool {
		if out[i].Tuple != out[k].Tuple {
			return out[i].Tuple < out[k].Tuple
		}
		return schema.MustIndex(out[i].Attr) < schema.MustIndex(out[k].Attr)
	})
	return out
}

// attributeRepair finds the rule whose weighted piece the repaired tuple now
// satisfies on attr.
func attributeRepair(tb *dataset.Table, t *dataset.Tuple, attr string, rs []*rules.Rule, weightOf map[string]float64) (string, float64) {
	bestRule, bestWeight, found := "", 0.0, false
	for _, r := range rs {
		touches := false
		for _, a := range r.Attrs() {
			if a == attr {
				touches = true
				break
			}
		}
		if !touches {
			continue
		}
		key := r.ID + "\x1f" + dataset.JoinKey(tb.Project(t, r.Attrs()))
		w, ok := weightOf[key]
		if !ok {
			continue
		}
		if !found || w > bestWeight || (w == bestWeight && r.ID < bestRule) {
			bestRule, bestWeight, found = r.ID, w, true
		}
	}
	return bestRule, bestWeight
}

// preRepairTable rebuilds the session's original streamed input — the
// pre-repair table rollback restores — from the logged batches. Tuple IDs
// are stream positions, matching the repaired table's.
func preRepairTable(schema *dataset.Schema, batches [][][]string) (*dataset.Table, error) {
	tb := dataset.NewTable(schema)
	for _, b := range batches {
		for _, row := range b {
			if _, err := tb.Append(row...); err != nil {
				return nil, fmt.Errorf("server: rebuild pre-repair table: %w", err)
			}
		}
	}
	return tb, nil
}
