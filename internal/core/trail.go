package core

import "slices"

// Repair is one applied cell change in a version's audit trail: which tuple
// and attribute, the dirty and repaired values, and the rule (with its
// learned weight) the change is attributed to. A trail is ordered by tuple
// ID then schema column, so it reads top-to-bottom like the table.
//
// Attribution is a projection lookup on value IDs: the repaired row projected
// onto a rule's attributes must be exactly the value sequence of a piece in
// that rule's block — the repair moved the tuple into that piece — and among
// the rules touching the attribute the heaviest such piece wins (ties break
// on the smaller rule ID). A repair no piece explains (an RSC
// distance-repair, for instance) carries an empty rule and zero weight.
type Repair struct {
	Tuple  int     `json:"tuple"`
	Attr   string  `json:"attr"`
	Old    string  `json:"old"`
	New    string  `json:"new"`
	Rule   string  `json:"rule,omitempty"`
	Weight float64 `json:"weight,omitempty"`
}

// Trail returns the current version's audit trail: one Repair per cell whose
// repaired value differs from the dirty one, over the pre-dedup repaired
// table, in ascending-ID and schema order. Old and New are the dictionary's
// strings, shared, not copied. Nil when fusion changed no cell or nothing is
// loaded.
func (d *DeltaCleaner) Trail() []Repair {
	if d.cur == nil {
		return nil
	}
	return d.cur.Trail()
}

// attribute finds the rule whose weighted piece the repaired row satisfies
// at schema position p: for each block touching p, the row's projection
// onto the rule's attributes resolves (lookup only) to a sequence key, which
// names a piece of that block when the block's weight vector in this version
// has it. proj is scratch, returned for reuse.
func (v *Version) attribute(row []uint32, p int, proj []uint32) (string, float64, []uint32) {
	bestRule, bestWeight, found := "", 0.0, false
	for bi, pos := range v.eng.plan.posPerBlock {
		if !slices.Contains(pos, p) {
			continue
		}
		proj = proj[:0]
		for _, q := range pos {
			proj = append(proj, row[q])
		}
		kid, ok := v.eng.dict.LookupSeq(proj)
		if !ok {
			continue
		}
		at, ok := slices.BinarySearch(v.weights[bi].keys, kid)
		if !ok {
			continue
		}
		w := v.weights[bi].weights[at]
		if id := v.eng.rs[bi].ID; !found || w > bestWeight || (w == bestWeight && id < bestRule) {
			bestRule, bestWeight, found = id, w, true
		}
	}
	return bestRule, bestWeight, proj
}
