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
// table. It compares each tuple's encoded dirty row with its cached fused
// row, so the rows are walked in ascending-ID and schema order and no sort
// is needed; Old and New are the dictionary's strings, shared, not copied.
// Nil when fusion changed no cell.
func (d *DeltaCleaner) Trail() []Repair {
	n := 0
	for i, fixed := range d.fusedRows {
		dirty := d.encRows[i]
		for p, id := range fixed {
			if id != dirty[p] {
				n++
			}
		}
	}
	if n == 0 {
		return nil
	}
	out := make([]Repair, 0, n)
	for i, t := range d.tuples {
		dirty, fixed := d.encRows[i], d.fusedRows[i]
		for p, id := range fixed {
			if id == dirty[p] {
				continue
			}
			rule, weight := d.attribute(fixed, p)
			out = append(out, Repair{
				Tuple: t.ID, Attr: d.schema.Attr(p),
				Old: d.dict.Value(dirty[p]), New: d.dict.Value(id),
				Rule: rule, Weight: weight,
			})
		}
	}
	return out
}

// attribute finds the rule whose weighted piece the repaired row now
// satisfies at schema position p: for each block touching p, the row's
// projection onto the rule's attributes resolves (lookup only) to a sequence
// key, which names a piece of that block when the block's weight map has it.
func (d *DeltaCleaner) attribute(row []uint32, p int) (string, float64) {
	bestRule, bestWeight, found := "", 0.0, false
	for ri, pos := range d.plan.posPerBlock {
		if !slices.Contains(pos, p) {
			continue
		}
		d.proj = d.proj[:0]
		for _, q := range pos {
			d.proj = append(d.proj, row[q])
		}
		kid, ok := d.dict.LookupSeq(d.proj)
		if !ok {
			continue
		}
		w, ok := d.blocks[ri].weights[kid]
		if !ok {
			continue
		}
		if id := d.rs[ri].ID; !found || w > bestWeight || (w == bestWeight && id < bestRule) {
			bestRule, bestWeight, found = id, w, true
		}
	}
	return bestRule, bestWeight
}
