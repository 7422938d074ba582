package eval

import (
	"mlnclean/internal/core"
	"mlnclean/internal/dataset"
	"mlnclean/internal/errgen"
)

// CellClass is what a cleaner did to one cell, judged against the truth.
type CellClass int

const (
	// Fixed is a dirty cell repaired to its true value.
	Fixed CellClass = iota
	// Missed is a dirty cell left as observed.
	Missed
	// WrongFix is a dirty cell changed to another wrong value.
	WrongFix
	// Broken is a clean cell changed.
	Broken
	// Untouched is a clean cell left as observed.
	Untouched
)

// String implements fmt.Stringer.
func (c CellClass) String() string {
	switch c {
	case Fixed:
		return "fixed"
	case Missed:
		return "missed"
	case WrongFix:
		return "wrong fix"
	case Broken:
		return "broken"
	}
	return "untouched"
}

// LedgerKey is one line of a cell ledger: a class of cells crossed with
// what may explain it.
type LedgerKey struct {
	Class CellClass
	// Error is the type of the error injected into the cell ("typo",
	// "replacement"), or "" when none was.
	Error string
	Attr  string
	// Other is another attribute of the tuple with an injected error, the
	// first in schema order, or "" when the tuple has none.
	Other string
	// Rule is the rule the audit trail attributes a changed cell to
	// (core.Repair.Rule), or "" for an unchanged cell, a change no rule
	// explains, or a cleaner without a trail.
	Rule string
}

// Ledger counts the cells of a repaired table by LedgerKey.
type Ledger map[LedgerKey]int

// CellLedger classifies every cell of dirty against truth and repaired, and
// crosses each with the injected errors errs and the audit trail (nil for a
// cleaner that keeps none). Tuples are matched as RepairQuality matches
// them: truth and dirty by position, repaired by ID.
func CellLedger(truth, dirty, repaired *dataset.Table, errs []errgen.Error, trail []core.Repair) Ledger {
	type cell struct {
		tuple int
		attr  string
	}
	injected := make(map[cell]string, len(errs))
	for _, e := range errs {
		injected[cell{e.TupleID, e.Attr}] = e.Type.String()
	}
	rule := make(map[cell]string, len(trail))
	for _, r := range trail {
		rule[cell{r.Tuple, r.Attr}] = r.Rule
	}
	repairedByID := make(map[int]*dataset.Tuple, repaired.Len())
	for _, t := range repaired.Tuples {
		repairedByID[t.ID] = t
	}
	attrs := dirty.Schema.Attrs()
	l := make(Ledger)
	for i, dt := range dirty.Tuples {
		tt, rt := truth.Tuples[i], repairedByID[dt.ID]
		for j, attr := range attrs {
			k := LedgerKey{Error: injected[cell{dt.ID, attr}], Attr: attr}
			for _, o := range attrs {
				if _, ok := injected[cell{dt.ID, o}]; ok && o != attr {
					k.Other = o
					break
				}
			}
			dirtyV, truthV, repairedV := dt.Values[j], tt.Values[j], dt.Values[j]
			if rt != nil {
				repairedV = rt.Values[j]
			}
			if repairedV != dirtyV {
				k.Rule = rule[cell{dt.ID, attr}]
			}
			switch {
			case dirtyV != truthV && repairedV == truthV:
				k.Class = Fixed
			case dirtyV != truthV && repairedV == dirtyV:
				k.Class = Missed
			case dirtyV != truthV:
				k.Class = WrongFix
			case repairedV != dirtyV:
				k.Class = Broken
			default:
				k.Class = Untouched
			}
			l[k]++
		}
	}
	return l
}

// Count sums the ledger's cells of one class.
func (l Ledger) Count(c CellClass) int {
	n := 0
	for k, v := range l {
		if k.Class == c {
			n += v
		}
	}
	return n
}

// Quality is RepairQuality's reading of the ledger's cells: the correctly
// repaired values are the fixed ones, the updated values every changed
// cell, and the erroneous values every dirty one.
func (l Ledger) Quality() Quality {
	fixed, wrong := l.Count(Fixed), l.Count(WrongFix)
	return quality(fixed, fixed+wrong+l.Count(Broken), fixed+wrong+l.Count(Missed))
}
