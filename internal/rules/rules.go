// Package rules models the integrity constraints MLNClean consumes —
// functional dependencies (FDs), conditional functional dependencies (CFDs)
// and denial constraints (DCs) — together with the reason/result split the
// MLN index is built on (paper §3–§4).
//
// Every rule is normalized to a reason part (a list of attribute patterns,
// possibly with constants for CFDs) and a result part. For implication
// formulas (FD, CFD) the antecedent is the reason and the consequent the
// result; for DCs the last predicate is the result and the remaining
// predicates the reason (§4).
package rules

import (
	"fmt"
	"strings"

	"mlnclean/internal/dataset"
)

// Kind enumerates the supported constraint classes.
type Kind int

const (
	// FD is a functional dependency: X ⇒ Y over variables only.
	FD Kind = iota
	// CFD is a conditional functional dependency: patterns may bind
	// constants, e.g. Make("acura"), Type ⇒ Doors.
	CFD
	// DC is a denial constraint of the pairwise form
	// ∀t,t′ ¬(A(t)=A(t′) ∧ … ∧ B(t)≠B(t′)).
	DC
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case FD:
		return "FD"
	case CFD:
		return "CFD"
	case DC:
		return "DC"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Pattern is one attribute slot of a rule. Const == "" means the slot is a
// variable (matches any value); otherwise the slot only matches tuples whose
// attribute equals Const (CFD semantics). For DC predicates, Op records the
// comparison between the two quantified tuples ("=" or "!=").
type Pattern struct {
	Attr  string
	Const string
	Op    string // DC only: "=" or "!="; empty for FD/CFD slots
}

// IsVar reports whether the pattern is an unconstrained variable slot.
func (p Pattern) IsVar() bool { return p.Const == "" }

// String renders the pattern in the paper's notation.
func (p Pattern) String() string {
	if p.Op != "" {
		return fmt.Sprintf("%s(t.v)%s%s(t'.v)", p.Attr, p.Op, p.Attr)
	}
	if p.Const != "" {
		return fmt.Sprintf("%s(%q)", p.Attr, p.Const)
	}
	return p.Attr
}

// Rule is a single integrity constraint in reason ⇒ result form.
type Rule struct {
	ID     string
	Kind   Kind
	Reason []Pattern
	Result []Pattern
}

// New constructs a validated rule.
func New(id string, kind Kind, reason, result []Pattern) (*Rule, error) {
	r := &Rule{ID: id, Kind: kind, Reason: reason, Result: result}
	if err := r.validateShape(); err != nil {
		return nil, err
	}
	return r, nil
}

// MustNew is New that panics on error; for tests and static rule tables.
func MustNew(id string, kind Kind, reason, result []Pattern) *Rule {
	r, err := New(id, kind, reason, result)
	if err != nil {
		panic(err)
	}
	return r
}

func (r *Rule) validateShape() error {
	if len(r.Reason) == 0 {
		return fmt.Errorf("rules: %s: empty reason part", r.ID)
	}
	if len(r.Result) == 0 {
		return fmt.Errorf("rules: %s: empty result part", r.ID)
	}
	seen := make(map[string]bool)
	for _, p := range append(append([]Pattern{}, r.Reason...), r.Result...) {
		if p.Attr == "" {
			return fmt.Errorf("rules: %s: pattern with empty attribute", r.ID)
		}
		if seen[p.Attr] {
			return fmt.Errorf("rules: %s: attribute %q appears twice", r.ID, p.Attr)
		}
		seen[p.Attr] = true
	}
	if r.Kind == DC {
		for _, p := range append(append([]Pattern{}, r.Reason...), r.Result...) {
			if p.Op != "=" && p.Op != "!=" {
				return fmt.Errorf("rules: %s: DC predicate on %q needs op = or !=, got %q", r.ID, p.Attr, p.Op)
			}
		}
	}
	return nil
}

// Validate checks the rule against a schema: every referenced attribute must
// exist.
func (r *Rule) Validate(s *dataset.Schema) error {
	for _, p := range r.Reason {
		if !s.Has(p.Attr) {
			return fmt.Errorf("rules: %s: reason attribute %q not in schema", r.ID, p.Attr)
		}
	}
	for _, p := range r.Result {
		if !s.Has(p.Attr) {
			return fmt.Errorf("rules: %s: result attribute %q not in schema", r.ID, p.Attr)
		}
	}
	return nil
}

// ReasonAttrs returns the reason-part attribute names in order.
func (r *Rule) ReasonAttrs() []string {
	out := make([]string, len(r.Reason))
	for i, p := range r.Reason {
		out[i] = p.Attr
	}
	return out
}

// ResultAttrs returns the result-part attribute names in order.
func (r *Rule) ResultAttrs() []string {
	out := make([]string, len(r.Result))
	for i, p := range r.Result {
		out[i] = p.Attr
	}
	return out
}

// Attrs returns all attributes the rule touches, reason first.
func (r *Rule) Attrs() []string {
	return append(r.ReasonAttrs(), r.ResultAttrs()...)
}

// AppliesTo reports whether the rule's block should contain tuple t.
//
//   - FD and DC blocks contain every tuple.
//   - CFD blocks contain the tuples that match at least one constant reason
//     pattern. This reproduces Fig. 2: t3 (HN=ELIZA, CT=DOTHAN) belongs to
//     block B3 of rule r3 = HN("ELIZA"), CT("BOAZ") ⇒ PN("2567688400")
//     because it matches the HN constant, while t1/t2 (HN=ALABAMA) do not
//     match any constant and are excluded.
func (r *Rule) AppliesTo(tb *dataset.Table, t *dataset.Tuple) bool {
	return r.AppliesToValues(tb.Schema, t.Values)
}

// AppliesToValues is AppliesTo over one row's values in schema order.
func (r *Rule) AppliesToValues(schema *dataset.Schema, vals []string) bool {
	if r.Kind != CFD {
		return true
	}
	anyConst := false
	for _, p := range r.Reason {
		if p.Const == "" {
			continue
		}
		anyConst = true
		if vals[schema.MustIndex(p.Attr)] == p.Const {
			return true
		}
	}
	// A CFD with a variable-only reason behaves like an FD.
	return !anyConst
}

// Violates reports whether a single tuple violates the rule's row-local
// constraint. Only CFDs have row-local semantics (if the full reason pattern
// matches, the result constants must hold); FDs and DCs are inherently
// multi-tuple and always return false here. Use Violations for pairs.
func (r *Rule) Violates(tb *dataset.Table, t *dataset.Tuple) bool {
	if r.Kind != CFD {
		return false
	}
	for _, p := range r.Reason {
		if p.Const != "" && tb.Cell(t, p.Attr) != p.Const {
			return false
		}
	}
	for _, p := range r.Result {
		if p.Const != "" && tb.Cell(t, p.Attr) != p.Const {
			return true
		}
	}
	return false
}

// PairViolates reports whether the tuple pair (a, b) violates the rule.
// For FDs/variable CFDs: same reason values but different result values.
// For DCs: every reason predicate satisfied and the result predicate
// violated (i.e. the negated conjunction is falsified).
func (r *Rule) PairViolates(tb *dataset.Table, a, b *dataset.Tuple) bool {
	switch r.Kind {
	case FD, CFD:
		if !r.AppliesTo(tb, a) || !r.AppliesTo(tb, b) {
			return false
		}
		for _, p := range r.Reason {
			if tb.Cell(a, p.Attr) != tb.Cell(b, p.Attr) {
				return false
			}
			if p.Const != "" && tb.Cell(a, p.Attr) != p.Const {
				return false
			}
		}
		for _, p := range r.Result {
			if p.Const != "" {
				// Constant result: either tuple deviating is a violation.
				if tb.Cell(a, p.Attr) != p.Const || tb.Cell(b, p.Attr) != p.Const {
					return true
				}
				continue
			}
			if tb.Cell(a, p.Attr) != tb.Cell(b, p.Attr) {
				return true
			}
		}
		return false
	case DC:
		// DC form: ¬(p1 ∧ … ∧ pn). The pair violates the DC when every
		// predicate holds.
		for _, p := range append(append([]Pattern{}, r.Reason...), r.Result...) {
			va, vb := tb.Cell(a, p.Attr), tb.Cell(b, p.Attr)
			switch p.Op {
			case "=":
				if va != vb {
					return false
				}
			case "!=":
				if va == vb {
					return false
				}
			}
		}
		return true
	default:
		return false
	}
}

// Canonical renders the rule in the exact line syntax Parse accepts (no id
// label), so Parse(Canonical()) reconstructs the rule. String, by contrast,
// uses the paper's display notation, which is not parseable for CFDs.
func (r *Rule) Canonical() string {
	if r.Kind == DC {
		preds := make([]string, 0, len(r.Reason)+len(r.Result))
		for _, p := range append(append([]Pattern{}, r.Reason...), r.Result...) {
			preds = append(preds, fmt.Sprintf("%s(t)%s%s(t')", p.Attr, p.Op, p.Attr))
		}
		return "DC: not(" + strings.Join(preds, " and ") + ")"
	}
	pat := func(p Pattern) string {
		if p.Const != "" {
			return p.Attr + "=" + p.Const
		}
		return p.Attr
	}
	parts := make([]string, len(r.Reason))
	for i, p := range r.Reason {
		parts[i] = pat(p)
	}
	out := r.Kind.String() + ": " + strings.Join(parts, ", ") + " -> "
	parts = parts[:0]
	for _, p := range r.Result {
		parts = append(parts, pat(p))
	}
	return out + strings.Join(parts, ", ")
}

// String renders the rule in the paper's notation, e.g.
// "r1 FD: CT => ST" or "r3 CFD: HN(\"ELIZA\"), CT(\"BOAZ\") => PN(\"2567688400\")".
func (r *Rule) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s %s: ", r.ID, r.Kind)
	if r.Kind == DC {
		b.WriteString("forall t,t' not(")
		parts := make([]string, 0, len(r.Reason)+len(r.Result))
		for _, p := range append(append([]Pattern{}, r.Reason...), r.Result...) {
			parts = append(parts, p.String())
		}
		b.WriteString(strings.Join(parts, " and "))
		b.WriteString(")")
		return b.String()
	}
	parts := make([]string, len(r.Reason))
	for i, p := range r.Reason {
		parts[i] = p.String()
	}
	b.WriteString(strings.Join(parts, ", "))
	b.WriteString(" => ")
	parts = parts[:0]
	for _, p := range r.Result {
		parts = append(parts, p.String())
	}
	b.WriteString(strings.Join(parts, ", "))
	return b.String()
}
