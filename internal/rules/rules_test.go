package rules

import (
	"reflect"
	"strings"
	"testing"

	"mlnclean/internal/dataset"
)

func carTable(t *testing.T) *dataset.Table {
	t.Helper()
	tb := dataset.NewTable(dataset.MustSchema("Model", "Make", "Type", "Doors"))
	tb.MustAppend("MDX", "acura", "SUV", "4")     // t0
	tb.MustAppend("MDX", "acura", "SUV", "2")     // t1: doors conflict
	tb.MustAppend("CIVIC", "honda", "SEDAN", "4") // t2
	tb.MustAppend("CIVIC", "honda", "SEDAN", "4") // t3
	return tb
}

func TestRuleShapeValidation(t *testing.T) {
	if _, err := New("r", FD, nil, []Pattern{{Attr: "B"}}); err == nil {
		t.Error("empty reason should fail")
	}
	if _, err := New("r", FD, []Pattern{{Attr: "A"}}, nil); err == nil {
		t.Error("empty result should fail")
	}
	if _, err := New("r", FD, []Pattern{{Attr: "A"}}, []Pattern{{Attr: "A"}}); err == nil {
		t.Error("repeated attribute should fail")
	}
	if _, err := New("r", DC, []Pattern{{Attr: "A", Op: "<"}}, []Pattern{{Attr: "B", Op: "="}}); err == nil {
		t.Error("DC with unsupported op should fail")
	}
	if _, err := New("r", FD, []Pattern{{Attr: ""}}, []Pattern{{Attr: "B"}}); err == nil {
		t.Error("empty attr should fail")
	}
}

func TestValidateAgainstSchema(t *testing.T) {
	tb := carTable(t)
	r := MustNew("r", FD, []Pattern{{Attr: "Model"}}, []Pattern{{Attr: "Make"}})
	if err := r.Validate(tb.Schema); err != nil {
		t.Errorf("valid rule rejected: %v", err)
	}
	bad := MustNew("r", FD, []Pattern{{Attr: "Nope"}}, []Pattern{{Attr: "Make"}})
	if err := bad.Validate(tb.Schema); err == nil {
		t.Error("unknown attribute should fail validation")
	}
}

func TestAttrAccessors(t *testing.T) {
	r := MustNew("r", FD,
		[]Pattern{{Attr: "A"}, {Attr: "B"}},
		[]Pattern{{Attr: "C"}})
	if got := r.ReasonAttrs(); !reflect.DeepEqual(got, []string{"A", "B"}) {
		t.Errorf("ReasonAttrs = %v", got)
	}
	if got := r.ResultAttrs(); !reflect.DeepEqual(got, []string{"C"}) {
		t.Errorf("ResultAttrs = %v", got)
	}
	if got := r.Attrs(); !reflect.DeepEqual(got, []string{"A", "B", "C"}) {
		t.Errorf("Attrs = %v", got)
	}
}

func TestCFDAppliesTo(t *testing.T) {
	tb := carTable(t)
	cfd := MustNew("r", CFD,
		[]Pattern{{Attr: "Make", Const: "acura"}, {Attr: "Type"}},
		[]Pattern{{Attr: "Doors"}})
	if !cfd.AppliesTo(tb, tb.Tuples[0]) {
		t.Error("acura row should be in CFD block")
	}
	if cfd.AppliesTo(tb, tb.Tuples[2]) {
		t.Error("honda row should not be in CFD block")
	}
	// FD applies to everything.
	fd := MustNew("r2", FD, []Pattern{{Attr: "Model"}}, []Pattern{{Attr: "Make"}})
	for _, tp := range tb.Tuples {
		if !fd.AppliesTo(tb, tp) {
			t.Error("FD must apply to all tuples")
		}
	}
	// CFD with variable-only reason behaves like an FD.
	varCFD := MustNew("r3", CFD, []Pattern{{Attr: "Model"}}, []Pattern{{Attr: "Make"}})
	if !varCFD.AppliesTo(tb, tb.Tuples[2]) {
		t.Error("variable-only CFD should apply to all tuples")
	}
	// The value form agrees with AppliesTo on every rule and row, and reads
	// only the slice it is given.
	for _, r := range []*Rule{cfd, fd, varCFD} {
		for i, tp := range tb.Tuples {
			vals := append([]string(nil), tp.Values...)
			if got, want := r.AppliesToValues(tb.Schema, vals), r.AppliesTo(tb, tp); got != want {
				t.Errorf("rule %s row %d: AppliesToValues = %v, AppliesTo = %v", r.ID, i, got, want)
			}
		}
	}
	acura := append([]string(nil), tb.Tuples[2].Values...)
	acura[tb.Schema.MustIndex("Make")] = "acura"
	if !cfd.AppliesToValues(tb.Schema, acura) {
		t.Error("a row rewritten to Make=acura should be in the CFD block")
	}
	acura[tb.Schema.MustIndex("Make")] = "Acura"
	if cfd.AppliesToValues(tb.Schema, acura) {
		t.Error("constant matching is exact: Make=Acura is not acura")
	}
}

func TestCFDViolates(t *testing.T) {
	tb := dataset.NewTable(dataset.MustSchema("HN", "CT", "PN"))
	match := tb.MustAppend("ELIZA", "BOAZ", "111")  // violates: wrong PN
	okRow := tb.MustAppend("ELIZA", "BOAZ", "999")  // satisfies
	other := tb.MustAppend("ELIZA", "DOTHAN", "42") // reason doesn't match fully

	cfd := MustNew("r", CFD,
		[]Pattern{{Attr: "HN", Const: "ELIZA"}, {Attr: "CT", Const: "BOAZ"}},
		[]Pattern{{Attr: "PN", Const: "999"}})
	if !cfd.Violates(tb, match) {
		t.Error("mismatched result constant should violate")
	}
	if cfd.Violates(tb, okRow) {
		t.Error("satisfied CFD flagged")
	}
	if cfd.Violates(tb, other) {
		t.Error("non-matching reason flagged")
	}
	fd := MustNew("r2", FD, []Pattern{{Attr: "HN"}}, []Pattern{{Attr: "CT"}})
	if fd.Violates(tb, match) {
		t.Error("FDs have no row-local violation")
	}
}

func TestPairViolatesFD(t *testing.T) {
	tb := carTable(t)
	fd := MustNew("r", FD, []Pattern{{Attr: "Model"}, {Attr: "Type"}}, []Pattern{{Attr: "Doors"}})
	if !fd.PairViolates(tb, tb.Tuples[0], tb.Tuples[1]) {
		t.Error("same reason, different doors should violate")
	}
	if fd.PairViolates(tb, tb.Tuples[2], tb.Tuples[3]) {
		t.Error("identical rows cannot violate")
	}
	if fd.PairViolates(tb, tb.Tuples[0], tb.Tuples[2]) {
		t.Error("different reason values cannot violate")
	}
}

func TestPairViolatesDC(t *testing.T) {
	tb := dataset.NewTable(dataset.MustSchema("PN", "ST"))
	a := tb.MustAppend("111", "AL")
	b := tb.MustAppend("111", "AK") // same phone, different state → violation
	c := tb.MustAppend("222", "AK")

	dc := MustNew("r", DC,
		[]Pattern{{Attr: "PN", Op: "="}},
		[]Pattern{{Attr: "ST", Op: "!="}})
	if !dc.PairViolates(tb, a, b) {
		t.Error("DC should be violated by (a,b)")
	}
	if dc.PairViolates(tb, a, c) {
		t.Error("different phones cannot violate")
	}
	if dc.PairViolates(tb, a, a) {
		t.Error("a tuple with itself: ST(t)!=ST(t) is false")
	}
}

func TestPairViolatesCFDConstants(t *testing.T) {
	tb := dataset.NewTable(dataset.MustSchema("Make", "Type", "Doors"))
	a := tb.MustAppend("acura", "SUV", "4")
	b := tb.MustAppend("acura", "SUV", "2")
	cfd := MustNew("r", CFD,
		[]Pattern{{Attr: "Make", Const: "acura"}, {Attr: "Type"}},
		[]Pattern{{Attr: "Doors"}})
	if !cfd.PairViolates(tb, a, b) {
		t.Error("matching pattern with differing doors should violate")
	}
}

func TestRuleString(t *testing.T) {
	fd := MustNew("r1", FD, []Pattern{{Attr: "CT"}}, []Pattern{{Attr: "ST"}})
	if s := fd.String(); !strings.Contains(s, "r1 FD") || !strings.Contains(s, "CT => ST") {
		t.Errorf("FD String = %q", s)
	}
	cfd := MustNew("r3", CFD,
		[]Pattern{{Attr: "HN", Const: "ELIZA"}},
		[]Pattern{{Attr: "PN", Const: "999"}})
	if s := cfd.String(); !strings.Contains(s, `HN("ELIZA")`) {
		t.Errorf("CFD String = %q", s)
	}
	dc := MustNew("r2", DC, []Pattern{{Attr: "PN", Op: "="}}, []Pattern{{Attr: "ST", Op: "!="}})
	if s := dc.String(); !strings.Contains(s, "not(") || !strings.Contains(s, "PN") {
		t.Errorf("DC String = %q", s)
	}
	if FD.String() != "FD" || CFD.String() != "CFD" || DC.String() != "DC" {
		t.Error("Kind.String")
	}
	if Kind(42).String() != "Kind(42)" {
		t.Error("unknown Kind.String")
	}
}

func TestPatternString(t *testing.T) {
	if s := (Pattern{Attr: "A"}).String(); s != "A" {
		t.Errorf("var pattern = %q", s)
	}
	if s := (Pattern{Attr: "A", Const: "x"}).String(); s != `A("x")` {
		t.Errorf("const pattern = %q", s)
	}
	if s := (Pattern{Attr: "A", Op: "!="}).String(); !strings.Contains(s, "!=") {
		t.Errorf("DC pattern = %q", s)
	}
	if !(Pattern{Attr: "A"}).IsVar() || (Pattern{Attr: "A", Const: "x"}).IsVar() {
		t.Error("IsVar")
	}
}
