package refactor

import (
	"testing"

	"atropos/internal/ast"
)

// These tests pin the copy-on-write engine's sharing contract at the rule
// level: a rule's output shares every transaction and schema it did not
// edit with its input (path copying, pointer-identical nodes), and never
// mutates the input. The repair-level differential tests
// (internal/repair/cow_test.go) pin output equivalence against the
// deep-clone engine; these pin that the cheap path actually is cheap.

func TestCOWApplyCorrSharesUntouchedTxns(t *testing.T) {
	p := mustProg(t, courseware)
	before := ast.Format(p)
	p2, err := IntroField(p, "STUDENT", ast.Field{Name: "st_em_addr", Type: ast.TString})
	if err != nil {
		t.Fatalf("IntroField: %v", err)
	}
	// IntroField touches no transaction: all are shared.
	for i := range p.Txns {
		if p2.Txns[i] != p.Txns[i] {
			t.Errorf("IntroField copied transaction %s", p.Txns[i].Name)
		}
	}
	// Untouched schemas are shared; the edited one is not.
	if p2.Schema("COURSE") != p.Schema("COURSE") {
		t.Error("IntroField copied an untouched schema")
	}
	if p2.Schema("STUDENT") == p.Schema("STUDENT") {
		t.Error("IntroField mutated the input's schema node")
	}

	p3, err := ApplyCorr(p2, emailCorr())
	if err != nil {
		t.Fatalf("ApplyCorr: %v", err)
	}
	// regSt never touches EMAIL.em_addr: its node survives the rewrite.
	if p3.Txn("regSt") != p2.Txn("regSt") {
		t.Error("ApplyCorr copied a transaction the correspondence does not touch")
	}
	if p3.Txn("getSt") == p2.Txn("getSt") {
		t.Error("ApplyCorr mutated a rewritten transaction in place")
	}
	if got := ast.Format(p); got != before {
		t.Errorf("input program mutated:\n%s", got)
	}
}

func TestCOWMergeSharesUntouchedTxns(t *testing.T) {
	src := `
table T { id: int key, a: int, b: int, }
txn two(k: int) {
  x := select a from T where id = k;
  y := select b from T where id = k;
  return x.a + y.b;
}
txn other(k: int) {
  z := select a from T where id = k;
  return z.a;
}
`
	p := mustProg(t, src)
	before := ast.Format(p)
	p2, err := Merge(p, "two", "S1", "S2")
	if err != nil {
		t.Fatalf("Merge: %v", err)
	}
	if p2.Txn("other") != p.Txn("other") {
		t.Error("Merge copied the untouched transaction")
	}
	if len(p2.Schemas) != len(p.Schemas) || p2.Schemas[0] != p.Schemas[0] {
		t.Error("Merge copied the schema list")
	}
	if got := ast.Format(p); got != before {
		t.Errorf("Merge mutated its input:\n%s", got)
	}
	checkSema(t, p2, "Merge")
}
