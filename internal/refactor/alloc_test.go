package refactor

import (
	"strings"
	"testing"

	"atropos/internal/ast"
)

// Failed probes are the common case of the repair loop: these tests pin
// that the checks a probe runs before it builds cost no allocation.

// TestIsDeadSelectAllocatesNothing: asking about one select walks the
// transaction's expressions without collecting anything.
func TestIsDeadSelectAllocatesNothing(t *testing.T) {
	p := mustProg(t, courseware)
	for label, want := range map[string]bool{"S1": false, "S3": true} {
		var dead bool
		if n := testing.AllocsPerRun(100, func() { dead = IsDeadSelect(p, "getSt", label) }); n != 0 {
			t.Errorf("IsDeadSelect(getSt.%s) allocates %.0f times, want 0", label, n)
		}
		if dead != want {
			t.Errorf("IsDeadSelect(getSt.%s) = %t, want %t", label, dead, want)
		}
	}
}

// applySource has three transactions that update T.n, the last by a
// SELECT * that no correspondence can redirect.
const applySource = `
table T { id: int key, n: int, }
table D { id: int key, m: int, d_n: int, }
txn a(k: int) { update T set n = 1 where id = k; }
txn b(k: int) { update T set n = 2 where id = k; }
txn c(k: int) {
  x := select * from T where id = k;
  return x.n;
}
`

// TestApplyCorrFailingValidationBuildsNothing: a correspondence whose
// validation fails on the last transaction it touches allocates what the
// same failure on a program holding only that transaction does — the
// error — and so no transaction for the two before it.
func TestApplyCorrFailingValidationBuildsNothing(t *testing.T) {
	p := mustProg(t, applySource)
	only := &ast.Program{Schemas: p.Schemas, Txns: p.Txns[2:]}
	v := ValueCorr{SrcTable: "T", SrcField: "n", DstTable: "D", DstField: "d_n", Theta: map[string]string{"id": "id"}, Agg: ast.AggAny}
	var err error
	all := testing.AllocsPerRun(100, func() { _, err = ApplyCorr(p, v) })
	if err == nil || !strings.Contains(err.Error(), "c.S1: cannot redirect SELECT *") {
		t.Fatalf("ApplyCorr = %v, want c.S1's SELECT * refused", err)
	}
	last := testing.AllocsPerRun(100, func() { _, err = ApplyCorr(only, v) })
	if all != last {
		t.Errorf("failing on the third touched transaction allocates %.0f times, on the only one %.0f", all, last)
	}
}

// TestApplyCorrLoggerReportsFirstFailure: under the logger rule a
// rewrite can fail after validation, so an earlier transaction's rewrite
// failure is the error even when a later one fails validation.
func TestApplyCorrLoggerReportsFirstFailure(t *testing.T) {
	p := mustProg(t, applySource)
	lp, v, err := BuildLoggerSchema(p, "T", "n")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ApplyCorr(lp, v); err == nil || !strings.Contains(err.Error(), "U1: assignment \"1\" is not increment-shaped") {
		t.Fatalf("ApplyCorr = %v, want a.U1's rewrite refused", err)
	}
}
