package logic

import (
	"testing"

	"atropos/internal/sat"
)

func TestAssertSimple(t *testing.T) {
	e := NewEncoder()
	a, b := e.Symf("a"), e.Symf("b")
	e.AssertClauseS(Pos(a))
	e.AssertClauseS(Neg(b))
	if !e.Solve() {
		t.Fatal("a ∧ ¬b UNSAT")
	}
	if !e.ValueS(a) || e.ValueS(b) {
		t.Fatalf("model a=%v b=%v, want true/false", e.ValueS(a), e.ValueS(b))
	}
}

func TestAssertContradiction(t *testing.T) {
	e := NewEncoder()
	a := e.Symf("a")
	e.AssertClauseS(Pos(a))
	e.AssertClauseS(Neg(a))
	if e.Solve() {
		t.Fatal("a ∧ ¬a SAT")
	}
}

// TestConstants: an encoder starts with one solver variable, asserted
// true, so the first proposition used is variable 1 — the numbering every
// encoding's search depends on.
func TestConstants(t *testing.T) {
	e := NewEncoder()
	if got := e.S.NumVars(); got != 1 {
		t.Fatalf("new encoder holds %d variables, want 1", got)
	}
	if got := e.VarS(e.Symf("p")); got != 1 {
		t.Errorf("first proposition is variable %d, want 1", got)
	}
	if !e.Solve() || !e.S.Value(0) {
		t.Error("variable 0 is not true")
	}
}

// admits checks, for every assignment of n propositions, that the
// assertions assert makes admit it exactly when want holds.
func admits(t *testing.T, n int, assert func(e *Encoder, p []Sym), want func(v []bool) bool) {
	t.Helper()
	e := NewEncoder()
	p := make([]Sym, n)
	for i := range p {
		p[i] = e.Symf("p%d", i)
	}
	assert(e, p)
	for m := 0; m < 1<<n; m++ {
		v := make([]bool, n)
		assumps := make([]sat.Lit, n)
		for i := range v {
			v[i] = m>>i&1 == 1
			assumps[i] = e.LitS(p[i], !v[i])
		}
		if got := e.SolveAssuming(assumps...); got != want(v) {
			t.Errorf("assignment %v: admitted %v, want %v", v, got, want(v))
		}
	}
}

// TestIffTruthTable: AssertIffNotS admits exactly the models of a ↔ ¬b.
func TestIffTruthTable(t *testing.T) {
	admits(t, 2, func(e *Encoder, p []Sym) { e.AssertIffNotS(p[0], p[1]) },
		func(v []bool) bool { return v[0] == !v[1] })
}

// TestImpliesAnd2TruthTable: AssertImpliesAnd2S admits exactly the models
// of (a ∧ b) → c.
func TestImpliesAnd2TruthTable(t *testing.T) {
	admits(t, 3, func(e *Encoder, p []Sym) { e.AssertImpliesAnd2S(p[0], p[1], p[2]) },
		func(v []bool) bool { return !(v[0] && v[1]) || v[2] })
}

// orderSyms interns the n×n propositions ord_i_j.
func orderSyms(e *Encoder, n int) func(i, j int) Sym {
	syms := make([][]Sym, n)
	for i := range syms {
		syms[i] = make([]Sym, n)
		for j := range syms[i] {
			syms[i][j] = e.Symf("ord_%d_%d", i, j)
		}
	}
	return func(i, j int) Sym { return syms[i][j] }
}

func TestStrictTotalOrder(t *testing.T) {
	const n = 5
	e := NewEncoder()
	name := orderSyms(e, n)
	e.AssertStrictTotalOrderS(n, name)
	if !e.Solve() {
		t.Fatal("total order axioms UNSAT")
	}
	// Extract the order and verify it is a strict total order.
	before := func(i, j int) bool { return e.ValueS(name(i, j)) }
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			if before(i, j) == before(j, i) {
				t.Fatalf("antisymmetry/totality violated for (%d,%d)", i, j)
			}
			for k := 0; k < n; k++ {
				if k == i || k == j {
					continue
				}
				if before(i, j) && before(j, k) && !before(i, k) {
					t.Fatalf("transitivity violated: %d<%d<%d", i, j, k)
				}
			}
		}
	}
}

func TestTotalOrderWithCycleConstraintUnsat(t *testing.T) {
	const n = 3
	e := NewEncoder()
	name := orderSyms(e, n)
	e.AssertStrictTotalOrderS(n, name)
	// Force a cycle 0<1, 1<2, 2<0: must be UNSAT.
	e.AssertClauseS(Pos(name(0, 1)))
	e.AssertClauseS(Pos(name(1, 2)))
	e.AssertClauseS(Pos(name(2, 0)))
	if e.Solve() {
		t.Fatal("cyclic order SAT under total-order axioms")
	}
}

func TestSolveAssuming(t *testing.T) {
	e := NewEncoder()
	x, y := e.Symf("x"), e.Symf("y")
	e.AssertClauseS(Pos(x), Pos(y))
	if !e.SolveAssuming(e.LitS(x, true)) {
		t.Fatal("UNSAT assuming ¬x")
	}
	if !e.ValueS(y) {
		t.Error("y must hold assuming ¬x")
	}
	if e.SolveAssuming(e.LitS(x, true), e.LitS(y, true)) {
		t.Error("SAT assuming ¬x ∧ ¬y")
	}
	if !e.Solve() {
		t.Error("base formula no longer SAT")
	}
}

// TestModelProps: ModelValuesS reads the model's propositions back in the
// order asked, appending to dst; a proposition never used reads false.
func TestModelProps(t *testing.T) {
	e := NewEncoder()
	a, b, c, unused := e.Symf("a"), e.Symf("b"), e.Symf("c"), e.Symf("unused")
	e.AssertClauseS(Pos(a))
	e.AssertClauseS(Neg(b))
	e.AssertClauseS(Pos(c))
	if !e.Solve() {
		t.Fatal("UNSAT")
	}
	got := e.ModelValuesS([]bool{false}, c, b, a, unused)
	want := []bool{false, true, false, true, false}
	if len(got) != len(want) {
		t.Fatalf("ModelValuesS = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ModelValuesS = %v, want %v", got, want)
		}
	}
}

// TestAssertClauseS: a clause-level assertion means the disjunction of its
// literals and costs exactly one solver clause — no Tseitin variable.
func TestAssertClauseS(t *testing.T) {
	e := NewEncoder()
	a, b, c := e.Symf("a"), e.Symf("b"), e.Symf("c")
	vars, clauses := e.S.NumVars(), e.S.NumClauses()
	e.AssertClauseS(Neg(a), Neg(b), Pos(c)) // a ∧ b → c
	e.AssertClauseS(Neg(c), Pos(a))         // c → a
	if got := e.S.NumVars() - vars; got != 3 {
		t.Errorf("two clauses over 3 props created %d variables, want 3", got)
	}
	if got := e.S.NumClauses() - clauses; got != 2 {
		t.Errorf("two clause assertions added %d solver clauses, want 2", got)
	}
	if !e.SolveAssuming(e.LitS(a, false), e.LitS(b, false)) || !e.ValueS(c) {
		t.Error("a ∧ b did not force c")
	}
	if e.SolveAssuming(e.LitS(c, false), e.LitS(a, true)) {
		t.Error("c ∧ ¬a SAT despite c → a")
	}
	e.AssertClauseS(Pos(b))
	e.AssertClauseS(Neg(a))
	if !e.Solve() || !e.ValueS(b) || e.ValueS(a) || e.ValueS(c) {
		t.Errorf("units b, ¬a: model a=%v b=%v c=%v, want false/true/false", e.ValueS(a), e.ValueS(b), e.ValueS(c))
	}
	e.AssertClauseS() // the empty clause is false
	if e.Solve() {
		t.Error("empty clause is SAT")
	}
}

// TestEncoderPoolReuse: an encoder released after use comes back from
// AcquireEncoder as a new one — its interner, variables and digest reset.
func TestEncoderPoolReuse(t *testing.T) {
	e := AcquireEncoder()
	e.RecordFormulaHashes()
	p, q := e.Symf("p"), e.Symf("q")
	e.AssertIffNotS(p, q)
	e.Release()
	for i := 0; i < 2; i++ {
		e := AcquireEncoder()
		if got := e.S.NumVars(); got != 1 {
			t.Errorf("acquired encoder holds %d variables, want 1", got)
		}
		if got := e.Symf("q"); got != 0 {
			t.Errorf("acquired encoder interned q as %d, want 0", got)
		}
		if e.recordHashes || e.asserted != 0 || e.FormulaHash() != NewEncoder().FormulaHash() {
			t.Error("acquired encoder carries a digest")
		}
		e.Release()
	}
}
