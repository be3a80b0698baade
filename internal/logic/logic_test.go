package logic

import (
	"fmt"
	"math/rand"
	"testing"
)

func TestAssertSimple(t *testing.T) {
	e := NewEncoder()
	e.Assert(AndF(P("a"), NotF(P("b"))))
	if !e.Solve() {
		t.Fatal("a ∧ ¬b UNSAT")
	}
	if !e.Value("a") || e.Value("b") {
		t.Fatalf("model a=%v b=%v, want true/false", e.Value("a"), e.Value("b"))
	}
}

func TestAssertContradiction(t *testing.T) {
	e := NewEncoder()
	e.Assert(P("a"))
	e.Assert(NotF(P("a")))
	if e.Solve() {
		t.Fatal("a ∧ ¬a SAT")
	}
}

func TestConstants(t *testing.T) {
	e := NewEncoder()
	e.Assert(ImpliesF(True, P("x")))
	if !e.Solve() || !e.Value("x") {
		t.Fatal("true → x did not force x")
	}
	e2 := NewEncoder()
	e2.Assert(False)
	if e2.Solve() {
		t.Fatal("asserting false is SAT")
	}
	e3 := NewEncoder()
	e3.Assert(OrF()) // empty disjunction is false
	if e3.Solve() {
		t.Fatal("empty Or is SAT")
	}
	e4 := NewEncoder()
	e4.Assert(AndF()) // empty conjunction is true
	if !e4.Solve() {
		t.Fatal("empty And is UNSAT")
	}
}

func TestIffTruthTable(t *testing.T) {
	for _, a := range []bool{false, true} {
		for _, b := range []bool{false, true} {
			e := NewEncoder()
			e.Assert(IffF(&Const{Val: a}, &Const{Val: b}))
			want := a == b
			if got := e.Solve(); got != want {
				t.Errorf("iff(%t,%t) sat=%v want %v", a, b, got, want)
			}
		}
	}
}

// randomFormula builds a random formula over nProps propositions.
func randomFormula(rng *rand.Rand, nProps, depth int) Formula {
	if depth == 0 || rng.Intn(4) == 0 {
		return P(fmt.Sprintf("p%d", rng.Intn(nProps)))
	}
	switch rng.Intn(5) {
	case 0:
		return NotF(randomFormula(rng, nProps, depth-1))
	case 1:
		return AndF(randomFormula(rng, nProps, depth-1), randomFormula(rng, nProps, depth-1))
	case 2:
		return OrF(randomFormula(rng, nProps, depth-1), randomFormula(rng, nProps, depth-1))
	case 3:
		return ImpliesF(randomFormula(rng, nProps, depth-1), randomFormula(rng, nProps, depth-1))
	default:
		return IffF(randomFormula(rng, nProps, depth-1), randomFormula(rng, nProps, depth-1))
	}
}

// TestTseitinAgainstEval is a property test: Assert(f) is SAT iff f is
// satisfiable by enumeration, and the model returned actually satisfies f
// under direct evaluation.
func TestTseitinAgainstEval(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for iter := 0; iter < 200; iter++ {
		nProps := 2 + rng.Intn(5)
		f := randomFormula(rng, nProps, 4)
		// Brute-force satisfiability.
		bruteSat := false
		for m := 0; m < 1<<nProps; m++ {
			asg := map[string]bool{}
			for i := 0; i < nProps; i++ {
				asg[fmt.Sprintf("p%d", i)] = m>>i&1 == 1
			}
			if Eval(f, asg) {
				bruteSat = true
				break
			}
		}
		e := NewEncoder()
		// Intern all props so the model is total.
		for i := 0; i < nProps; i++ {
			e.Var(fmt.Sprintf("p%d", i))
		}
		e.Assert(f)
		got := e.Solve()
		if got != bruteSat {
			t.Fatalf("iter %d: formula %s: sat=%v brute=%v", iter, String(f), got, bruteSat)
		}
		if got {
			asg := map[string]bool{}
			for i := 0; i < nProps; i++ {
				name := fmt.Sprintf("p%d", i)
				asg[name] = e.Value(name)
			}
			if !Eval(f, asg) {
				t.Fatalf("iter %d: model does not satisfy %s", iter, String(f))
			}
		}
	}
}

func TestStrictTotalOrder(t *testing.T) {
	const n = 5
	name := func(i, j int) string { return fmt.Sprintf("ord_%d_%d", i, j) }
	e := NewEncoder()
	e.AssertStrictTotalOrder(n, name)
	if !e.Solve() {
		t.Fatal("total order axioms UNSAT")
	}
	// Extract the order and verify it is a strict total order.
	before := func(i, j int) bool { return e.Value(name(i, j)) }
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
	name := func(i, j int) string { return fmt.Sprintf("ord_%d_%d", i, j) }
	e := NewEncoder()
	e.AssertStrictTotalOrder(n, name)
	// Force a cycle 0<1, 1<2, 2<0: must be UNSAT.
	e.Assert(P(name(0, 1)))
	e.Assert(P(name(1, 2)))
	e.Assert(P(name(2, 0)))
	if e.Solve() {
		t.Fatal("cyclic order SAT under total-order axioms")
	}
}

func TestSolveAssuming(t *testing.T) {
	e := NewEncoder()
	e.Assert(OrF(P("x"), P("y")))
	if !e.SolveAssuming(e.Lit("x", true)) {
		t.Fatal("UNSAT assuming ¬x")
	}
	if !e.Value("y") {
		t.Error("y must hold assuming ¬x")
	}
	if e.SolveAssuming(e.Lit("x", true), e.Lit("y", true)) {
		t.Error("SAT assuming ¬x ∧ ¬y")
	}
	if !e.Solve() {
		t.Error("base formula no longer SAT")
	}
}

func TestModelProps(t *testing.T) {
	e := NewEncoder()
	e.Assert(P("a"))
	e.Assert(NotF(P("b")))
	e.Assert(P("c"))
	if !e.Solve() {
		t.Fatal("UNSAT")
	}
	props := e.ModelProps()
	want := map[string]bool{"a": true, "c": true}
	if len(props) != 2 {
		t.Fatalf("ModelProps = %v", props)
	}
	for _, p := range props {
		if !want[p] {
			t.Errorf("unexpected true prop %q", p)
		}
	}
}

func TestEval(t *testing.T) {
	f := ImpliesF(P("a"), AndF(P("b"), NotF(P("c"))))
	cases := []struct {
		a, b, c bool
		want    bool
	}{
		{false, false, false, true},
		{true, true, false, true},
		{true, true, true, false},
		{true, false, false, false},
	}
	for _, tc := range cases {
		m := map[string]bool{"a": tc.a, "b": tc.b, "c": tc.c}
		if got := Eval(f, m); got != tc.want {
			t.Errorf("Eval(%v) = %v, want %v", m, got, tc.want)
		}
	}
}

// TestAssertClauseS: a clause-level assertion means the disjunction of its
// literals and costs exactly one solver clause — no Tseitin variable.
func TestAssertClauseS(t *testing.T) {
	e := NewEncoder()
	a, b, c := e.Sym("a"), e.Sym("b"), e.Sym("c")
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
