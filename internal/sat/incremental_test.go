package sat

import (
	"math/rand"
	"testing"
)

// This file holds the property tests for the solver's incremental-use
// surface: query sequences on one solver, clauses added between queries,
// and assumption handling (each of the lTrue / lFalse / undef paths at an
// assumption level).

// randomCNF builds a random instance: clauses of width minWidth-3 over
// nVars.
func randomCNF(rng *rand.Rand, nVars, nClauses, minWidth int) [][]Lit {
	clauses := make([][]Lit, 0, nClauses)
	for i := 0; i < nClauses; i++ {
		width := minWidth + rng.Intn(4-minWidth)
		c := make([]Lit, width)
		for j := range c {
			c[j] = NewLit(rng.Intn(nVars), rng.Intn(2) == 0)
		}
		clauses = append(clauses, c)
	}
	return clauses
}

func solverFor(nVars int, clauses [][]Lit) *Solver {
	s := New()
	for v := 0; v < nVars; v++ {
		s.NewVar()
	}
	for _, c := range clauses {
		s.AddClause(c...)
	}
	return s
}

// bruteForceAssuming enumerates assignments satisfying clauses plus the
// assumptions as unit clauses.
func bruteForceAssuming(nVars int, clauses [][]Lit, assumps []Lit) bool {
	all := make([][]Lit, 0, len(clauses)+len(assumps))
	all = append(all, clauses...)
	for _, a := range assumps {
		all = append(all, []Lit{a})
	}
	return bruteForce(nVars, all)
}

func modelSatisfies(t *testing.T, s *Solver, clauses [][]Lit, assumps []Lit) {
	t.Helper()
	check := func(c []Lit) bool {
		for _, l := range c {
			val := s.Value(l.Var())
			if l.Sign() {
				val = !val
			}
			if val {
				return true
			}
		}
		return false
	}
	for ci, c := range clauses {
		if !check(c) {
			t.Fatalf("model does not satisfy clause %d", ci)
		}
	}
	for _, a := range assumps {
		if !check([]Lit{a}) {
			t.Fatalf("model does not satisfy assumption %v", a)
		}
	}
}

// TestAssumptionSequencesAgainstBruteForce runs random query sequences on
// one (stateful) solver — learnt clauses, activities, and phases persist
// across queries — adds a random clause before every other query, and
// cross-checks every verdict against enumeration. Odd instances are 3-SAT
// near the satisfiability threshold, so that the sequences hit conflicts
// and learning and backjumping are exercised; even ones mix in unit and
// binary clauses, which propagation mostly decides.
func TestAssumptionSequencesAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	var conflicts int64
	for iter := 0; iter < 240; iter++ {
		nVars := 4 + rng.Intn(9)
		width, nClauses := 1, 2+rng.Intn(5*nVars)
		if iter%2 == 1 {
			width, nClauses = 3, 4*nVars+rng.Intn(nVars)
		}
		clauses := randomCNF(rng, nVars, nClauses, width)
		s := solverFor(nVars, clauses)
		for q := 0; q < 6 && s.ok; q++ {
			if q%2 == 1 {
				c := randomCNF(rng, nVars, 1, width)[0]
				s.AddClause(c...)
				clauses = append(clauses, c)
			}
			assumps := make([]Lit, rng.Intn(4))
			for i := range assumps {
				assumps[i] = NewLit(rng.Intn(nVars), rng.Intn(2) == 0)
			}
			got := s.Solve(assumps...)
			if want := bruteForceAssuming(nVars, clauses, assumps); got != want {
				t.Fatalf("iter %d query %d: solver=%v brute=%v (assumps %v)", iter, q, got, want, assumps)
			}
			if got {
				modelSatisfies(t, s, clauses, assumps)
			}
		}
		conflicts += s.Conflicts
	}
	if conflicts == 0 {
		t.Fatal("no query hit a conflict")
	}
	t.Logf("%d conflicts", conflicts)
}

// TestAssumptionValuePaths drives each branch of Solve's assumption
// handling: an assumption already true at its level (propagation implied
// it), one already false (conflicts with the formula), and undefined ones.
func TestAssumptionValuePaths(t *testing.T) {
	s := New()
	a := s.NewVar()
	b := s.NewVar()
	c := s.NewVar()
	s.AddClause(NewLit(a, true), NewLit(b, false))  // a → b
	s.AddClause(NewLit(a, false), NewLit(c, false)) // ¬a → c

	// undef path: both assumptions decided as pseudo-decisions.
	if !s.Solve(NewLit(a, false), NewLit(c, false)) {
		t.Fatal("UNSAT assuming a ∧ c")
	}
	if !s.Value(b) {
		t.Error("a assumed but b not implied")
	}
	// lTrue path: assuming a then b — b is implied at a's level, so b's
	// assumption level opens empty.
	if !s.Solve(NewLit(a, false), NewLit(b, false)) {
		t.Fatal("UNSAT assuming a ∧ b (b implied by a)")
	}
	// Duplicate assumption is the degenerate lTrue case.
	if !s.Solve(NewLit(a, false), NewLit(a, false)) {
		t.Fatal("UNSAT assuming a twice")
	}
	// lFalse path: second assumption contradicts the first's propagation.
	if s.Solve(NewLit(a, false), NewLit(b, true)) {
		t.Fatal("SAT assuming a ∧ ¬b, but a → b")
	}
	// lFalse at the first assumption: force ¬a at the root, assume a.
	s2 := New()
	x := s2.NewVar()
	s2.AddClause(NewLit(x, true)) // unit ¬x
	if s2.Solve(NewLit(x, false)) {
		t.Fatal("SAT assuming x against unit ¬x")
	}
	if !s2.Solve(NewLit(x, true)) {
		t.Fatal("UNSAT assuming ¬x with unit ¬x")
	}
}
