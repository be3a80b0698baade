package sat

import (
	"math/rand"
	"slices"
	"testing"
)

// This file holds the property tests for the solver's incremental-use
// surface: assumption handling (each of the lTrue / lFalse / undef paths
// at an assumption level) and learnt-clause reduction (verdicts and model
// validity must be unaffected with reduction forced on, off, or at an
// adversarially tiny cap; see DESIGN.md §8 for why deletion is sound).

// randomCNF builds a random instance: clauses of width 1-3 over nVars.
func randomCNF(rng *rand.Rand, nVars, nClauses int) [][]Lit {
	clauses := make([][]Lit, 0, nClauses)
	for i := 0; i < nClauses; i++ {
		width := 1 + rng.Intn(3)
		c := make([]Lit, width)
		for j := range c {
			c[j] = NewLit(rng.Intn(nVars), rng.Intn(2) == 0)
		}
		clauses = append(clauses, c)
	}
	return clauses
}

func solverFor(nVars int, clauses [][]Lit, forceReduce bool) *Solver {
	s := New()
	for v := 0; v < nVars; v++ {
		s.NewVar()
	}
	if forceReduce {
		// An adversarially small cap: reduction triggers almost every
		// conflict (the cap re-grows afterwards, so each Solve reduces at
		// most a handful of times — enough to exercise deletion).
		s.maxLearnts = 2
	} else {
		s.reduceOff = true
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
// across queries — and cross-checks every verdict against enumeration,
// with learnt-clause reduction both off and adversarially forced.
func TestAssumptionSequencesAgainstBruteForce(t *testing.T) {
	for _, forceReduce := range []bool{false, true} {
		rng := rand.New(rand.NewSource(99))
		for iter := 0; iter < 120; iter++ {
			nVars := 4 + rng.Intn(9)
			clauses := randomCNF(rng, nVars, 2+rng.Intn(5*nVars))
			s := solverFor(nVars, clauses, forceReduce)
			rootSat := bruteForce(nVars, clauses)
			for q := 0; q < 6; q++ {
				assumps := make([]Lit, rng.Intn(4))
				for i := range assumps {
					assumps[i] = NewLit(rng.Intn(nVars), rng.Intn(2) == 0)
				}
				got := s.Solve(assumps...)
				want := rootSat && bruteForceAssuming(nVars, clauses, assumps)
				if got != want {
					t.Fatalf("reduce=%v iter %d query %d: solver=%v brute=%v (assumps %v)",
						forceReduce, iter, q, got, want, assumps)
				}
				if got {
					modelSatisfies(t, s, clauses, assumps)
				}
				if !s.ok {
					break // root-level UNSAT: later queries all false
				}
			}
		}
	}
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

// TestReductionDeterminism: two identical solvers running the identical
// query sequence return identical models at every step, with reduction
// forced — the property the incremental detection session's replay parity
// relies on (DESIGN.md §8).
func TestReductionDeterminism(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for iter := 0; iter < 40; iter++ {
		nVars := 6 + rng.Intn(8)
		clauses := randomCNF(rng, nVars, 3*nVars)
		s1 := solverFor(nVars, clauses, true)
		s2 := solverFor(nVars, clauses, true)
		for q := 0; q < 5; q++ {
			assumps := make([]Lit, rng.Intn(3))
			for i := range assumps {
				assumps[i] = NewLit(rng.Intn(nVars), rng.Intn(2) == 0)
			}
			r1 := s1.Solve(assumps...)
			r2 := s2.Solve(assumps...)
			if r1 != r2 {
				t.Fatalf("iter %d query %d: verdicts diverge", iter, q)
			}
			if r1 {
				for v := 0; v < nVars; v++ {
					if s1.Value(v) != s2.Value(v) {
						t.Fatalf("iter %d query %d: models diverge at var %d", iter, q, v)
					}
				}
			}
		}
	}
}

// TestReductionTriggersAndBounds: a conflict-heavy UNSAT instance with the
// default policy must actually delete learnt clauses once past the cap,
// keep the database bounded, and stay UNSAT.
func TestReductionTriggersAndBounds(t *testing.T) {
	s := pigeonhole(t, 9, 8)
	s.maxLearnts = 64 // small cap so the test is fast
	if s.Solve() {
		t.Fatal("PHP(9,8) reported SAT")
	}
	if s.LearntsDeleted == 0 {
		t.Error("reduction never triggered on a conflict-heavy instance")
	}
}

// TestReductionOffKeepsEveryLearnt: with the policy disabled the database
// only grows, and verdicts still agree with brute force (guards the
// reduceOff escape hatch the comparison tests rely on).
func TestReductionOffKeepsEveryLearnt(t *testing.T) {
	s := pigeonhole(t, 7, 6)
	s.reduceOff = true
	if s.Solve() {
		t.Fatal("PHP(7,6) reported SAT")
	}
	if s.LearntsDeleted != 0 {
		t.Errorf("reduction deleted %d clauses while disabled", s.LearntsDeleted)
	}
}

// TestResetMatchesNew: a solver reset after a search — the life logic's
// encoder pool gives it — answers a new problem exactly as New()'s does:
// the same verdict, model and search counters.
func TestResetMatchesNew(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	used := pigeonhole(t, 6, 5)
	used.Solve()
	for iter := 0; iter < 20; iter++ {
		nVars := 6 + rng.Intn(8)
		clauses := randomCNF(rng, nVars, 3*nVars)
		fresh := New()
		used.Reset()
		for _, s := range []*Solver{fresh, used} {
			for v := 0; v < nVars; v++ {
				s.NewVar()
			}
			for _, c := range clauses {
				s.AddClause(c...)
			}
		}
		if a, b := fresh.Solve(), used.Solve(); a != b {
			t.Fatalf("iter %d: verdicts diverge: new %v, reset %v", iter, a, b)
		}
		if a, b := fresh.Model(), used.Model(); !slices.Equal(a, b) {
			t.Fatalf("iter %d: models diverge:\nnew   %v\nreset %v", iter, a, b)
		}
		if fresh.Conflicts != used.Conflicts || fresh.Decisions != used.Decisions || fresh.Propagations != used.Propagations {
			t.Fatalf("iter %d: counters diverge", iter)
		}
	}
}
