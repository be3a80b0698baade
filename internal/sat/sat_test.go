package sat

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestTrivialSat(t *testing.T) {
	s := New()
	a := s.NewVar()
	b := s.NewVar()
	s.AddClause(NewLit(a, false), NewLit(b, false)) // a ∨ b
	s.AddClause(NewLit(a, true))                    // ¬a
	if !s.Solve() {
		t.Fatal("satisfiable formula reported UNSAT")
	}
	if s.Value(a) {
		t.Error("a should be false")
	}
	if !s.Value(b) {
		t.Error("b should be true")
	}
}

func TestTrivialUnsat(t *testing.T) {
	s := New()
	a := s.NewVar()
	s.AddClause(NewLit(a, false))
	if s.AddClause(NewLit(a, true)) {
		t.Fatal("adding contradictory unit clause returned true")
	}
	if s.Solve() {
		t.Fatal("unsatisfiable formula reported SAT")
	}
}

func TestEmptyFormulaSat(t *testing.T) {
	s := New()
	s.NewVar()
	if !s.Solve() {
		t.Fatal("empty formula UNSAT")
	}
}

func TestChainedImplications(t *testing.T) {
	// x0 → x1 → ... → x49, x0 forced true: all must be true.
	s := New()
	n := 50
	vars := make([]int, n)
	for i := range vars {
		vars[i] = s.NewVar()
	}
	for i := 0; i+1 < n; i++ {
		s.AddClause(NewLit(vars[i], true), NewLit(vars[i+1], false))
	}
	s.AddClause(NewLit(vars[0], false))
	if !s.Solve() {
		t.Fatal("UNSAT")
	}
	for i, v := range vars {
		if !s.Value(v) {
			t.Fatalf("x%d false, implication chain broken", i)
		}
	}
}

// pigeonhole encodes PHP(n+1, n): n+1 pigeons into n holes — always UNSAT
// and requires real conflict-driven search.
func pigeonhole(t *testing.T, pigeons, holes int) *Solver {
	t.Helper()
	s := New()
	x := make([][]int, pigeons)
	for p := 0; p < pigeons; p++ {
		x[p] = make([]int, holes)
		for h := 0; h < holes; h++ {
			x[p][h] = s.NewVar()
		}
	}
	// Every pigeon in some hole.
	for p := 0; p < pigeons; p++ {
		lits := make([]Lit, holes)
		for h := 0; h < holes; h++ {
			lits[h] = NewLit(x[p][h], false)
		}
		s.AddClause(lits...)
	}
	// No two pigeons share a hole.
	for h := 0; h < holes; h++ {
		for p1 := 0; p1 < pigeons; p1++ {
			for p2 := p1 + 1; p2 < pigeons; p2++ {
				s.AddClause(NewLit(x[p1][h], true), NewLit(x[p2][h], true))
			}
		}
	}
	return s
}

func TestPigeonholeUnsat(t *testing.T) {
	for n := 2; n <= 6; n++ {
		s := pigeonhole(t, n+1, n)
		if s.Solve() {
			t.Fatalf("PHP(%d,%d) reported SAT", n+1, n)
		}
	}
}

func TestPigeonholeSatWhenEnoughHoles(t *testing.T) {
	s := pigeonhole(t, 5, 5)
	if !s.Solve() {
		t.Fatal("PHP(5,5) reported UNSAT")
	}
}

func TestAssumptions(t *testing.T) {
	s := New()
	a := s.NewVar()
	b := s.NewVar()
	s.AddClause(NewLit(a, false), NewLit(b, false)) // a ∨ b
	if !s.Solve(NewLit(a, true)) {                  // assume ¬a
		t.Fatal("UNSAT under ¬a, but b can be true")
	}
	if !s.Value(b) {
		t.Error("b must be true under ¬a")
	}
	if !s.Solve(NewLit(b, true)) { // assume ¬b
		t.Fatal("UNSAT under ¬b, but a can be true")
	}
	if !s.Value(a) {
		t.Error("a must be true under ¬b")
	}
	if s.Solve(NewLit(a, true), NewLit(b, true)) { // assume ¬a ∧ ¬b
		t.Error("SAT under ¬a ∧ ¬b")
	}
	// The solver is reusable after assumption-UNSAT.
	if !s.Solve() {
		t.Error("formula itself became UNSAT")
	}
}

func TestTautologyAndDuplicates(t *testing.T) {
	s := New()
	a := s.NewVar()
	b := s.NewVar()
	s.AddClause(NewLit(a, false), NewLit(a, true)) // tautology: dropped
	s.AddClause(NewLit(b, false), NewLit(b, false), NewLit(b, false))
	if !s.Solve() {
		t.Fatal("UNSAT")
	}
	if !s.Value(b) {
		t.Error("duplicate-literal unit clause did not force b")
	}
}

// bruteForce checks satisfiability by enumeration (for cross-validation).
func bruteForce(nVars int, clauses [][]Lit) bool {
	for m := 0; m < 1<<nVars; m++ {
		ok := true
		for _, c := range clauses {
			sat := false
			for _, l := range c {
				val := m>>l.Var()&1 == 1
				if l.Sign() {
					val = !val
				}
				if val {
					sat = true
					break
				}
			}
			if !sat {
				ok = false
				break
			}
		}
		if ok {
			return true
		}
	}
	return false
}

// TestRandom3SATAgainstBruteForce is a property test: on random small 3-SAT
// instances the CDCL result must agree with exhaustive enumeration, and on
// SAT results the model must actually satisfy every clause.
func TestRandom3SATAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(12345))
	for iter := 0; iter < 300; iter++ {
		nVars := 3 + rng.Intn(10)
		nClauses := 1 + rng.Intn(5*nVars)
		var clauses [][]Lit
		for i := 0; i < nClauses; i++ {
			width := 1 + rng.Intn(3)
			c := make([]Lit, width)
			for j := range c {
				c[j] = NewLit(rng.Intn(nVars), rng.Intn(2) == 0)
			}
			clauses = append(clauses, c)
		}
		s := New()
		for v := 0; v < nVars; v++ {
			s.NewVar()
		}
		for _, c := range clauses {
			s.AddClause(c...)
		}
		got := s.Solve()
		want := bruteForce(nVars, clauses)
		if got != want {
			t.Fatalf("iter %d: solver=%v brute=%v (%d vars, %d clauses)", iter, got, want, nVars, nClauses)
		}
		if got {
			for ci, c := range clauses {
				sat := false
				for _, l := range c {
					val := s.Value(l.Var())
					if l.Sign() {
						val = !val
					}
					if val {
						sat = true
					}
				}
				if !sat {
					t.Fatalf("iter %d: model does not satisfy clause %d", iter, ci)
				}
			}
		}
	}
}

func TestLitEncoding(t *testing.T) {
	f := func(v uint16, neg bool) bool {
		l := NewLit(int(v), neg)
		return l.Var() == int(v) && l.Sign() == neg && l.Neg().Var() == int(v) && l.Neg().Sign() == !neg
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestGraphColoring(t *testing.T) {
	// K4 is 3-colorable? No: needs 4. Encode 3-coloring of K4 → UNSAT,
	// and 3-coloring of C5 (odd cycle) → SAT with 3 colors.
	colorable := func(n int, edges [][2]int, colors int) bool {
		s := New()
		x := make([][]int, n)
		for v := 0; v < n; v++ {
			x[v] = make([]int, colors)
			for c := 0; c < colors; c++ {
				x[v][c] = s.NewVar()
			}
			lits := make([]Lit, colors)
			for c := 0; c < colors; c++ {
				lits[c] = NewLit(x[v][c], false)
			}
			s.AddClause(lits...)
		}
		for _, e := range edges {
			for c := 0; c < colors; c++ {
				s.AddClause(NewLit(x[e[0]][c], true), NewLit(x[e[1]][c], true))
			}
		}
		return s.Solve()
	}
	k4 := [][2]int{{0, 1}, {0, 2}, {0, 3}, {1, 2}, {1, 3}, {2, 3}}
	if colorable(4, k4, 3) {
		t.Error("K4 3-colored")
	}
	if !colorable(4, k4, 4) {
		t.Error("K4 not 4-colored")
	}
	c5 := [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 0}}
	if colorable(5, c5, 2) {
		t.Error("C5 2-colored")
	}
	if !colorable(5, c5, 3) {
		t.Error("C5 not 3-colored")
	}
}
