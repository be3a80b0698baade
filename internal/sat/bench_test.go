package sat

import (
	"math/rand"
	"testing"
)

// Allocation-reporting solver microbenchmarks: clause loading, a long
// stateful assumption-query sequence (the anomaly oracle's usage pattern),
// and conflict-heavy search.

// BenchmarkAddClauses measures clause construction: simplification and
// watcher attachment.
func BenchmarkAddClauses(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	const nVars, nClauses = 200, 2000
	clauses := make([][]Lit, nClauses)
	for i := range clauses {
		width := 2 + rng.Intn(4)
		c := make([]Lit, width)
		for j := range c {
			c[j] = NewLit(rng.Intn(nVars), rng.Intn(2) == 0)
		}
		clauses[i] = c
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := New()
		for v := 0; v < nVars; v++ {
			s.NewVar()
		}
		for _, c := range clauses {
			s.AddClause(c...)
		}
	}
}

// BenchmarkSolveAssumingSequence runs many assumption queries on one
// solver — the oracle's witness loop shape — so learnt clauses, phases,
// and activities accumulate across queries.
func BenchmarkSolveAssumingSequence(b *testing.B) {
	rng := rand.New(rand.NewSource(11))
	const nVars = 60
	clauses := make([][]Lit, 3*nVars)
	for i := range clauses {
		c := make([]Lit, 3)
		for j := range c {
			c[j] = NewLit(rng.Intn(nVars), rng.Intn(2) == 0)
		}
		clauses[i] = c
	}
	queries := make([][2]Lit, 64)
	for i := range queries {
		queries[i] = [2]Lit{
			NewLit(rng.Intn(nVars), rng.Intn(2) == 0),
			NewLit(rng.Intn(nVars), rng.Intn(2) == 0),
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := New()
		for v := 0; v < nVars; v++ {
			s.NewVar()
		}
		for _, c := range clauses {
			s.AddClause(c...)
		}
		for _, q := range queries {
			s.Solve(q[0], q[1])
		}
	}
}

func BenchmarkPigeonhole8(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := New()
		buildPigeonhole(s, 8, 7)
		if s.Solve() {
			b.Fatal("PHP(8,7) SAT")
		}
	}
}

func buildPigeonhole(s *Solver, pigeons, holes int) {
	x := make([][]int, pigeons)
	for p := 0; p < pigeons; p++ {
		x[p] = make([]int, holes)
		for h := 0; h < holes; h++ {
			x[p][h] = s.NewVar()
		}
	}
	for p := 0; p < pigeons; p++ {
		lits := make([]Lit, holes)
		for h := 0; h < holes; h++ {
			lits[h] = NewLit(x[p][h], false)
		}
		s.AddClause(lits...)
	}
	for h := 0; h < holes; h++ {
		for p1 := 0; p1 < pigeons; p1++ {
			for p2 := p1 + 1; p2 < pigeons; p2++ {
				s.AddClause(NewLit(x[p1][h], true), NewLit(x[p2][h], true))
			}
		}
	}
}
