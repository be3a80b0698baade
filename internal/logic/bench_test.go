package logic

import (
	"fmt"
	"testing"
)

// Allocation-reporting microbenchmarks for the encoder: the interned-atom
// path (Sym matrices, scratch-backed Tseitin) versus
// the convenience string path.

// BenchmarkAssertTotalOrderSyms measures the relational-axiom fast path:
// pre-interned syms, O(n³) transitivity assertion.
func BenchmarkAssertTotalOrderSyms(b *testing.B) {
	const n = 10
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := NewEncoder()
		syms := make([][]Sym, n)
		for x := 0; x < n; x++ {
			syms[x] = make([]Sym, n)
			for y := 0; y < n; y++ {
				syms[x][y] = e.Symf("o_%d_%d", x, y)
			}
		}
		e.AssertStrictTotalOrderS(n, func(x, y int) Sym { return syms[x][y] })
	}
}

// BenchmarkAssertTotalOrderStrings is the same workload through the
// string-named API: every proposition use rebuilds and re-interns its
// name (the pre-interning baseline's cost model).
func BenchmarkAssertTotalOrderStrings(b *testing.B) {
	const n = 10
	name := func(x, y int) string { return fmt.Sprintf("o_%d_%d", x, y) }
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := NewEncoder()
		e.AssertStrictTotalOrder(n, name)
	}
}

// BenchmarkEncodeNestedFormula measures Tseitin conversion of a mixed
// connective tree over interned atoms.
func BenchmarkEncodeNestedFormula(b *testing.B) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := NewEncoder()
		syms := make([]Sym, 24)
		for j := range syms {
			syms[j] = e.Symf("p%d", j)
		}
		for j := 0; j+3 < len(syms); j++ {
			e.Assert(ImpliesF(
				AndF(e.Atom(syms[j]), e.Atom(syms[j+1])),
				OrF(e.Atom(syms[j+2]), NotF(e.Atom(syms[j+3]))),
			))
		}
		if !e.Solve() {
			b.Fatal("UNSAT")
		}
	}
}
