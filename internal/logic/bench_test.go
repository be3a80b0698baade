package logic

import "testing"

// BenchmarkAssertTotalOrderSyms measures the relational-axiom path:
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
