package logic

import "testing"

func TestFormulaHashOrderIndependent(t *testing.T) {
	build := func(order []int) uint64 {
		e := NewEncoder()
		a, b, c := e.Symf("a"), e.Symf("b"), e.Symf("c")
		asserts := []func(){
			func() { e.AssertClauseS(Pos(a)) },
			func() { e.AssertClauseS(Pos(b), Pos(c)) },
			func() { e.AssertImpliesAnd2S(a, b, c) },
		}
		for _, i := range order {
			asserts[i]()
		}
		return e.FormulaHash()
	}
	fwd := build([]int{0, 1, 2})
	if rev := build([]int{2, 1, 0}); rev != fwd {
		t.Error("FormulaHash depends on assertion order")
	}
	if other := build([]int{0, 1}); other == fwd {
		t.Error("different assertion sets share a FormulaHash")
	}
	// Duplicate assertions change the multiset, so they change the digest.
	if dup := build([]int{0, 0, 1, 2}); dup == fwd {
		t.Error("duplicated assertion not reflected in FormulaHash")
	}
}

// TestAssertClauseSHashes: clause-level assertions feed FormulaHash by
// proposition identity, sign and literal order, and never collide with the
// Tseitin'd axioms over the same propositions, whose variable stream
// differs.
func TestAssertClauseSHashes(t *testing.T) {
	digest := func(build func(e *Encoder, a, b Sym)) uint64 {
		e := NewEncoder()
		e.Symf("pad") // shift Sym numbering: hashes must follow names, not Syms
		build(e, e.Symf("a"), e.Symf("b"))
		return e.FormulaHash()
	}
	variants := []func(e *Encoder, a, b Sym){
		func(e *Encoder, a, b Sym) {},
		func(e *Encoder, a, b Sym) { e.AssertClauseS(Neg(a), Pos(b)) },
		func(e *Encoder, a, b Sym) { e.AssertClauseS(Pos(b), Neg(a)) },
		func(e *Encoder, a, b Sym) { e.AssertClauseS(Pos(a), Pos(b)) },
		func(e *Encoder, a, b Sym) { e.AssertClauseS(Pos(a)); e.AssertClauseS(Pos(b)) },
		func(e *Encoder, a, b Sym) { e.AssertClauseS(Neg(a)) },
		func(e *Encoder, a, b Sym) { e.AssertIffNotS(a, b) },
		func(e *Encoder, a, b Sym) { e.AssertImpliesAnd2S(a, a, b) },
	}
	seen := map[uint64]int{}
	for i, v := range variants {
		h := digest(v)
		if j, ok := seen[h]; ok {
			t.Errorf("assertion sets %d and %d share a FormulaHash", j, i)
		}
		seen[h] = i
	}
	e := NewEncoder()
	e.AssertClauseS(Neg(e.Symf("a")), Pos(e.Symf("b")))
	if e.FormulaHash() != digest(variants[1]) {
		t.Error("clause hash depends on Sym numbering")
	}
}
