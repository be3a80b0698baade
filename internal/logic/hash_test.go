package logic

import "testing"

func TestHashStructural(t *testing.T) {
	a := AndF(P("x"), NotF(P("y")))
	b := AndF(P("x"), NotF(P("y")))
	if Hash(a) != Hash(b) {
		t.Error("equal formulas hash differently")
	}
	distinct := []Formula{
		P("x"), P("y"), NotF(P("x")), AndF(P("x"), P("y")), OrF(P("x"), P("y")),
		ImpliesF(P("x"), P("y")), ImpliesF(P("y"), P("x")), IffF(P("x"), P("y")),
		True, False, AndF(), OrF(),
	}
	seen := map[uint64]int{}
	for i, f := range distinct {
		h := Hash(f)
		if j, ok := seen[h]; ok {
			t.Errorf("formulas %d and %d collide: %s vs %s", j, i, String(distinct[j]), String(f))
		}
		seen[h] = i
	}
}

func TestFormulaHashOrderIndependent(t *testing.T) {
	build := func(order []Formula) uint64 {
		e := NewEncoder()
		e.RecordFormulaHashes()
		for _, f := range order {
			e.Assert(f)
		}
		return e.FormulaHash()
	}
	fs := []Formula{P("a"), OrF(P("b"), P("c")), ImpliesF(P("a"), P("c"))}
	fwd := build(fs)
	rev := build([]Formula{fs[2], fs[1], fs[0]})
	if fwd != rev {
		t.Error("FormulaHash depends on assertion order")
	}
	other := build([]Formula{fs[0], fs[1]})
	if other == fwd {
		t.Error("different assertion sets share a FormulaHash")
	}
	// Duplicate assertions change the multiset, so they change the digest.
	dup := build([]Formula{fs[0], fs[0], fs[1], fs[2]})
	if dup == fwd {
		t.Error("duplicated assertion not reflected in FormulaHash")
	}
}

func TestFormulaHashOptIn(t *testing.T) {
	e := NewEncoder()
	e.Assert(P("x")) // recording off: nothing accumulated
	if e.asserted != 0 {
		t.Error("Assert recorded hashes without RecordFormulaHashes")
	}
}

// TestAssertClauseSHashes: clause-level assertions feed FormulaHash like any
// Assert — by proposition name, sign and literal order — and never collide
// with the Tseitin'd disjunction of the same literals, whose variable
// stream differs.
func TestAssertClauseSHashes(t *testing.T) {
	digest := func(build func(e *Encoder, a, b Sym)) uint64 {
		e := NewEncoder()
		e.RecordFormulaHashes()
		e.Sym("pad") // shift Sym numbering: hashes must follow names, not Syms
		build(e, e.Sym("a"), e.Sym("b"))
		return e.FormulaHash()
	}
	variants := []func(e *Encoder, a, b Sym){
		func(e *Encoder, a, b Sym) {},
		func(e *Encoder, a, b Sym) { e.AssertClauseS(Neg(a), Pos(b)) },
		func(e *Encoder, a, b Sym) { e.AssertClauseS(Pos(b), Neg(a)) },
		func(e *Encoder, a, b Sym) { e.AssertClauseS(Pos(a), Pos(b)) },
		func(e *Encoder, a, b Sym) { e.AssertClauseS(Pos(a)); e.AssertClauseS(Pos(b)) },
		func(e *Encoder, a, b Sym) { e.AssertClauseS(Neg(a)) },
		func(e *Encoder, a, b Sym) { e.Assert(OrF(NotF(e.Atom(a)), e.Atom(b))) },
		func(e *Encoder, a, b Sym) { e.Assert(ImpliesF(e.Atom(a), e.Atom(b))) },
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
	e.RecordFormulaHashes()
	e.AssertClauseS(Neg(e.Sym("a")), Pos(e.Sym("b")))
	if e.FormulaHash() != digest(variants[1]) {
		t.Error("clause hash depends on Sym numbering")
	}
}
