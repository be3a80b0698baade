// Package logic is the clause layer between a relational SAT encoding and
// the CDCL solver (internal/sat): interned propositions, clause-level
// assertion (AssertClauseS), the generic axioms of a strict total order and
// of transitivity, model readback, and an order-independent digest of what
// was asserted (FormulaHash), which every encoder keeps.
//
// Detection does not use it: each cycle query is decided by the small
// model over its own commands (internal/anomaly, DESIGN.md §3). Its
// callers are the SAT encoding that internal/anomaly's tests keep as that
// decision procedure's differential oracle, and the benchmark's encoder
// probes; no command or example links it (make oracle-guard). An encoder
// is built fresh for each encoding and dropped after it.
//
// A proposition is a Sym, interned from a name (Symf) or allocated
// nameless under a caller-chosen 64-bit identity (NewSym); formula hashes
// digest identities, a name's being the hash of its bytes, so FormulaHash
// is canonical across both (see DESIGN.md §8).
package logic

import "atropos/internal/sat"

// Encoder asserts clauses over interned propositions into a SAT solver.
// Syms resolve to solver variables by flat slice lookup.
type Encoder struct {
	S  *sat.Solver
	in *Interner
	// vars maps Sym → solver variable (-1 until first used).
	vars []int
	// asserted and hashSum fold the hash of every assertion; FormulaHash
	// digests them canonically (see hash.go).
	asserted uint64
	hashSum  uint64
	// scratch backs the literal lists assertions build, in stack
	// discipline; the solver copies each clause it keeps.
	scratch []sat.Lit
}

// NewEncoder creates an encoder over a fresh solver.
func NewEncoder() *Encoder {
	e := &Encoder{S: sat.New(), in: NewInterner()}
	// Variable 0 is asserted true. No assertion refers to it, but it fixes
	// every encoding's variable numbering — and with it the solver's
	// search — to start at 1.
	e.S.AddClause(sat.NewLit(e.S.NewVar(), false))
	return e
}

// AcquireEncoder returns NewEncoder().
//
// Deprecated: encoders are not pooled; use NewEncoder. bench/probes.go is
// the last caller.
func AcquireEncoder() *Encoder { return NewEncoder() }

// Release does nothing.
//
// Deprecated: encoders are not pooled; drop the encoder instead.
// bench/probes.go is the last caller.
func (e *Encoder) Release() {}

// Symf interns a printf-formatted proposition name.
func (e *Encoder) Symf(format string, args ...any) Sym { return e.in.Internf(format, args...) }

// NewSym allocates a nameless proposition with the given identity (see
// Interner.New): consecutive calls return consecutive Syms.
func (e *Encoder) NewSym(id uint64) Sym { return e.in.New(id) }

// VarS returns the solver variable backing a Sym, creating it on first use.
func (e *Encoder) VarS(s Sym) int {
	for int(s) >= len(e.vars) {
		e.vars = append(e.vars, -1)
	}
	if v := e.vars[s]; v >= 0 {
		return v
	}
	v := e.S.NewVar()
	e.vars[s] = v
	return v
}

// LitS returns the literal for an interned proposition.
func (e *Encoder) LitS(s Sym, neg bool) sat.Lit {
	return sat.NewLit(e.VarS(s), neg)
}

// defineAnd introduces y ↔ (∧ lits) and returns y. lits may alias the
// scratch stack; the solver copies clause literals on AddClause.
func (e *Encoder) defineAnd(lits []sat.Lit) sat.Lit {
	y := sat.NewLit(e.S.NewVar(), false)
	base := len(e.scratch)
	for _, l := range lits {
		e.S.AddClause(y.Neg(), l) // y → l
		e.scratch = append(e.scratch, l.Neg())
	}
	e.scratch = append(e.scratch, y) // (∧ l) → y
	e.S.AddClause(e.scratch[base:]...)
	e.scratch = e.scratch[:base]
	return y
}

// defineOr introduces y ↔ (∨ lits) and returns y.
func (e *Encoder) defineOr(lits []sat.Lit) sat.Lit {
	y := sat.NewLit(e.S.NewVar(), false)
	base := len(e.scratch)
	for _, l := range lits {
		e.S.AddClause(l.Neg(), y) // l → y
		e.scratch = append(e.scratch, l)
	}
	e.scratch = append(e.scratch, y.Neg()) // y → (∨ l)
	e.S.AddClause(e.scratch[base:]...)
	e.scratch = e.scratch[:base]
	return y
}

// Solve checks satisfiability of the asserted constraints.
func (e *Encoder) Solve() bool { return e.S.Solve() }

// SolveAssuming checks satisfiability with extra assumption literals that
// hold only for this query.
func (e *Encoder) SolveAssuming(assumps ...sat.Lit) bool { return e.S.Solve(assumps...) }

// ValueS reads an interned proposition's model value after a satisfiable
// Solve.
func (e *Encoder) ValueS(s Sym) bool {
	return int(s) < len(e.vars) && e.vars[s] >= 0 && e.S.Value(e.vars[s])
}

// ModelValuesS reads the model values of a set of interned propositions
// after a satisfiable Solve, appending to dst in input order: one call
// reads back a whole relation (an ord matrix row, a sort's equality atoms).
func (e *Encoder) ModelValuesS(dst []bool, syms ...Sym) []bool {
	for _, s := range syms {
		dst = append(dst, e.ValueS(s))
	}
	return dst
}

// AssertStrictTotalOrderS axiomatizes the propositions name(i,j), i≠j, as
// a strict total order over n items: exactly one of name(i,j), name(j,i)
// holds, and the relation is transitive. These are the generic axioms for
// an arbitrary item set, cubic in n; the SAT oracle's two-instance
// encoding keeps them to check its quadratic specialization against.
func (e *Encoder) AssertStrictTotalOrderS(n int, name func(i, j int) Sym) {
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			e.AssertIffNotS(name(i, j), name(j, i))
		}
	}
	e.AssertTransitiveS(n, name)
}

// AssertTransitiveS adds r(i,j) ∧ r(j,k) → r(i,k) for all distinct i,j,k.
func (e *Encoder) AssertTransitiveS(n int, name func(i, j int) Sym) {
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if j == i {
				continue
			}
			for k := 0; k < n; k++ {
				if k == i || k == j {
					continue
				}
				e.AssertImpliesAnd2S(name(i, j), name(j, k), name(i, k))
			}
		}
	}
}

// AssertImpliesAnd2S asserts (a ∧ b) → c, Tseitin-style: y1 ↔ a ∧ b,
// y2 ↔ ¬y1 ∨ c, and y2.
func (e *Encoder) AssertImpliesAnd2S(a, b, c Sym) {
	h := fnvByte(fnvByte(fnvOffset, 7), 5) // Implies(And(...
	h = fnvUint64(fnvByte(h, 1), e.in.ID(a))
	h = fnvUint64(fnvByte(h, 1), e.in.ID(b))
	h = fnvByte(h, 0xfe) // ...)
	h = fnvUint64(fnvByte(h, 1), e.in.ID(c))
	e.recordHash(h)
	base := len(e.scratch)
	e.scratch = append(e.scratch, sat.NewLit(e.VarS(a), false), sat.NewLit(e.VarS(b), false))
	y1 := e.defineAnd(e.scratch[base:])
	e.scratch = e.scratch[:base]
	e.scratch = append(e.scratch, y1.Neg(), sat.NewLit(e.VarS(c), false))
	y2 := e.defineOr(e.scratch[base:])
	e.scratch = e.scratch[:base]
	e.S.AddClause(y2)
}

// AssertIffNotS asserts a ↔ ¬b, Tseitin-style: y ↔ (a ↔ ¬b), and y.
func (e *Encoder) AssertIffNotS(a, b Sym) {
	h := fnvUint64(fnvByte(fnvByte(fnvOffset, 8), 1), e.in.ID(a)) // Iff(a,
	h = fnvUint64(fnvByte(fnvByte(h, 4), 1), e.in.ID(b))          // Not(b))
	e.recordHash(h)
	la := sat.NewLit(e.VarS(a), false)
	lb := sat.NewLit(e.VarS(b), true)
	y := sat.NewLit(e.S.NewVar(), false)
	e.S.AddClause(y.Neg(), la.Neg(), lb)
	e.S.AddClause(y.Neg(), la, lb.Neg())
	e.S.AddClause(y, la, lb)
	e.S.AddClause(y, la.Neg(), lb.Neg())
	e.S.AddClause(y)
}

// SymLit is a clause literal over an interned proposition: the Sym, or its
// negation.
type SymLit int32

// Pos is the literal "s holds".
func Pos(s Sym) SymLit { return SymLit(s) << 1 }

// Neg is the literal "s does not hold".
func Neg(s Sym) SymLit { return SymLit(s)<<1 | 1 }

// Not is the complementary literal.
func (l SymLit) Not() SymLit { return l ^ 1 }

// AssertClauseS asserts the disjunction of lits as exactly one solver
// clause: no Tseitin variable, no definition clauses. It is the entry
// point for axioms that are clauses already — units, implications a → b
// as (¬a ∨ b), Horn steps a ∧ b → c as (¬a ∨ ¬b ∨ c). The clause records a
// formula hash (literal order is part of the identity) under a tag of its
// own.
func (e *Encoder) AssertClauseS(lits ...SymLit) {
	h := fnvByte(fnvOffset, 10)
	for _, l := range lits {
		if l&1 == 1 {
			h = fnvByte(h, 4)
		}
		h = fnvUint64(fnvByte(h, 1), e.in.ID(Sym(l>>1)))
	}
	e.recordHash(fnvByte(h, 0xfe))
	base := len(e.scratch)
	for _, l := range lits {
		e.scratch = append(e.scratch, sat.NewLit(e.VarS(Sym(l>>1)), l&1 == 1))
	}
	e.S.AddClause(e.scratch[base:]...)
	e.scratch = e.scratch[:base]
}
