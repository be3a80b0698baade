// Package logic provides a propositional formula layer over the CDCL SAT
// solver: named propositions, the usual connectives, Tseitin CNF
// conversion, clause-level assertion for constraints that are clauses
// already (AssertClauseS), and generic axiom helpers for relational
// encodings (strict total orders, transitivity), under the anomaly
// detector's bounded FOL encoding.
//
// Propositions come in two forms: Prop carries its name as a string (the
// convenient form for tests and small formulas), Atom carries an interned
// Sym resolved against the encoder's Interner (the fast form — building
// and encoding an Atom never allocates or hashes a string). A Sym is
// interned from a name (Sym, Symf) or allocated nameless under a
// caller-chosen 64-bit identity (NewSym); formula hashes digest
// identities, a name's being the hash of its bytes, so FormulaHash is
// canonical across all three (see DESIGN.md §8).
package logic

import (
	"fmt"
	"sync"

	"atropos/internal/sat"
)

// Formula is a propositional formula tree.
type Formula interface{ isFormula() }

// Prop is a named proposition.
type Prop struct{ Name string }

// Atom is an interned proposition: a Sym relative to the encoder's
// Interner. It is equivalent to Prop with the interned name — Hash and the
// encoder treat the two identically — but costs an integer where Prop
// costs a string.
type Atom struct{ S Sym }

// Not is logical negation.
type Not struct{ F Formula }

// And is n-ary conjunction (empty = true).
type And struct{ Fs []Formula }

// Or is n-ary disjunction (empty = false).
type Or struct{ Fs []Formula }

// Implies is material implication.
type Implies struct{ A, B Formula }

// Iff is logical equivalence.
type Iff struct{ A, B Formula }

// Const is a boolean constant.
type Const struct{ Val bool }

func (*Prop) isFormula()    {}
func (*Atom) isFormula()    {}
func (*Not) isFormula()     {}
func (*And) isFormula()     {}
func (*Or) isFormula()      {}
func (*Implies) isFormula() {}
func (*Iff) isFormula()     {}
func (*Const) isFormula()   {}

// P makes a named proposition from an already-built name. Use Pf to build
// the name from a printf format (keeping vet's printf check effective).
func P(name string) *Prop { return &Prop{Name: name} }

// Pf makes a named proposition from a printf format string.
func Pf(format string, args ...any) *Prop {
	return &Prop{Name: fmt.Sprintf(format, args...)}
}

// NotF negates a formula.
func NotF(f Formula) Formula { return &Not{F: f} }

// AndF conjoins formulas.
func AndF(fs ...Formula) Formula { return &And{Fs: fs} }

// OrF disjoins formulas.
func OrF(fs ...Formula) Formula { return &Or{Fs: fs} }

// ImpliesF builds a → b.
func ImpliesF(a, b Formula) Formula { return &Implies{A: a, B: b} }

// IffF builds a ↔ b.
func IffF(a, b Formula) Formula { return &Iff{A: a, B: b} }

// True and False are the boolean constants.
var (
	True  Formula = &Const{Val: true}
	False Formula = &Const{Val: false}
)

// Eval evaluates a formula under an assignment of proposition names;
// missing propositions read false. Formulas containing Atoms need EvalIn.
func Eval(f Formula, m map[string]bool) bool { return EvalIn(nil, f, m) }

// EvalIn evaluates a formula under an assignment of proposition names,
// resolving Atoms against in; missing propositions read false.
func EvalIn(in *Interner, f Formula, m map[string]bool) bool {
	switch x := f.(type) {
	case *Prop:
		return m[x.Name]
	case *Atom:
		if in == nil {
			panic("logic: EvalIn needed to evaluate an interned Atom")
		}
		return m[in.Name(x.S)]
	case *Const:
		return x.Val
	case *Not:
		return !EvalIn(in, x.F, m)
	case *And:
		for _, g := range x.Fs {
			if !EvalIn(in, g, m) {
				return false
			}
		}
		return true
	case *Or:
		for _, g := range x.Fs {
			if EvalIn(in, g, m) {
				return true
			}
		}
		return false
	case *Implies:
		return !EvalIn(in, x.A, m) || EvalIn(in, x.B, m)
	case *Iff:
		return EvalIn(in, x.A, m) == EvalIn(in, x.B, m)
	default:
		return false
	}
}

// Encoder lowers formulas into a SAT solver via Tseitin transformation,
// interning proposition names as solver variables. Syms resolve to solver
// variables by flat slice lookup; the string-keyed API (Var/Lit/Value)
// remains available and routes through the interner.
type Encoder struct {
	S  *sat.Solver
	in *Interner
	// vars maps Sym → solver variable (-1 until first encoded).
	vars  []int
	order []Sym // syms in solver-variable creation order
	// trueVar is a variable asserted true, used for constants.
	trueVar int
	// asserted and hashSum fold Hash(f) of every formula asserted since
	// RecordFormulaHashes opted in; FormulaHash digests them canonically
	// for the SAT-query cache (see hash.go).
	recordHashes bool
	asserted     uint64
	hashSum      uint64
	// scratch backs the literal lists Tseitin conversion builds, in stack
	// discipline (encode restores its frame before returning), so n-ary
	// connectives do not allocate per node.
	scratch []sat.Lit
}

// RecordFormulaHashes makes subsequent Asserts accumulate the per-formula
// hashes FormulaHash digests. Off by default so encodings that never
// consult the query cache (the fresh oracle) pay nothing.
func (e *Encoder) RecordFormulaHashes() { e.recordHashes = true }

// NewEncoder creates an encoder over a fresh solver.
func NewEncoder() *Encoder {
	e := &Encoder{S: sat.New(), in: NewInterner()}
	e.init()
	return e
}

// init asserts the shared true constant; split out so reset can replay it.
func (e *Encoder) init() {
	e.trueVar = e.S.NewVar()
	e.S.AddClause(sat.NewLit(e.trueVar, false))
}

// reset restores the encoder (and its solver and interner) to freshly
// constructed state while keeping every backing array and map bucket.
func (e *Encoder) reset() {
	e.S.Reset()
	e.in.reset()
	e.vars = e.vars[:0]
	e.order = e.order[:0]
	e.recordHashes = false
	e.asserted, e.hashSum = 0, 0
	e.scratch = e.scratch[:0]
	e.init()
}

// encoderPool recycles encoders — and, transitively, their solvers' clause
// arenas, watch lists, and per-variable arrays — across AcquireEncoder /
// Release cycles. The anomaly detector builds one encoder per (txn,
// witness) pair and discards it with the transaction; without reuse, the
// per-variable array growth of those throwaway solvers dominated the whole
// repair pipeline's allocated bytes.
var encoderPool = sync.Pool{New: func() any { return NewEncoder() }}

// AcquireEncoder returns a pooled encoder, indistinguishable from
// NewEncoder()'s result. Release it when the encoding is no longer needed;
// letting it be garbage collected instead is safe but wastes the reuse.
func AcquireEncoder() *Encoder {
	return encoderPool.Get().(*Encoder)
}

// Release resets the encoder and returns it to the pool. The caller must
// not use the encoder — or anything aliasing its solver's memory — after
// Release. Interned name strings remain valid: strings are immutable and
// independent of the interner that produced them.
func (e *Encoder) Release() {
	e.reset()
	encoderPool.Put(e)
}

// Sym interns a proposition name.
func (e *Encoder) Sym(name string) Sym { return e.in.Intern(name) }

// Symf interns a printf-formatted proposition name.
func (e *Encoder) Symf(format string, args ...any) Sym { return e.in.Internf(format, args...) }

// NameOf returns the name a Sym was interned from ("" for a NewSym).
func (e *Encoder) NameOf(s Sym) string { return e.in.Name(s) }

// NewSym allocates a nameless proposition with the given identity (see
// Interner.New): consecutive calls return consecutive Syms.
func (e *Encoder) NewSym(id uint64) Sym { return e.in.New(id) }

// IDOf returns a Sym's identity, the value formula hashes digest for it.
func (e *Encoder) IDOf(s Sym) uint64 { return e.in.ID(s) }

// Atom returns an Atom node for a Sym.
func (e *Encoder) Atom(s Sym) *Atom { return &Atom{S: s} }

// Var interns a proposition name as a solver variable.
func (e *Encoder) Var(name string) int { return e.VarS(e.in.Intern(name)) }

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
	e.order = append(e.order, s)
	return v
}

// Lit returns the literal for a named proposition.
func (e *Encoder) Lit(name string, neg bool) sat.Lit {
	return sat.NewLit(e.Var(name), neg)
}

// LitS returns the literal for an interned proposition.
func (e *Encoder) LitS(s Sym, neg bool) sat.Lit {
	return sat.NewLit(e.VarS(s), neg)
}

// Assert adds f as a hard constraint.
func (e *Encoder) Assert(f Formula) {
	if e.recordHashes {
		e.recordHash(HashIn(e.in, f))
	}
	l := e.encode(f)
	e.S.AddClause(l)
}

// encode returns a literal equivalent to f, adding Tseitin definition
// clauses as needed. The scratch stack is restored before returning.
func (e *Encoder) encode(f Formula) sat.Lit {
	switch x := f.(type) {
	case *Prop:
		return sat.NewLit(e.Var(x.Name), false)
	case *Atom:
		return sat.NewLit(e.VarS(x.S), false)
	case *Const:
		return sat.NewLit(e.trueVar, !x.Val)
	case *Not:
		return e.encode(x.F).Neg()
	case *And:
		if len(x.Fs) == 0 {
			return sat.NewLit(e.trueVar, false)
		}
		if len(x.Fs) == 1 {
			return e.encode(x.Fs[0])
		}
		base := len(e.scratch)
		for _, g := range x.Fs {
			l := e.encode(g)
			e.scratch = append(e.scratch, l)
		}
		y := e.defineAnd(e.scratch[base:])
		e.scratch = e.scratch[:base]
		return y
	case *Or:
		if len(x.Fs) == 0 {
			return sat.NewLit(e.trueVar, true)
		}
		if len(x.Fs) == 1 {
			return e.encode(x.Fs[0])
		}
		base := len(e.scratch)
		for _, g := range x.Fs {
			l := e.encode(g)
			e.scratch = append(e.scratch, l)
		}
		y := e.defineOr(e.scratch[base:])
		e.scratch = e.scratch[:base]
		return y
	case *Implies:
		// a → b ≡ ¬a ∨ b, with the same clause/aux-variable structure as
		// encoding Or{Not a, b} (inlined to skip the tree nodes).
		base := len(e.scratch)
		la := e.encode(x.A).Neg()
		e.scratch = append(e.scratch, la)
		lb := e.encode(x.B)
		e.scratch = append(e.scratch, lb)
		y := e.defineOr(e.scratch[base:])
		e.scratch = e.scratch[:base]
		return y
	case *Iff:
		a := e.encode(x.A)
		b := e.encode(x.B)
		y := sat.NewLit(e.S.NewVar(), false)
		e.S.AddClause(y.Neg(), a.Neg(), b)
		e.S.AddClause(y.Neg(), a, b.Neg())
		e.S.AddClause(y, a, b)
		e.S.AddClause(y, a.Neg(), b.Neg())
		return y
	default:
		panic(fmt.Sprintf("logic: unknown formula %T", f))
	}
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

// SolveAssuming checks satisfiability with extra assumption propositions
// (name, negated) that hold only for this query.
func (e *Encoder) SolveAssuming(assumps ...sat.Lit) bool { return e.S.Solve(assumps...) }

// Value reads a proposition's model value after a satisfiable Solve.
func (e *Encoder) Value(name string) bool {
	s, ok := e.in.index[name]
	return ok && e.ValueS(s)
}

// ValueS reads an interned proposition's model value after a satisfiable
// Solve.
func (e *Encoder) ValueS(s Sym) bool {
	return int(s) < len(e.vars) && e.vars[s] >= 0 && e.S.Value(e.vars[s])
}

// ModelValuesS reads the model values of a set of interned propositions
// after a satisfiable Solve, appending to dst in input order. It is the
// bulk counterpart of ValueS for model extraction: one call reads back a
// whole relation (an ord matrix row, a sort's equality atoms) without
// re-resolving names.
func (e *Encoder) ModelValuesS(dst []bool, syms ...Sym) []bool {
	for _, s := range syms {
		dst = append(dst, e.ValueS(s))
	}
	return dst
}

// ModelProps returns the names of all named propositions that are true in
// the current model, in solver-variable creation order.
func (e *Encoder) ModelProps() []string {
	var out []string
	for _, s := range e.order {
		if name := e.in.Name(s); name != "" && e.S.Value(e.vars[s]) {
			out = append(out, name)
		}
	}
	return out
}

// AssertStrictTotalOrder axiomatizes the propositions name(i,j), i≠j, as a
// strict total order over n items: exactly one of name(i,j), name(j,i)
// holds, and the relation is transitive. These are the generic axioms for
// an arbitrary item set, cubic in n; the anomaly detector's two-instance
// encoding grounds its own quadratic specialization (anomaly/order.go) and
// keeps these as its test oracle.
func (e *Encoder) AssertStrictTotalOrder(n int, name func(i, j int) string) {
	e.AssertStrictTotalOrderS(n, func(i, j int) Sym { return e.Sym(name(i, j)) })
}

// AssertStrictTotalOrderS is AssertStrictTotalOrder over interned
// propositions.
func (e *Encoder) AssertStrictTotalOrderS(n int, name func(i, j int) Sym) {
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			e.AssertIffNotS(name(i, j), name(j, i))
		}
	}
	e.AssertTransitiveS(n, name)
}

// AssertTransitive adds r(i,j) ∧ r(j,k) → r(i,k) for all distinct i,j,k.
func (e *Encoder) AssertTransitive(n int, name func(i, j int) string) {
	e.AssertTransitiveS(n, func(i, j int) Sym { return e.Sym(name(i, j)) })
}

// AssertTransitiveS is AssertTransitive over interned propositions.
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

// AssertImpliesAnd2S asserts (a ∧ b) → c. It is the allocation-free fast
// path for the generic axiom helpers' inner loop — O(n³) assertions per
// relation — and is defined to be indistinguishable from
// Assert(ImpliesF(AndF(Atom(a), Atom(b)), Atom(c))): the same recorded
// formula hash, and the same aux-variable and clause sequence.
func (e *Encoder) AssertImpliesAnd2S(a, b, c Sym) {
	if e.recordHashes {
		h := fnvByte(fnvByte(fnvOffset, 7), 5) // Implies(And(...
		h = fnvUint64(fnvByte(h, 1), e.in.ID(a))
		h = fnvUint64(fnvByte(h, 1), e.in.ID(b))
		h = fnvByte(h, 0xfe) // ...)
		h = fnvUint64(fnvByte(h, 1), e.in.ID(c))
		e.recordHash(h)
	}
	base := len(e.scratch)
	e.scratch = append(e.scratch, sat.NewLit(e.VarS(a), false), sat.NewLit(e.VarS(b), false))
	y1 := e.defineAnd(e.scratch[base:])
	e.scratch = e.scratch[:base]
	e.scratch = append(e.scratch, y1.Neg(), sat.NewLit(e.VarS(c), false))
	y2 := e.defineOr(e.scratch[base:])
	e.scratch = e.scratch[:base]
	e.S.AddClause(y2)
}

// AssertIffNotS asserts a ↔ ¬b, indistinguishable from
// Assert(IffF(Atom(a), NotF(Atom(b)))) (see AssertImpliesAnd2S).
func (e *Encoder) AssertIffNotS(a, b Sym) {
	if e.recordHashes {
		h := fnvUint64(fnvByte(fnvByte(fnvOffset, 8), 1), e.in.ID(a)) // Iff(a,
		h = fnvUint64(fnvByte(fnvByte(h, 4), 1), e.in.ID(b))          // Not(b))
		e.recordHash(h)
	}
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
// as (¬a ∨ b), Horn steps a ∧ b → c as (¬a ∨ ¬b ∨ c) — where Assert on the
// equivalent formula would spend an aux variable and three more clauses
// per implication. The clause records a formula hash like any Assert
// (literal order is part of the identity, as operand order is for a
// connective), under a tag of its own: a clause never hashes like the
// Tseitin'd Or of the same literals, whose variable stream differs.
func (e *Encoder) AssertClauseS(lits ...SymLit) {
	if e.recordHashes {
		h := fnvByte(fnvOffset, 10)
		for _, l := range lits {
			if l&1 == 1 {
				h = fnvByte(h, 4)
			}
			h = fnvUint64(fnvByte(h, 1), e.in.ID(Sym(l>>1)))
		}
		e.recordHash(fnvByte(h, 0xfe))
	}
	base := len(e.scratch)
	for _, l := range lits {
		e.scratch = append(e.scratch, sat.NewLit(e.VarS(Sym(l>>1)), l&1 == 1))
	}
	e.S.AddClause(e.scratch[base:]...)
	e.scratch = e.scratch[:base]
}

// String renders a formula for diagnostics; Atoms print as @sym (use
// StringIn to resolve their names).
func String(f Formula) string { return StringIn(nil, f) }

// StringIn renders a formula for diagnostics, resolving Atoms against in.
func StringIn(in *Interner, f Formula) string {
	switch x := f.(type) {
	case *Prop:
		return x.Name
	case *Atom:
		if in == nil {
			return fmt.Sprintf("@%d", x.S)
		}
		return in.Name(x.S)
	case *Const:
		return fmt.Sprintf("%t", x.Val)
	case *Not:
		return "!" + StringIn(in, x.F)
	case *And:
		return nary(in, "&", x.Fs)
	case *Or:
		return nary(in, "|", x.Fs)
	case *Implies:
		return "(" + StringIn(in, x.A) + " -> " + StringIn(in, x.B) + ")"
	case *Iff:
		return "(" + StringIn(in, x.A) + " <-> " + StringIn(in, x.B) + ")"
	default:
		return "?"
	}
}

func nary(in *Interner, op string, fs []Formula) string {
	s := "("
	for i, f := range fs {
		if i > 0 {
			s += " " + op + " "
		}
		s += StringIn(in, f)
	}
	return s + ")"
}
