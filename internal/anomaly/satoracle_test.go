package anomaly

import (
	"iter"
	"slices"
	"strings"

	"atropos/internal/ast"

	"atropos/internal/logic"
	"atropos/internal/sat"
)

// The SAT encoding of a planned pair — what detection solved before the
// small model (smallmodel.go) replaced it — kept as the differential oracle
// the small model is checked against (smallmodel_test.go). A satBody is the
// bounded first-order encoding of the pair's two instances: ord, vis (and
// co under CC) as proposition matrices, free equality atoms between key
// terms with transitivity per sort, per-field edge propositions, dep
// propositions as their disjunctions, and the model's visibility axioms.

// satBody is one plan's encoding on its own solver.
type satBody struct {
	*pairPlan
	enc *logic.Encoder
	// ord, vis, dep (and co under CC) are the relational propositions.
	ord, vis, dep, co rel
	// sorts are the (table, primary-key field) sorts with their terms and
	// equality atoms; keyRefs[keyOff[x]+k] locates the term of item x's
	// k-th key field in them.
	sorts   []eqSort
	keyRefs []termRef
	keyOff  []int
	// edges[x*n+y] spans the per-field edge propositions behind dep(x→y)
	// in props.
	edges [][2]int32
	props []edgeProp
	// eqAtoms indexes the free equality atoms in first-use order.
	eqAtoms []eqAtomProp
}

// eqAtomProp records, for one free equality proposition, the sort and term
// pair behind it.
type eqAtomProp struct {
	sym          logic.Sym
	table, field string
	a, b         string
}

// newBody builds pe's encoding under model on a fresh encoder, grounding
// the order relations by ax (mergeOrder unless a test compares axioms).
func newBody(pe *pairPlan, model Model, ax orderAxioms) *satBody {
	b := &satBody{pairPlan: pe}
	le := logic.NewEncoder()
	b.build(le, model, ax)
	return b
}

// solve reports whether dep(q[0]→q[1]) ∧ dep(q[2]→q[3]) is satisfiable
// together with the extra literals.
func (pe *satBody) solve(q [4]int, extra ...logic.SymLit) bool {
	lits := make([]sat.Lit, 0, 2+len(extra))
	lits = append(lits, pe.enc.LitS(pe.dep.at(q[0], q[1]), false), pe.enc.LitS(pe.dep.at(q[2], q[3]), false))
	for _, l := range extra {
		lits = append(lits, pe.enc.LitS(logic.Sym(l>>1), l&1 == 1))
	}
	return pe.enc.SolveAssuming(lits...)
}

type edgeProp struct {
	sym   logic.Sym
	kind  EdgeKind
	field string
}

// Proposition identities (logic.Interner): a family tag plus the item
// indices, for equality atoms and edges chained with the strings that
// name the sort and terms, or the kind and field. They carry exactly what the printed names
// o_i_j, v_i_j, co_i_j, dep_i_j, eq_table_field_a=b and e_kind_x_y_field
// used to, so equal formula hashes still mean equal encodings.
const (
	tagOrd = iota + 1
	tagVis
	tagDep
	tagCo
	tagEq
	tagEdge
)

func relID(tag, i, j int) uint64 { return uint64(tag)<<56 | uint64(i)<<28 | uint64(j) }

// rel is one relation over the n items: a contiguous range of nameless
// propositions, (i, j) at base + i·n + j. The diagonal is never used.
type rel struct {
	base logic.Sym
	n    int
}

func newRel(e *logic.Encoder, tag, n int) rel {
	r := rel{base: e.NewSym(relID(tag, 0, 0)), n: n}
	for k := 1; k < n*n; k++ {
		e.NewSym(relID(tag, k/n, k%n))
	}
	return r
}

func (r rel) at(i, j int) logic.Sym { return r.base + logic.Sym(i*r.n+j) }

// build asserts the encoding of the planned pair on the supplied (fresh or
// freshly reset) encoder; ax grounds the order relations.
func (pe *satBody) build(le *logic.Encoder, model Model, ax orderAxioms) {
	pe.enc = le
	n := pe.n
	pe.ord = newRel(le, tagOrd, n)
	pe.vis = newRel(le, tagVis, n)
	pe.dep = newRel(le, tagDep, n)
	// Axiom: ord (the execution counter) is a strict total order extending
	// program order within each instance.
	ax.ord(le, pe.nA, pe.ord)
	// Axiom: vis ⊆ ord for every cross-instance writer pair.
	for x := 0; x < n; x++ {
		if !pe.item(x).writer() {
			continue
		}
		for y := 0; y < n; y++ {
			if pe.inst(y) != pe.inst(x) {
				implies(le, pe.vis.at(x, y), pe.ord.at(x, y))
			}
		}
	}
	pe.assertTermCongruence()
	pe.defineEdges()
	pe.assertModelAxioms(model, ax)
}

// termRef locates a term: its sort in pe.sorts and its index in the sort.
type termRef struct{ sort, term int }

// eqSort is one (table, primary-key field) sort: the distinct terms the
// pair's commands pin the field to, sorted by id, and the T×T table of the
// free equality atoms between them (row < column; 0 until first used, then
// the Sym plus one).
type eqSort struct {
	table, field string
	terms        []term
	atoms        []logic.Sym
}

// indexTerms groups the key terms of all items into sorts and records
// where each item's terms landed.
func (pe *satBody) indexTerms() {
	type use struct {
		table string
		kt    strKeyTerm
		ref   int
	}
	pe.keyOff = make([]int, pe.n+1)
	var uses []use
	for x := 0; x < pe.n; x++ {
		pe.keyOff[x] = len(uses)
		for _, kt := range pe.strKey(x) {
			uses = append(uses, use{pe.tableName(x), kt, len(uses)})
		}
	}
	pe.keyOff[pe.n] = len(uses)
	// Sorted (table, field, term) order keeps proposition numbering
	// deterministic across runs (see defineEdges).
	slices.SortFunc(uses, func(a, b use) int {
		if c := strings.Compare(a.table, b.table); c != 0 {
			return c
		}
		if c := strings.Compare(a.kt.field, b.kt.field); c != 0 {
			return c
		}
		return strings.Compare(a.kt.term.id, b.kt.term.id)
	})
	pe.keyRefs = make([]termRef, len(uses))
	for i, u := range uses {
		if i == 0 || u.table != uses[i-1].table || u.kt.field != uses[i-1].kt.field {
			pe.sorts = append(pe.sorts, eqSort{table: u.table, field: u.kt.field})
		}
		s := &pe.sorts[len(pe.sorts)-1]
		if len(s.terms) == 0 || s.terms[len(s.terms)-1].id != u.kt.term.id {
			s.terms = append(s.terms, u.kt.term)
		}
		pe.keyRefs[u.ref] = termRef{len(pe.sorts) - 1, len(s.terms) - 1}
	}
	for i := range pe.sorts {
		s := &pe.sorts[i]
		s.atoms = make([]logic.Sym, len(s.terms)*len(s.terms))
	}
}

// eqAtom decides the equality of terms a ≠ b of sort si; when it is
// execution-dependent (eqUnknown) it also returns the free atom standing
// for it.
func (pe *satBody) eqAtom(si, a, b int) (logic.Sym, eqStatus) {
	if b < a {
		a, b = b, a
	}
	s := &pe.sorts[si]
	ta, tb := s.terms[a], s.terms[b]
	status := decideStrEq(ta, tb)
	if status != eqUnknown {
		return -1, status
	}
	atom := &s.atoms[a*len(s.terms)+b]
	if *atom == 0 {
		id := ast.NewHasher().Uint(relID(tagEq, 0, 0))
		for _, part := range [...]string{s.table, s.field, ta.id, tb.id} {
			id = id.Str(part)
		}
		*atom = pe.enc.NewSym(id.Sum()) + 1
		pe.eqAtoms = append(pe.eqAtoms, eqAtomProp{sym: *atom - 1, table: s.table, field: s.field, a: ta.id, b: tb.id})
	}
	return *atom - 1, status
}

// assertTermCongruence adds transitivity over the free equality atoms of
// each (table, field) sort.
func (pe *satBody) assertTermCongruence() {
	pe.indexTerms()
	for si := range pe.sorts {
		T := len(pe.sorts[si].terms)
		for a := 0; a < T; a++ {
			for b := 0; b < T; b++ {
				if b == a {
					continue
				}
				for c := 0; c < T; c++ {
					if c == a || c == b {
						continue
					}
					// eq(a,b) ∧ eq(b,c) → eq(a,c) as one clause. Distinct
					// ids are never decided equal, so each equality is a
					// free atom or false: a false premise makes the
					// instance vacuous, a false conclusion drops out.
					ab, abEq := pe.eqAtom(si, a, b)
					bc, bcEq := pe.eqAtom(si, b, c)
					ac, acEq := pe.eqAtom(si, a, c)
					switch {
					case abEq == eqFalse || bcEq == eqFalse:
					case acEq == eqFalse:
						pe.enc.AssertClauseS(logic.Neg(ab), logic.Neg(bc))
					default:
						pe.enc.AssertClauseS(logic.Neg(ab), logic.Neg(bc), logic.Pos(ac))
					}
				}
			}
		}
	}
}

// commonFields yields the positions (i in a, j in b) of every field both
// constraints pin.
func commonFields(a, b keyConstraint) iter.Seq2[int, int] {
	return func(yield func(int, int) bool) {
		for i, j := 0, 0; i < len(a) && j < len(b); {
			switch {
			case a[i].bit < b[j].bit:
				i++
			case a[i].bit > b[j].bit:
				j++
			default:
				if !yield(i, j) {
					return
				}
				i++
				j++
			}
		}
	}
}

// aliasAtoms appends to dst the free equality atoms that must all hold for
// x and y, commands on one table, to access a common record: every
// primary-key field pinned by both must pin equal values. A field pinned
// to one term by both contributes nothing, and none is pinned to terms
// decided unequal — the plan left such pairs out (mustDiffer).
func (pe *satBody) aliasAtoms(dst []logic.Sym, x, y int) []logic.Sym {
	for i, j := range commonFields(pe.key(x), pe.key(y)) {
		rx, ry := pe.keyRefs[pe.keyOff[x]+i], pe.keyRefs[pe.keyOff[y]+j]
		if rx.term != ry.term {
			s, _ := pe.eqAtom(rx.sort, rx.term, ry.term)
			dst = append(dst, s)
		}
	}
	return dst
}

// defineEdges introduces the per-field dependency-edge propositions and the
// aggregated dep(x→y) propositions for the cross-instance command pairs the
// plan lists (each in both directions). Both definitions are asserted as
// the clauses they are — e ↔ alias ∧ cond as (¬e ∨ a) for each conjunct
// and (e ∨ ¬a₁ ∨ … ∨ ¬cond), dep ↔ e₁ ∨ … ∨ eₘ likewise — with no
// auxiliary variable.
func (pe *satBody) defineEdges() {
	n := pe.n
	planned := make([]bool, n*n)
	for a := range pe.nA {
		for _, b := range pe.cands(a) {
			planned[a*n+b], planned[b*n+a] = true, true
		}
	}
	pe.edges = make([][2]int32, n*n)
	var alias []logic.Sym
	var clause []logic.SymLit
	for x := 0; x < n; x++ {
		for y := 0; y < n; y++ {
			if !planned[x*n+y] {
				continue
			}
			xr, xw, yr, yw := pe.readNames(x), pe.writeNames(x), pe.readNames(y), pe.writeNames(y)
			alias = pe.aliasAtoms(alias[:0], x, y)
			lo := len(pe.props)
			addEdge := func(kind EdgeKind, field string, cond logic.SymLit) {
				s := pe.enc.NewSym(ast.NewHasher().Uint(relID(tagEdge, x, y)).Str(string(kind)).Str(field).Sum())
				pe.props = append(pe.props, edgeProp{sym: s, kind: kind, field: field})
				clause = append(clause[:0], logic.Pos(s))
				for _, a := range alias {
					pe.enc.AssertClauseS(logic.Neg(s), logic.Pos(a))
					clause = append(clause, logic.Neg(a))
				}
				pe.enc.AssertClauseS(logic.Neg(s), cond)
				pe.enc.AssertClauseS(append(clause, cond.Not())...)
			}
			// Iterate fields in sorted order so proposition numbering — and
			// with it the solver's search and the models it reports — is
			// deterministic across runs (required for the query cache to be
			// exchangeable with fresh solving).
			for _, f := range xw {
				if slices.Contains(yr, f) {
					// wr: y's local view contains x's write of f.
					addEdge(EdgeWR, f, logic.Pos(pe.vis.at(x, y)))
				}
				if slices.Contains(yw, f) {
					// ww: y's write of f follows x's in arbitration order.
					addEdge(EdgeWW, f, logic.Pos(pe.ord.at(x, y)))
				}
			}
			for _, f := range xr {
				if slices.Contains(yw, f) {
					// rw: x read a version of f that does not include y's
					// write (anti-dependency).
					addEdge(EdgeRW, f, logic.Neg(pe.vis.at(y, x)))
				}
			}
			dep := pe.dep.at(x, y)
			clause = append(clause[:0], logic.Neg(dep))
			for _, ep := range pe.props[lo:] {
				pe.enc.AssertClauseS(logic.Pos(dep), logic.Neg(ep.sym))
				clause = append(clause, logic.Pos(ep.sym))
			}
			pe.enc.AssertClauseS(clause...)
			pe.edges[x*n+y] = [2]int32{int32(lo), int32(len(pe.props))}
		}
	}
}

// edgesOf lists the per-field edge propositions behind dep(x→y).
func (pe *satBody) edgesOf(x, y int) []edgeProp {
	span := pe.edges[x*pe.n+y]
	return pe.props[span[0]:span[1]]
}

// assertModelAxioms adds the per-consistency-model visibility axioms.
func (pe *satBody) assertModelAxioms(model Model, ax orderAxioms) {
	n, e := pe.n, pe.enc
	writer := func(x int) bool { return pe.item(x).writer() }
	switch model {
	case EC:
		// Eventual consistency constrains nothing further: local views are
		// arbitrary subsets of committed batches (ConstructView).
	case CC:
		// co is the happens-before relation: program order ∪ vis, closed
		// transitively, consistent with arbitration order.
		pe.co = newRel(e, tagCo, n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if i == j {
					continue
				}
				if pe.inst(i) == pe.inst(j) && i < j {
					e.AssertClauseS(logic.Pos(pe.co.at(i, j)))
				}
				if writer(i) && pe.inst(j) != pe.inst(i) {
					implies(e, pe.vis.at(i, j), pe.co.at(i, j))
				}
				implies(e, pe.co.at(i, j), pe.ord.at(i, j))
			}
		}
		ax.co(e, pe.nA, pe.co)
		// Causal delivery: a view containing w2 contains every write w1
		// happening-before w2.
		for w1 := 0; w1 < n; w1++ {
			if !writer(w1) {
				continue
			}
			for w2 := 0; w2 < n; w2++ {
				if !writer(w2) || w2 == w1 {
					continue
				}
				for y := 0; y < n; y++ {
					if pe.inst(y) == pe.inst(w1) || pe.inst(y) == pe.inst(w2) {
						continue
					}
					e.AssertClauseS(
						logic.Neg(pe.co.at(w1, w2)), logic.Neg(pe.vis.at(w2, y)),
						logic.Pos(pe.vis.at(w1, y)),
					)
				}
			}
		}
	case RR:
		// Repeatable read (paper §7.1): results of a newly committed
		// transaction do not become visible to an executing transaction
		// that has already read its state — i.e., all of a transaction's
		// commands observe one stable snapshot per foreign write. (The
		// writer's own commands need not become visible together: RR gives
		// the reader snapshot stability, not writer atomicity, which is
		// why it removes only reader-side pairs — the paper measured
		// 5–16% reductions on three benchmarks.)
		for w := 0; w < n; w++ {
			if !writer(w) {
				continue
			}
			for y := 0; y < n; y++ {
				if pe.inst(y) == pe.inst(w) {
					continue
				}
				for y2 := y + 1; y2 < n; y2++ {
					if pe.inst(y2) == pe.inst(y) {
						iff(e, pe.vis.at(w, y), pe.vis.at(w, y2))
					}
				}
			}
		}
	case SC:
		// Strong atomicity: arbitration order implies visibility, and all
		// of a transaction's writes become visible together. Strong
		// isolation: views do not grow mid-transaction (§3.2).
		for x := 0; x < n; x++ {
			if !writer(x) {
				continue
			}
			for y := 0; y < n; y++ {
				if pe.inst(y) != pe.inst(x) {
					implies(e, pe.ord.at(x, y), pe.vis.at(x, y))
				}
			}
			for x2 := x + 1; x2 < n; x2++ {
				if !writer(x2) || pe.inst(x2) != pe.inst(x) {
					continue
				}
				for y := 0; y < n; y++ {
					if pe.inst(y) != pe.inst(x) {
						iff(e, pe.vis.at(x, y), pe.vis.at(x2, y))
					}
				}
			}
		}
		for y := 0; y < n; y++ {
			for y2 := y + 1; y2 < n; y2++ {
				if pe.inst(y2) != pe.inst(y) {
					continue
				}
				for w := 0; w < n; w++ {
					if writer(w) && pe.inst(w) != pe.inst(y) {
						implies(e, pe.vis.at(w, y2), pe.vis.at(w, y))
					}
				}
			}
		}
	}
}

// modelEdge returns the kind and fields of the true edge propositions for
// (x→y) in the current model.
func (pe *satBody) modelEdge(x, y int) (EdgeKind, []string) {
	var kind EdgeKind
	var fields []string
	for _, ep := range pe.edgesOf(x, y) {
		if pe.enc.ValueS(ep.sym) {
			kind = ep.kind
			fields = append(fields, ep.field)
		}
	}
	slices.Sort(fields)
	return kind, slices.Compact(fields)
}
