package anomaly

import (
	"context"
	"errors"
	"slices"
	"strings"

	"atropos/internal/ast"
	"atropos/internal/logic"
	"atropos/internal/sat"
)

// setContext installs the detector's cancellation probe. The stop function
// is only materialized for cancellable contexts, so Background-context
// detection keeps a nil probe on every solver (zero polling cost).
func (d *detector) setContext(ctx context.Context) {
	d.ctx = ctx
	if ctx.Done() != nil {
		d.stop = func() bool { return ctx.Err() != nil }
	}
}

// ctxErr returns the detector's cancellation error, defaulting to
// context.Canceled if a stop was observed before ctx recorded its error.
func (d *detector) ctxErr() error {
	if err := d.ctx.Err(); err != nil {
		return err
	}
	return context.Canceled
}

type detector struct {
	// pass is the detection pass this detector works for: the program, the
	// model, and the per-transaction facts its plans are computed from.
	pass *pass
	// encs are the planned encoders the detector has taken on; those whose
	// body got built hold a solver until releaseEncoders.
	encs []*pairEncoder
	// ctx carries the caller's deadline/cancellation; stop is the probe
	// installed on every encoder's solver (nil when ctx cannot be
	// cancelled). See setContext.
	ctx  context.Context
	stop func() bool
	// session memoizes solved cycle queries across detectors (and across
	// Detect calls) by canonical formula hash. Nil only in the tests'
	// cache-free reference detector.
	session *DetectSession
	// encCache, when non-nil, is the worker-local encoder freelist the
	// parallel wavefront routes acquisition through (DESIGN.md §15); nil
	// falls back to the shared pool. The wavefront re-points it at the
	// current worker's cache on every task resumption.
	encCache *logic.EncoderCache
	issued   int // cycle-satisfiability queries asked
	solved   int // cache-miss queries solved (issued - cache hits)
	replayed int // cache-hit queries re-run to restore solver-state parity
	// budget, when limited, bounds every encoder's SAT solves; exhausted
	// counts the solves that crossed it, and unknownPairs the access pairs
	// left unclassified because of them.
	budget       sat.Budget
	exhausted    int
	unknownPairs []UnknownPair
	// axioms, when set, replaces mergeOrder as the grounding of the order
	// relations. Only the differential tests set it (oracle_test.go).
	axioms orderAxioms
}

// own makes d the detector that queries — and releases — the planned
// encoder pe.
func (d *detector) own(pe *pairEncoder) {
	d.encs = append(d.encs, pe)
	if d.pass.onPlan != nil {
		d.pass.onPlan(d, pe)
	}
}

// detectTxn finds the anomalous access pairs of transaction ti: for each
// pair of distinct commands (c1, c2), search over witness transactions and
// witness command pairs for a satisfiable dependency cycle.
func (d *detector) detectTxn(ti int) ([]AccessPair, error) {
	witnesses, err := d.pass.witnessesOf(ti)
	if err != nil || len(witnesses) == 0 {
		return nil, err
	}
	for _, pe := range witnesses {
		d.own(pe)
	}
	t := witnesses[0].t
	var found []AccessPair
	for i := range t.cmds {
		for j := i + 1; j < len(t.cmds); j++ {
			pair, ok, unknown, err := d.checkPair(witnesses, i, j)
			if err != nil {
				return nil, err
			}
			switch {
			case ok:
				found = append(found, pair)
			case unknown:
				// No witness proved the pair anomalous, but at least one
				// query ran out of budget: the pair's verdict is unknown,
				// not clean. Reported separately so callers can degrade
				// instead of silently under-reporting.
				d.unknownPairs = append(d.unknownPairs, UnknownPair{
					Txn: t.name, C1: t.cmds[i].label, C2: t.cmds[j].label,
				})
			}
		}
	}
	return found, nil
}

func (d *detector) checkPair(witnesses []*pairEncoder, i, j int) (AccessPair, bool, bool, error) {
	anyUnknown := false
	for _, pe := range witnesses {
		pair, ok, unknown, err := d.checkPairWitness(pe, i, j)
		if err != nil || ok {
			return pair, ok, false, err
		}
		anyUnknown = anyUnknown || unknown
	}
	return AccessPair{}, false, anyUnknown, nil
}

// checkPairWitness searches pe's witness transaction for a satisfiable
// dependency cycle through commands i and j of its transaction under
// test, walking the plan's candidates: d1 ranges over the witness commands
// i can share an edge with, d2 over j's. It is the unit of work the
// parallel session fans out: one (txn, witness) encoder, all its cycle
// queries.
func (d *detector) checkPairWitness(pe *pairEncoder, c1, c2 int) (AccessPair, bool, bool, error) {
	anyUnknown := false
	for _, d1 := range pe.cand[c1] {
		for _, d2 := range pe.cand[c2] {
			// Orientation 1: A.c1 → B.d1, B.d2 → A.c2; orientation 2:
			// B.d1 → A.c1, A.c2 → B.d2.
			for _, q := range [2][4]int{{c1, d1, d2, c2}, {d1, c1, c2, d2}} {
				r, err := d.solveCycle(pe, q[0], q[1], q[2], q[3])
				if err != nil {
					return AccessPair{}, false, false, err
				}
				if r.Sat {
					return pe.buildPair(c1, c2, d1, d2, r), true, false, nil
				}
				anyUnknown = anyUnknown || r.Unknown
			}
		}
	}
	return AccessPair{}, false, anyUnknown, nil
}

// cycleResult is the complete outcome of one cycle-satisfiability query:
// the verdict plus the witnessing edge kinds and fields read off the SAT
// model. Caching the edge data alongside the verdict keeps cached and
// freshly solved detections byte-identical (reports never depend on which
// encoder's solver produced the model).
type cycleResult struct {
	Sat bool
	// Unknown marks a budget-exhausted solve: neither SAT nor UNSAT may be
	// claimed. Unknown results are never cached (see solveCycle).
	Unknown      bool
	Kind1, Kind2 EdgeKind
	Flds1, Flds2 []string
	// Sched is the witness schedule read off the satisfying model, present
	// only under witness recording. It is immutable once built, so cached
	// results share it across hits; it names the pair whose solver produced
	// it, and buildPair re-addresses it to the pair it reports.
	Sched *Schedule
}

// solveCycle answers one dep(from1→to1) ∧ dep(from2→to2) query, consulting
// the session's query cache when one is attached.
//
// Cache soundness: CDCL solvers are stateful — learnt clauses, variable
// activity, and saved phases accumulate across queries — so which model a
// satisfiable query returns depends on the queries solved before it. The
// cache key therefore pins not just the encoder's assertion set (the
// formula hash) and the assumed propositions but the encoder's entire
// prior query sequence (histHash): a hit guarantees the producer's solver
// was in exactly the state a fresh oracle's would be, so the cached edge
// data is the fresh answer by construction. When a miss follows earlier
// hits on the same encoder, the skipped queries are replayed first
// (replayPending) to restore that state parity before solving.
func (d *detector) solveCycle(pe *pairEncoder, from1, to1, from2, to2 int) (cycleResult, error) {
	if d.stop != nil {
		if err := d.ctx.Err(); err != nil {
			return cycleResult{}, err
		}
	}
	d.issued++
	if pe.enc == nil {
		d.buildBody(pe)
	}
	s1, s2 := pe.dep.at(from1, to1), pe.dep.at(from2, to2)
	solve := func() (cycleResult, error) {
		pe.assume[0] = pe.enc.LitS(s1, false)
		pe.assume[1] = pe.enc.LitS(s2, false)
		r := cycleResult{Sat: pe.enc.SolveAssuming(pe.assume[:]...)}
		// An interrupted Solve also returns false; it must surface as the
		// context's error, never be recorded (or cached) as UNSAT.
		if pe.enc.S.Stopped() {
			return cycleResult{}, d.ctxErr()
		}
		// A budget-exhausted Solve also returns false; it surfaces as an
		// unknown verdict. The solver's learnt clauses are sound but its
		// search state now diverges from a fresh oracle's, so this encoder
		// can no longer participate in the history-keyed cache: taint it
		// (subsequent queries solve directly) and hand the session path the
		// sentinel so the unknown is never published as a cached verdict.
		if pe.enc.S.Exhausted() {
			pe.tainted = true
			d.exhausted++
			return cycleResult{Unknown: true}, errExhausted
		}
		if r.Sat {
			r.Kind1, r.Flds1 = pe.modelEdge(from1, to1)
			r.Kind2, r.Flds2 = pe.modelEdge(from2, to2)
			if d.pass.record {
				r.Sched = pe.buildSchedule(from1, to1, from2, to2)
			}
		}
		return r, nil
	}
	if d.session == nil || pe.tainted {
		d.solved++
		r, err := solve()
		if err == errExhausted {
			return r, nil
		}
		return r, err
	}
	// The assumed propositions key the cache and the history hash by
	// identity (logic.Interner), like every proposition of the formula hash.
	a1, a2 := pe.enc.IDOf(s1), pe.enc.IDOf(s2)
	key := queryKey{enc: pe.enc.FormulaHash(), hist: pe.histHash, a1: a1, a2: a2}
	r, hit, err := d.session.query(d.ctx, key, func() (cycleResult, error) {
		d.replayed += pe.replayPending()
		return solve()
	})
	if err == errExhausted {
		// The solve ran (and exhausted) on this encoder; the session's
		// error path already removed the future, so the unknown was never
		// cached and waiters retry as producers under their own budgets.
		// The encoder is tainted, so its history hash no longer matters.
		d.solved++
		return cycleResult{Unknown: true}, nil
	}
	if err != nil {
		return cycleResult{}, err
	}
	if hit {
		pe.pending = append(pe.pending, [2]logic.Sym{s1, s2})
	} else {
		d.solved++
	}
	pe.histHash = chainHist(pe.histHash, a1, a2)
	return r, nil
}

// errExhausted is the internal sentinel a budget-exhausted solve returns
// through the session cache's error path: like a cancellation it removes
// the query's future before publishing, so unknowns are never cached, but
// unlike a cancellation the detection continues with a degraded report.
var errExhausted = errors.New("anomaly: solve budget exhausted")

// chainHist folds one query's assumed propositions into an encoder's
// query-history hash.
func chainHist(h, a1, a2 uint64) uint64 {
	return logic.ChainUint64(logic.ChainUint64(h, a1), a2)
}

// releaseEncoders returns every built encoder's solver memory to the shared
// pool (or the detector's worker-local freelist) once the detector's
// results are extracted. Nothing a detector publishes aliases encoder
// memory: reported pairs and cached cycle results carry only immutable
// strings and freshly built field slices, cache keys only integers.
func (d *detector) releaseEncoders() {
	for _, pe := range d.encs {
		if pe.enc == nil {
			continue
		}
		if d.encCache != nil {
			d.encCache.Release(pe.enc)
		} else {
			pe.enc.Release()
		}
		pe.enc = nil
	}
	d.encs = d.encs[:0]
}

// buildBody acquires a solver for pe and asserts its encoding, on the
// first cycle query the witness loop asks of it.
func (d *detector) buildBody(pe *pairEncoder) {
	var le *logic.Encoder
	if d.encCache != nil {
		le = d.encCache.Acquire()
	} else {
		le = logic.AcquireEncoder()
	}
	if d.session != nil {
		le.RecordFormulaHashes()
	}
	ax := d.axioms
	if ax.ord == nil {
		ax = mergeOrder
	}
	pe.build(le, d.pass.model, d.pass.record, ax)
	// The stop probe aborts this encoder's solves when the detector's
	// context is cancelled; Encoder.Release → Solver.Reset clears it before
	// the solver returns to the pool. The budget, likewise per-solver and
	// Reset-cleared, bounds each of this encoder's solves.
	if d.stop != nil {
		le.S.SetStop(d.stop)
	}
	if d.budget.Limited() {
		le.S.SetBudget(d.budget)
	}
	d.pass.built.Add(1)
}

// pairEncoder is the encoding of one (T, T') transaction pair: T as
// instance A under test, T' as the witness instance B. It starts as a plan
// (plan.go) and grows its SAT body — solver, propositions, axioms — when
// the first cycle query is asked of it. Commands are addressed by item
// index: A's commands in program order, then B's.
type pairEncoder struct {
	t, w  *txnFacts
	nA, n int
	// cand[a] lists the items of B command a of A can share a dependency
	// edge with (planPair).
	cand [][]int

	// enc is nil until build.
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
	// eqAtoms indexes the free equality atoms in first-use order, kept only
	// when the encoder records witness schedules, so a satisfying model can
	// be read back. Purely additive — no proposition, assertion, or solve
	// differs with it on.
	record  bool
	eqAtoms []eqAtomProp
	// histHash chains the cycle queries asked on this encoder so far; the
	// session's cache keys include it so a hit is only taken from a
	// producer whose solver had seen the identical query sequence.
	histHash uint64
	// pending are the assumed propositions of queries answered from the
	// cache and not yet run on this solver; replayPending runs them before
	// the next fresh solve to restore solver-state parity.
	pending [][2]logic.Sym
	// tainted marks an encoder whose solver exhausted a budget: its search
	// state does not match a fresh oracle's, so it must neither consume nor
	// produce history-keyed cache entries (see detector.solveCycle).
	tainted bool
	// assume is the reusable assumption buffer for the witness loop's
	// SolveAssuming calls.
	assume [2]sat.Lit
}

// item returns the facts of item x; inst the instance (0 = A, 1 = B) it
// belongs to.
func (pe *pairEncoder) item(x int) *cmdFacts {
	if x < pe.nA {
		return &pe.t.cmds[x]
	}
	return &pe.w.cmds[x-pe.nA]
}

func (pe *pairEncoder) inst(x int) int {
	if x < pe.nA {
		return 0
	}
	return 1
}

func (pe *pairEncoder) key(x int) keyConstraint { return pe.item(x).key[pe.inst(x)] }

// replayPending re-runs every cache-answered query on this encoder's own
// solver (discarding the verdicts — they are deterministic and already
// known) and returns how many it replayed.
func (pe *pairEncoder) replayPending() int {
	n := len(pe.pending)
	for _, p := range pe.pending {
		pe.assume[0] = pe.enc.LitS(p[0], false)
		pe.assume[1] = pe.enc.LitS(p[1], false)
		pe.enc.SolveAssuming(pe.assume[:]...)
	}
	pe.pending = nil
	return n
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
// freshly reset) encoder. record opts it into witness-schedule bookkeeping
// (witness.go); ax grounds the order relations (mergeOrder everywhere
// outside tests). Assertion order is part of the contract: it fixes the
// solver's variable numbering and with it the models queries return.
func (pe *pairEncoder) build(le *logic.Encoder, model Model, record bool, ax orderAxioms) {
	pe.enc, pe.record = le, record
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
func (pe *pairEncoder) indexTerms() {
	type use struct {
		table string
		kt    keyTerm
		ref   int
	}
	pe.keyOff = make([]int, pe.n+1)
	var uses []use
	for x := 0; x < pe.n; x++ {
		pe.keyOff[x] = len(uses)
		for _, kt := range pe.key(x) {
			uses = append(uses, use{pe.item(x).table, kt, len(uses)})
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
func (pe *pairEncoder) eqAtom(si, a, b int) (logic.Sym, eqStatus) {
	if b < a {
		a, b = b, a
	}
	s := &pe.sorts[si]
	ta, tb := s.terms[a], s.terms[b]
	status := decideEq(ta, tb)
	if status != eqUnknown {
		return -1, status
	}
	atom := &s.atoms[a*len(s.terms)+b]
	if *atom == 0 {
		id := relID(tagEq, 0, 0)
		for _, part := range [...]string{s.table, s.field, ta.id, tb.id} {
			id = logic.ChainString(id, part)
		}
		*atom = pe.enc.NewSym(id) + 1
		if pe.record {
			pe.eqAtoms = append(pe.eqAtoms, eqAtomProp{sym: *atom - 1, table: s.table, field: s.field, a: ta.id, b: tb.id})
		}
	}
	return *atom - 1, status
}

// assertTermCongruence adds transitivity over the free equality atoms of
// each (table, field) sort.
func (pe *pairEncoder) assertTermCongruence() {
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

// aliasAtoms appends to dst the free equality atoms that must all hold for
// x and y, commands on one table, to access a common record: every
// primary-key field pinned by both must pin equal values. A field pinned
// to one term by both contributes nothing, and none is pinned to terms
// decided unequal — the plan left such pairs out (mustDiffer).
func (pe *pairEncoder) aliasAtoms(dst []logic.Sym, x, y int) []logic.Sym {
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
func (pe *pairEncoder) defineEdges() {
	n := pe.n
	planned := make([]bool, n*n)
	for a, row := range pe.cand {
		for _, b := range row {
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
			ix, iy := pe.item(x), pe.item(y)
			alias = pe.aliasAtoms(alias[:0], x, y)
			lo := len(pe.props)
			addEdge := func(kind EdgeKind, field string, cond logic.SymLit) {
				s := pe.enc.NewSym(logic.ChainString(logic.ChainString(relID(tagEdge, x, y), string(kind)), field))
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
			for _, f := range ix.writes {
				if iy.reads.has(f) {
					// wr: y's local view contains x's write of f.
					addEdge(EdgeWR, f, logic.Pos(pe.vis.at(x, y)))
				}
				if iy.writes.has(f) {
					// ww: y's write of f follows x's in arbitration order.
					addEdge(EdgeWW, f, logic.Pos(pe.ord.at(x, y)))
				}
			}
			for _, f := range ix.reads {
				if iy.writes.has(f) {
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
func (pe *pairEncoder) edgesOf(x, y int) []edgeProp {
	span := pe.edges[x*pe.n+y]
	return pe.props[span[0]:span[1]]
}

// assertModelAxioms adds the per-consistency-model visibility axioms.
func (pe *pairEncoder) assertModelAxioms(model Model, ax orderAxioms) {
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

// buildPair assembles the reported access pair from a cycle query's
// outcome: the involved fields were read off the true edge propositions of
// whichever (identically encoded) solver answered the query.
func (pe *pairEncoder) buildPair(c1, c2, d1, d2 int, r cycleResult) AccessPair {
	x1, x2 := pe.item(c1), pe.item(c2)
	// Report the fields belonging to c1 and c2 respectively.
	return AccessPair{
		Txn: pe.t.name,
		C1:  x1.label, F1: r.Flds1,
		C2: x2.label, F2: r.Flds2,
		Kind:    classify(x1.cmd, x2.cmd, r.Flds1, r.Flds2),
		Witness: Witness{Txn: pe.w.name, D1: pe.item(d1).label, D2: pe.item(d2).label, Edge1: r.Kind1, Edge2: r.Kind2, Schedule: pe.adoptSchedule(r.Sched)},
	}
}

// modelEdge returns the kind and fields of the true edge propositions for
// (x→y) in the current model.
func (pe *pairEncoder) modelEdge(x, y int) (EdgeKind, []string) {
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

// classify names the anomaly per the Fig. 2 taxonomy.
func classify(c1, c2 ast.DBCommand, f1, f2 []string) Kind {
	_, c1Sel := c1.(*ast.Select)
	_, c2Sel := c2.(*ast.Select)
	switch {
	case c1Sel && c2Sel:
		return KindNonRepeatableRead
	case !c1Sel && !c2Sel:
		return KindDirtyRead
	default:
		for _, a := range f1 {
			for _, b := range f2 {
				if a == b {
					return KindLostUpdate
				}
			}
		}
		return KindWriteSkew
	}
}
