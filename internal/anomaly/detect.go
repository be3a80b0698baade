package anomaly

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"slices"
	"sort"
	"strings"

	"atropos/internal/ast"
	"atropos/internal/logic"
	"atropos/internal/sat"
)

// cmdInst is one command of one of the two instantiated transaction
// instances (A = instance 0, B = instance 1).
type cmdInst struct {
	idx    int
	inst   int
	cmd    ast.DBCommand
	label  string
	table  string
	reads  map[string]bool
	writes map[string]bool
	key    keyConstraint
	writer bool
	reader bool
	// pins are the key constraints with their source expressions, kept only
	// when the detector records witness schedules (see witness.go).
	pins []KeyPin
}

// Detect runs the oracle over every transaction of the program under the
// given consistency model. Every SAT query is encoded and solved from
// scratch; use a DetectSession to reuse work across related programs (the
// repair pipeline's repeated detection passes).
func Detect(prog *ast.Program, model Model) (*Report, error) {
	return DetectContext(context.Background(), prog, model)
}

// DetectContext is Detect with cancellation: the context's deadline or
// cancellation aborts detection mid-solve (the SAT solvers poll it) and
// returns ctx.Err(). An uncancellable context adds no overhead.
func DetectContext(ctx context.Context, prog *ast.Program, model Model) (*Report, error) {
	return DetectBudgeted(ctx, prog, model, sat.Budget{})
}

// DetectBudgeted is DetectContext with a per-solve resource budget: every
// cycle query's SAT solve is bounded by b, and a budget-exhausted solve
// marks its pair's verdict unknown instead of failing the detection. The
// report is then partial — Degraded is set, UnknownPairs lists the pairs
// no surviving query could classify — but everything it does report is
// sound (see Report.Degraded). A zero budget is byte-identical to
// DetectContext.
func DetectBudgeted(ctx context.Context, prog *ast.Program, model Model, b sat.Budget) (*Report, error) {
	d := &detector{prog: prog, model: model, encoders: map[[2]string]*pairEncoder{}, budget: b}
	d.setContext(ctx)
	return runDetector(d)
}

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

// runDetector drives a configured detector over every transaction.
func runDetector(d *detector) (*Report, error) {
	defer d.releaseEncoders()
	report := &Report{Model: d.model}
	for _, t := range d.prog.Txns {
		pairs, err := d.detectTxn(t)
		if err != nil {
			return nil, err
		}
		report.Pairs = append(report.Pairs, pairs...)
	}
	report.Queries = d.issued
	report.Solved = d.solved
	report.UnknownPairs = d.unknownPairs
	report.Unknown = len(d.unknownPairs)
	report.Exhausted = d.exhausted
	report.Degraded = d.exhausted > 0
	return report, nil
}

type detector struct {
	prog     *ast.Program
	model    Model
	encoders map[[2]string]*pairEncoder
	// ctx carries the caller's deadline/cancellation; stop is the probe
	// installed on every encoder's solver (nil when ctx cannot be
	// cancelled). See setContext.
	ctx  context.Context
	stop func() bool
	// session, when non-nil, memoizes solved cycle queries across
	// detectors (and across Detect calls) by canonical formula hash.
	session *DetectSession
	// encCache, when non-nil, is the worker-local encoder freelist the
	// parallel wavefront routes acquisition through (DESIGN.md §15); nil
	// falls back to the shared pool. The wavefront re-points it at the
	// current worker's cache on every task resumption.
	encCache *logic.EncoderCache
	// portfolio > 1 races that many diversified solver replicas per query
	// (sat.SetPortfolio). Portfolio encoders are tainted at birth: raced
	// models are timing-dependent, so they must never feed the
	// history-keyed cache.
	portfolio int
	// record opts satisfiable queries into witness-schedule extraction
	// (witness.go); it adds no propositions and changes no solve, so
	// reports and cache keys are identical either way.
	record   bool
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

// detectTxn finds the anomalous access pairs of transaction t: for each
// pair of distinct commands (c1, c2), search over witness transactions and
// witness command pairs for a satisfiable dependency cycle.
func (d *detector) detectTxn(t *ast.Txn) ([]AccessPair, error) {
	cmds := ast.Commands(t.Body)
	witnesses := witnessesOf(d.prog, t)
	var found []AccessPair
	for i := 0; i < len(cmds); i++ {
		for j := i + 1; j < len(cmds); j++ {
			pair, ok, unknown, err := d.checkPair(t, witnesses, i, j)
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
					Txn: t.Name, C1: cmds[i].CmdLabel(), C2: cmds[j].CmdLabel(),
				})
			}
		}
	}
	return found, nil
}

// witnessesOf lists the witness transactions of t in program order. Only
// transactions sharing a table with t can contribute a dependency edge
// (defineEdges requires x.table == y.table); skipping the rest avoids
// building dead encodings. Results are unaffected: a disjoint witness
// defines no deps and issues no queries.
func witnessesOf(prog *ast.Program, t *ast.Txn) []*ast.Txn {
	tables := txnTables(t)
	var witnesses []*ast.Txn
	for _, w := range prog.Txns {
		for tb := range txnTables(w) {
			if tables[tb] {
				witnesses = append(witnesses, w)
				break
			}
		}
	}
	return witnesses
}

func (d *detector) checkPair(t *ast.Txn, witnesses []*ast.Txn, i, j int) (AccessPair, bool, bool, error) {
	anyUnknown := false
	for _, w := range witnesses {
		pair, ok, unknown, err := d.checkPairWitness(t, w, i, j)
		if err != nil || ok {
			return pair, ok, false, err
		}
		anyUnknown = anyUnknown || unknown
	}
	return AccessPair{}, false, anyUnknown, nil
}

// checkPairWitness searches witness transaction w for a satisfiable
// dependency cycle through commands i and j of t. It is the unit of work
// the parallel session fans out: one (txn, witness) encoder, all its cycle
// queries.
func (d *detector) checkPairWitness(t, w *ast.Txn, i, j int) (AccessPair, bool, bool, error) {
	enc, err := d.encoderFor(t, w)
	if err != nil {
		return AccessPair{}, false, false, err
	}
	c1 := enc.items[i]
	c2 := enc.items[j]
	anyUnknown := false
	for _, d1 := range enc.items[enc.nA:] {
		for _, d2 := range enc.items[enc.nA:] {
			// Orientation 1: A.c1 → B.d1, B.d2 → A.c2.
			if enc.hasDep(c1, d1) && enc.hasDep(d2, c2) {
				r, err := d.solveCycle(enc, c1, d1, d2, c2)
				if err != nil {
					return AccessPair{}, false, false, err
				}
				if r.Sat {
					return buildPair(t.Name, w.Name, c1, c2, d1, d2, r), true, false, nil
				}
				anyUnknown = anyUnknown || r.Unknown
			}
			// Orientation 2: B.d1 → A.c1, A.c2 → B.d2.
			if enc.hasDep(d1, c1) && enc.hasDep(c2, d2) {
				r, err := d.solveCycle(enc, d1, c1, c2, d2)
				if err != nil {
					return AccessPair{}, false, false, err
				}
				if r.Sat {
					return buildPair(t.Name, w.Name, c1, c2, d1, d2, r), true, false, nil
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
	// results may share it across hits.
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
func (d *detector) solveCycle(enc *pairEncoder, from1, to1, from2, to2 *cmdInst) (cycleResult, error) {
	if d.stop != nil {
		if err := d.ctx.Err(); err != nil {
			return cycleResult{}, err
		}
	}
	d.issued++
	solve := func() (cycleResult, error) {
		r := cycleResult{Sat: enc.solveCycle(from1, to1, from2, to2)}
		// An interrupted Solve also returns false; it must surface as the
		// context's error, never be recorded (or cached) as UNSAT.
		if enc.enc.S.Stopped() {
			return cycleResult{}, d.ctxErr()
		}
		// A budget-exhausted Solve also returns false; it surfaces as an
		// unknown verdict. The solver's learnt clauses are sound but its
		// search state now diverges from a fresh oracle's, so this encoder
		// can no longer participate in the history-keyed cache: taint it
		// (subsequent queries solve directly) and hand the session path the
		// sentinel so the unknown is never published as a cached verdict.
		if enc.enc.S.Exhausted() {
			enc.tainted = true
			d.exhausted++
			return cycleResult{Unknown: true}, errExhausted
		}
		if r.Sat {
			r.Kind1, r.Flds1 = enc.modelEdge(from1, to1)
			r.Kind2, r.Flds2 = enc.modelEdge(from2, to2)
			if d.record {
				r.Sched = enc.buildSchedule(from1, to1, from2, to2)
			}
		}
		return r, nil
	}
	if d.session == nil || enc.tainted {
		d.solved++
		r, err := solve()
		if err == errExhausted {
			return r, nil
		}
		return r, err
	}
	s1 := enc.depS[from1.idx][to1.idx]
	s2 := enc.depS[from2.idx][to2.idx]
	// The interned name strings key the cache and the history hash; reading
	// them back is a slice index, not a fmt.Sprintf.
	a1 := enc.enc.NameOf(s1)
	a2 := enc.enc.NameOf(s2)
	key := queryKey{enc: enc.enc.FormulaHash(), hist: enc.histHash, a1: a1, a2: a2}
	r, hit, err := d.session.query(d.ctx, key, func() (cycleResult, error) {
		d.replayed += enc.replayPending()
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
		enc.pending = append(enc.pending, [2]logic.Sym{s1, s2})
	} else {
		d.solved++
	}
	enc.histHash = chainHist(enc.histHash, a1, a2)
	return r, nil
}

// errExhausted is the internal sentinel a budget-exhausted solve returns
// through the session cache's error path: like a cancellation it removes
// the query's future before publishing, so unknowns are never cached, but
// unlike a cancellation the detection continues with a degraded report.
var errExhausted = errors.New("anomaly: solve budget exhausted")

// chainHist folds one query's assumed propositions into an encoder's
// query-history hash.
func chainHist(h uint64, a1, a2 string) uint64 {
	return logic.ChainString(logic.ChainString(h, a1), a2)
}

// releaseEncoders returns every encoder's solver memory to the shared pool
// (or the detector's worker-local freelist) once the detector's results
// are extracted. Nothing a detector publishes aliases encoder memory:
// reported pairs, cached cycle results, and cache keys carry only
// immutable strings and freshly built field slices.
func (d *detector) releaseEncoders() {
	for _, enc := range d.encoders {
		if d.encCache != nil {
			d.encCache.Release(enc.enc)
		} else {
			enc.enc.Release()
		}
	}
	clear(d.encoders)
}

func (d *detector) encoderFor(t, w *ast.Txn) (*pairEncoder, error) {
	key := [2]string{t.Name, w.Name}
	if enc, ok := d.encoders[key]; ok {
		return enc, nil
	}
	var le *logic.Encoder
	if d.encCache != nil {
		le = d.encCache.Acquire()
	} else {
		le = logic.AcquireEncoder()
	}
	// Portfolio mode must be configured before the encoding is asserted:
	// the shadow replicas replicate the clause stream from this point on.
	// Portfolio encoders skip formula hashing — they are tainted at birth
	// (below), so no cache key ever needs their hash.
	if d.portfolio > 1 {
		le.S.SetPortfolio(d.portfolio)
	}
	hashed := d.session != nil && d.portfolio <= 1
	ax := d.axioms
	if ax.ord == nil {
		ax = mergeOrder
	}
	enc, err := newPairEncoder(le, d.prog, t, w, d.model, hashed, d.record, ax)
	if err != nil {
		return nil, err
	}
	enc.tainted = d.portfolio > 1
	// The stop probe aborts this encoder's solves when the detector's
	// context is cancelled; Encoder.Release → Solver.Reset clears it before
	// the solver returns to the pool. The budget, likewise per-solver and
	// Reset-cleared, bounds each of this encoder's solves.
	if d.stop != nil {
		enc.enc.S.SetStop(d.stop)
	}
	if d.budget.Limited() {
		enc.enc.S.SetBudget(d.budget)
	}
	d.encoders[key] = enc
	return enc, nil
}

// pairEncoder holds the SAT encoding for one (T, T') transaction pair.
// All relational propositions (ord, vis, co, dep) are interned once into
// n×n Sym matrices at construction, so the witness loop and the axiom
// builders address them by integer lookup — no per-use fmt.Sprintf or
// string hashing.
type pairEncoder struct {
	enc   *logic.Encoder
	items []*cmdInst // A's commands then B's commands
	nA    int
	// tName/wName are the instance transaction names, kept for witness
	// schedules.
	tName, wName string
	// record opts the encoder into witness-schedule bookkeeping: command
	// pins are retained and free equality atoms are indexed (eqAtoms) so a
	// satisfying model can be read back. Purely additive — no proposition,
	// assertion, or solve differs with it on.
	record  bool
	eqAtoms []eqAtomProp
	eqSeen  map[logic.Sym]bool
	// scratch is the reusable model read-back buffer.
	scratch []bool
	// ordS/visS/depS (and coS under CC) are the interned proposition
	// matrices, indexed [from][to]; the diagonal is unused.
	ordS, visS, coS, depS [][]logic.Sym
	// deps[x][y] true when a dep(x→y) proposition was defined.
	deps map[int]map[int]bool
	// edgeNames[x][y] lists the per-field edge propositions behind dep(x→y).
	edgeNames map[int]map[int][]edgeProp
	// histHash chains the cycle queries asked on this encoder so far; the
	// session's cache keys include it so a hit is only taken from a
	// producer whose solver had seen the identical query sequence.
	histHash uint64
	// pending are the assumed propositions of queries answered from the
	// cache and not yet run on this solver; replayPending runs them before
	// the next fresh solve to restore solver-state parity.
	pending [][2]logic.Sym
	// tainted marks an encoder whose solver exhausted a budget: its search
	// state no longer matches a fresh oracle's, so it must neither consume
	// nor produce history-keyed cache entries (see detector.solveCycle).
	tainted bool
	// assume is the reusable assumption buffer for the witness loop's
	// SolveAssuming calls.
	assume [2]sat.Lit
}

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

func ordName(i, j int) string { return fmt.Sprintf("o_%d_%d", i, j) }
func visName(i, j int) string { return fmt.Sprintf("v_%d_%d", i, j) }
func coName(i, j int) string  { return fmt.Sprintf("co_%d_%d", i, j) }
func depName(i, j int) string { return fmt.Sprintf("dep_%d_%d", i, j) }

// internRel builds the n×n Sym matrix for one relational proposition
// family, paying each name's fmt.Sprintf exactly once per encoder.
func (pe *pairEncoder) internRel(name func(i, j int) string) [][]logic.Sym {
	n := len(pe.items)
	m := make([][]logic.Sym, n)
	for i := 0; i < n; i++ {
		m[i] = make([]logic.Sym, n)
		for j := 0; j < n; j++ {
			if j == i {
				m[i][j] = -1
				continue
			}
			m[i][j] = pe.enc.Sym(name(i, j))
		}
	}
	return m
}

// newPairEncoder builds the SAT encoding for (t, w) on the supplied (fresh
// or freshly reset) encoder. hashed opts the encoder into formula-hash
// recording, needed only when a session will key its query cache on the
// encoding; record opts it into witness-schedule bookkeeping (witness.go);
// ax grounds the order relations (mergeOrder everywhere outside tests).
// On error the encoder is left unreleased; letting it be collected is safe.
func newPairEncoder(le *logic.Encoder, prog *ast.Program, t, w *ast.Txn, model Model, hashed, record bool, ax orderAxioms) (*pairEncoder, error) {
	pe := &pairEncoder{
		enc:       le,
		deps:      map[int]map[int]bool{},
		edgeNames: map[int]map[int][]edgeProp{},
		tName:     t.Name,
		wName:     w.Name,
		record:    record,
	}
	if record {
		pe.eqSeen = map[logic.Sym]bool{}
	}
	if hashed {
		pe.enc.RecordFormulaHashes()
	}
	build := func(txn *ast.Txn, inst int) error {
		for ci, c := range ast.Commands(txn.Body) {
			schema := prog.Schema(c.TableName())
			if schema == nil {
				return fmt.Errorf("anomaly: %s.%s: unknown table %q", txn.Name, c.CmdLabel(), c.TableName())
			}
			acc := ast.CommandAccess(c, schema)
			item := &cmdInst{
				idx:    len(pe.items),
				inst:   inst,
				cmd:    c,
				label:  c.CmdLabel(),
				table:  c.TableName(),
				reads:  map[string]bool{},
				writes: map[string]bool{},
				key:    extractKey(c, schema, inst, ci),
			}
			if record {
				item.pins = extractPins(c, schema, inst, ci)
			}
			for _, f := range acc.Reads {
				item.reads[f] = true
			}
			for _, f := range acc.Writes {
				item.writes[f] = true
			}
			// Selects and updates implicitly read the presence field: they
			// filter on alive records, so inserts conflict with them
			// (phantom dependencies).
			switch c.(type) {
			case *ast.Select, *ast.Update:
				item.reads[ast.AliveField] = true
			}
			item.writer = len(item.writes) > 0
			item.reader = len(item.reads) > 0
			pe.items = append(pe.items, item)
		}
		return nil
	}
	if err := build(t, 0); err != nil {
		return nil, err
	}
	pe.nA = len(pe.items)
	if err := build(w, 1); err != nil {
		return nil, err
	}

	pe.ordS = pe.internRel(ordName)
	pe.visS = pe.internRel(visName)
	pe.depS = pe.internRel(depName)
	// Axiom: ord (the execution counter) is a strict total order extending
	// program order within each instance.
	ax.ord(pe.enc, pe.nA, pe.ordS)
	// Axiom: vis ⊆ ord for every cross-instance writer pair.
	for _, x := range pe.items {
		if !x.writer {
			continue
		}
		for _, y := range pe.items {
			if y.inst == x.inst {
				continue
			}
			implies(pe.enc, pe.visS[x.idx][y.idx], pe.ordS[x.idx][y.idx])
		}
	}

	pe.assertTermCongruence()
	pe.defineEdges()
	pe.assertModelAxioms(model, ax)
	return pe, nil
}

// eqPropName returns the canonical equality proposition name for two terms
// of one sort (table, primary-key field).
func eqPropName(table, field string, a, b term) string {
	if b.id < a.id {
		a, b = b, a
	}
	return fmt.Sprintf("eq_%s_%s_%s=%s", table, field, a.id, b.id)
}

// eqFormula returns the formula for term equality within a sort.
func (pe *pairEncoder) eqFormula(table, field string, a, b term) logic.Formula {
	switch s, status := pe.eqAtom(table, field, a, b); status {
	case eqTrue:
		return logic.True
	case eqFalse:
		return logic.False
	default:
		return pe.enc.Atom(s)
	}
}

// eqAtom decides term equality within a sort; when the equality is
// execution-dependent (eqUnknown) it also returns the free atom standing
// for it.
func (pe *pairEncoder) eqAtom(table, field string, a, b term) (logic.Sym, eqStatus) {
	status := decideEq(a, b)
	if status != eqUnknown {
		return -1, status
	}
	s := pe.enc.Sym(eqPropName(table, field, a, b))
	if pe.record && !pe.eqSeen[s] {
		pe.eqSeen[s] = true
		ca, cb := a, b
		if cb.id < ca.id {
			ca, cb = cb, ca
		}
		pe.eqAtoms = append(pe.eqAtoms, eqAtomProp{sym: s, table: table, field: field, a: ca.id, b: cb.id})
	}
	return s, status
}

// assertTermCongruence adds transitivity over the free equality atoms of
// each (table, field) sort.
func (pe *pairEncoder) assertTermCongruence() {
	sorts := map[[2]string]map[string]term{}
	for _, it := range pe.items {
		for f, tm := range it.key {
			key := [2]string{it.table, f}
			if sorts[key] == nil {
				sorts[key] = map[string]term{}
			}
			sorts[key][tm.id] = tm
		}
	}
	// Sorted (table, field) order keeps proposition numbering deterministic
	// across runs (see defineEdges).
	sortKeys := slices.SortedFunc(maps.Keys(sorts), func(a, b [2]string) int {
		if c := strings.Compare(a[0], b[0]); c != 0 {
			return c
		}
		return strings.Compare(a[1], b[1])
	})
	for _, key := range sortKeys {
		termSet := sorts[key]
		ids := slices.Sorted(maps.Keys(termSet))
		terms := make([]term, len(ids))
		for i, id := range ids {
			terms[i] = termSet[id]
		}
		for a := 0; a < len(terms); a++ {
			for b := 0; b < len(terms); b++ {
				if b == a {
					continue
				}
				for c := 0; c < len(terms); c++ {
					if c == a || c == b {
						continue
					}
					// eq(a,b) ∧ eq(b,c) → eq(a,c) as one clause. Distinct
					// ids are never decided equal, so each equality is a
					// free atom or false: a false premise makes the
					// instance vacuous, a false conclusion drops out.
					ab, abEq := pe.eqAtom(key[0], key[1], terms[a], terms[b])
					bc, bcEq := pe.eqAtom(key[0], key[1], terms[b], terms[c])
					ac, acEq := pe.eqAtom(key[0], key[1], terms[a], terms[c])
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

// aliasFormula is satisfiable when x and y may access a common record:
// every primary-key field pinned by both must pin equal values.
func (pe *pairEncoder) aliasFormula(x, y *cmdInst) logic.Formula {
	if x.table != y.table {
		return logic.False
	}
	conj := make([]logic.Formula, 0, len(x.key))
	for _, f := range slices.Sorted(maps.Keys(x.key)) {
		if ty, ok := y.key[f]; ok {
			conj = append(conj, pe.eqFormula(x.table, f, x.key[f], ty))
		}
	}
	return logic.AndF(conj...)
}

// defineEdges introduces the per-field dependency-edge propositions and the
// aggregated dep(x→y) propositions for cross-instance command pairs.
func (pe *pairEncoder) defineEdges() {
	for _, x := range pe.items {
		for _, y := range pe.items {
			if x.inst == y.inst {
				continue
			}
			if x.table != y.table || mustDiffer(x.key, y.key) {
				continue
			}
			alias := pe.aliasFormula(x, y)
			maxEdges := 2*len(x.writes) + len(x.reads)
			props := make([]edgeProp, 0, maxEdges)
			defs := make([]logic.Formula, 0, maxEdges)
			addEdge := func(kind EdgeKind, field string, cond logic.Formula) {
				s := pe.enc.Symf("e_%s_%d_%d_%s", kind, x.idx, y.idx, field)
				pe.enc.Assert(logic.IffF(pe.enc.Atom(s), logic.AndF(alias, cond)))
				props = append(props, edgeProp{sym: s, kind: kind, field: field})
				defs = append(defs, pe.enc.Atom(s))
			}
			// Iterate fields in sorted order so proposition numbering — and
			// with it the solver's search and the models it reports — is
			// deterministic across runs (required for the query cache to be
			// exchangeable with fresh solving).
			for _, f := range sortedFields(x.writes) {
				if y.reads[f] {
					// wr: y's local view contains x's write of f.
					addEdge(EdgeWR, f, pe.enc.Atom(pe.visS[x.idx][y.idx]))
				}
				if y.writes[f] {
					// ww: y's write of f follows x's in arbitration order.
					addEdge(EdgeWW, f, pe.enc.Atom(pe.ordS[x.idx][y.idx]))
				}
			}
			for _, f := range sortedFields(x.reads) {
				if y.writes[f] {
					// rw: x read a version of f that does not include y's
					// write (anti-dependency).
					addEdge(EdgeRW, f, logic.NotF(pe.enc.Atom(pe.visS[y.idx][x.idx])))
				}
			}
			if len(props) == 0 {
				continue
			}
			pe.enc.Assert(logic.IffF(pe.enc.Atom(pe.depS[x.idx][y.idx]), logic.OrF(defs...)))
			if pe.deps[x.idx] == nil {
				pe.deps[x.idx] = map[int]bool{}
			}
			pe.deps[x.idx][y.idx] = true
			if pe.edgeNames[x.idx] == nil {
				pe.edgeNames[x.idx] = map[int][]edgeProp{}
			}
			pe.edgeNames[x.idx][y.idx] = props
		}
	}
}

// assertModelAxioms adds the per-consistency-model visibility axioms.
func (pe *pairEncoder) assertModelAxioms(model Model, ax orderAxioms) {
	n := len(pe.items)
	switch model {
	case EC:
		// Eventual consistency constrains nothing further: local views are
		// arbitrary subsets of committed batches (ConstructView).
	case CC:
		// co is the happens-before relation: program order ∪ vis, closed
		// transitively, consistent with arbitration order.
		pe.coS = pe.internRel(coName)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if i == j {
					continue
				}
				x, y := pe.items[i], pe.items[j]
				if x.inst == y.inst && i < j {
					pe.enc.AssertClauseS(logic.Pos(pe.coS[i][j]))
				}
				if x.writer && y.inst != x.inst {
					implies(pe.enc, pe.visS[i][j], pe.coS[i][j])
				}
				implies(pe.enc, pe.coS[i][j], pe.ordS[i][j])
			}
		}
		ax.co(pe.enc, pe.nA, pe.coS)
		// Causal delivery: a view containing w2 contains every write w1
		// happening-before w2.
		for _, w1 := range pe.items {
			if !w1.writer {
				continue
			}
			for _, w2 := range pe.items {
				if !w2.writer || w2.idx == w1.idx {
					continue
				}
				for _, y := range pe.items {
					if y.inst == w1.inst || y.inst == w2.inst {
						continue
					}
					pe.enc.AssertClauseS(
						logic.Neg(pe.coS[w1.idx][w2.idx]), logic.Neg(pe.visS[w2.idx][y.idx]),
						logic.Pos(pe.visS[w1.idx][y.idx]),
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
		for _, w := range pe.items {
			if !w.writer {
				continue
			}
			for _, y := range pe.items {
				if y.inst == w.inst {
					continue
				}
				for _, y2 := range pe.items {
					if y2.inst != y.inst || y2.idx <= y.idx {
						continue
					}
					iff(pe.enc, pe.visS[w.idx][y.idx], pe.visS[w.idx][y2.idx])
				}
			}
		}
	case SC:
		// Strong atomicity: arbitration order implies visibility, and all
		// of a transaction's writes become visible together. Strong
		// isolation: views do not grow mid-transaction (§3.2).
		for _, x := range pe.items {
			if !x.writer {
				continue
			}
			for _, y := range pe.items {
				if y.inst == x.inst {
					continue
				}
				implies(pe.enc, pe.ordS[x.idx][y.idx], pe.visS[x.idx][y.idx])
			}
			for _, x2 := range pe.items {
				if !x2.writer || x2.inst != x.inst || x2.idx <= x.idx {
					continue
				}
				for _, y := range pe.items {
					if y.inst == x.inst {
						continue
					}
					iff(pe.enc, pe.visS[x.idx][y.idx], pe.visS[x2.idx][y.idx])
				}
			}
		}
		for _, y := range pe.items {
			for _, y2 := range pe.items {
				if y2.inst != y.inst || y2.idx <= y.idx {
					continue
				}
				for _, w := range pe.items {
					if !w.writer || w.inst == y.inst {
						continue
					}
					implies(pe.enc, pe.visS[w.idx][y2.idx], pe.visS[w.idx][y.idx])
				}
			}
		}
	}
}

// hasDep reports whether a dep(x→y) proposition exists (some statically
// possible conflict).
func (pe *pairEncoder) hasDep(x, y *cmdInst) bool { return pe.deps[x.idx][y.idx] }

// solveCycle checks satisfiability of dep(from1→to1) ∧ dep(from2→to2)
// under the encoder's axioms. The assumption buffer is reused across the
// witness loop.
func (pe *pairEncoder) solveCycle(from1, to1, from2, to2 *cmdInst) bool {
	pe.assume[0] = pe.enc.LitS(pe.depS[from1.idx][to1.idx], false)
	pe.assume[1] = pe.enc.LitS(pe.depS[from2.idx][to2.idx], false)
	return pe.enc.SolveAssuming(pe.assume[:]...)
}

// buildPair assembles the reported access pair from a cycle query's
// outcome: the involved fields were read off the true edge propositions of
// whichever (identically encoded) solver answered the query.
func buildPair(txn, witness string, c1, c2, d1, d2 *cmdInst, r cycleResult) AccessPair {
	// Report the fields belonging to c1 and c2 respectively.
	pair := AccessPair{
		Txn: txn,
		C1:  c1.label, F1: r.Flds1,
		C2: c2.label, F2: r.Flds2,
		Witness: Witness{Txn: witness, D1: d1.label, D2: d2.label, Edge1: r.Kind1, Edge2: r.Kind2, Schedule: r.Sched},
	}
	pair.Kind = classify(c1, c2, r.Flds1, r.Flds2)
	return pair
}

// modelEdge returns the kind and fields of the true edge propositions for
// (x→y) in the current model.
func (pe *pairEncoder) modelEdge(x, y *cmdInst) (EdgeKind, []string) {
	var kind EdgeKind
	var fields []string
	for _, ep := range pe.edgeNames[x.idx][y.idx] {
		if pe.enc.ValueS(ep.sym) {
			kind = ep.kind
			fields = append(fields, ep.field)
		}
	}
	sort.Strings(fields)
	return kind, dedup(fields)
}

func sortedFields(set map[string]bool) []string {
	return slices.Sorted(maps.Keys(set))
}

func dedup(xs []string) []string {
	out := xs[:0:0]
	for i, x := range xs {
		if i == 0 || xs[i-1] != x {
			out = append(out, x)
		}
	}
	return out
}

// classify names the anomaly per the Fig. 2 taxonomy.
func classify(c1, c2 *cmdInst, f1, f2 []string) Kind {
	_, c1Sel := c1.cmd.(*ast.Select)
	_, c2Sel := c2.cmd.(*ast.Select)
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
