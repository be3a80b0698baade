// Package sat implements a CDCL (conflict-driven clause learning) SAT
// solver in the MiniSat style: two-watched-literal propagation, first-UIP
// conflict analysis, VSIDS variable activity, phase saving, and Luby
// restarts. It is the backend of the SAT encoding of anomaly detection
// that internal/anomaly's tests keep as the oracle for the small-model
// decision procedure (the paper uses Z3; the bounded FOL encoding reduces
// to propositional SAT), and of the benchmark's solver probes. No
// production package imports it.
//
// Memory layout (see DESIGN.md §8): clause literals live in one flat
// arena addressed by int32 refs, so propagation walks contiguous memory
// instead of chasing per-clause pointers. Watcher lists carry a blocker
// literal (a literal whose truth proves the clause satisfied without
// touching the arena), binary clauses live entirely in the watcher lists,
// and learnt clauses are periodically reduced by LBD/activity so long
// Solve sequences stop growing without bound.
package sat

import (
	"math"
	"slices"
)

// Lit is a literal: variable v has positive literal 2v and negative literal
// 2v+1.
type Lit int32

// NewLit builds the literal for variable v, negated when neg is true.
func NewLit(v int, neg bool) Lit {
	l := Lit(v << 1)
	if neg {
		l |= 1
	}
	return l
}

// Var returns the literal's variable index.
func (l Lit) Var() int { return int(l >> 1) }

// Sign reports whether the literal is negated.
func (l Lit) Sign() bool { return l&1 == 1 }

// Neg returns the complementary literal.
func (l Lit) Neg() Lit { return l ^ 1 }

type lbool int8

const (
	lUndef lbool = iota
	lTrue
	lFalse
)

func (b lbool) neg() lbool {
	switch b {
	case lTrue:
		return lFalse
	case lFalse:
		return lTrue
	default:
		return lUndef
	}
}

// cref addresses a clause in the literal arena. Special values mark the
// absence of a clause and the two clause forms that never enter the arena.
type cref = int32

const (
	// crefUndef marks "no clause": decision/assumption reasons, no conflict.
	crefUndef cref = -1
	// crefBinary tags a watcher (or conflict) as a binary clause; the
	// literals live in the watcher itself / binConflict.
	crefBinary cref = -2
)

// binReason encodes the reason "implied by a binary clause whose other
// literal is l" into a cref-compatible tag. Arena refs are >= 0, crefUndef
// and crefBinary occupy -1/-2, so binary reasons start at -3.
func binReason(other Lit) cref { return -3 - cref(other) }

func isBinReason(r cref) bool { return r <= -3 }

func binReasonLit(r cref) Lit { return Lit(-3 - r) }

// Clause arena layout: header word, then for learnt clauses an LBD word
// and a float32 activity word, then the literals. The header packs
// size<<2 | dead<<1 | learnt.
const (
	claLearntBit = 1
	claDeadBit   = 2
	claSizeShift = 2
)

// watcher is one entry of a literal's watch list. blocker is a literal of
// the clause whose truth proves the clause satisfied without reading the
// arena; for binary clauses (ref == crefBinary) it is the only other
// literal, so the whole clause lives in the watcher.
type watcher struct {
	ref     cref
	blocker Lit
}

// Solver is a CDCL SAT solver. The zero value is not usable; construct with
// New.
type Solver struct {
	arena    []Lit  // flat clause storage (headers + literals)
	clauses  []cref // problem clauses of size > 2
	learnts  []cref // learnt clauses of size > 2
	nProblem int    // problem clauses added (any size), for the reduce cap

	watches  [][]watcher // indexed by literal
	wslab    []watcher   // chunked backing store seeding fresh watch lists
	assigns  []lbool     // indexed by variable
	polarity []bool      // saved phase, indexed by variable
	level    []int
	reason   []cref
	trail    []Lit
	trailLim []int
	qhead    int

	activity []float64
	varInc   float64
	heap     *varHeap

	// Learnt-clause activity (MiniSat cla_inc/cla_decay, stored per clause
	// as float32 in the arena header).
	claInc float64

	// Learnt-clause reduction policy: when len(learnts) reaches maxLearnts
	// the solver restarts and deleteHalf runs; the cap then grows so the
	// database stays roughly proportional to live demand. reduceOff
	// disables the policy (tests compare on vs off).
	maxLearnts int
	reduceOff  bool

	ok    bool    // false once a top-level conflict is found
	model []lbool // assignment saved at the last satisfiable Solve

	binConflict [2]Lit // literals of a binary conflict (crefBinary)
	binScratch  [2]Lit // reason view for binary-implied literals
	seenLit     []byte // per-literal scratch for AddClause dedup
	seenVar     []bool // per-variable scratch for analyze
	learntTmp   []Lit  // scratch for the learnt clause under construction
	levelMark   []int  // per-level scratch for LBD computation
	lbdEpoch    int

	// Stats
	Conflicts    int64
	Decisions    int64
	Propagations int64
	// LearntsDeleted counts learnt clauses removed by reduction.
	LearntsDeleted int64
}

// reduceFloor is the minimum learnt-clause count before a reduction can
// trigger. It is deliberately high relative to the anomaly encodings (whose
// solvers accumulate at most a few hundred learnt clauses over a full
// repair), so reduction only engages on long adversarial Solve sequences.
const reduceFloor = 4096

// initialVarCap sizes the per-variable arrays up front: the typical
// anomaly encoding holds a few hundred variables, and pre-sizing spares
// every encoder the early append-doubling churn (8 parallel slices grow on
// NewVar).
const initialVarCap = 256

// New creates an empty solver.
func New() *Solver {
	s := &Solver{varInc: 1.0, claInc: 1.0, ok: true}
	s.assigns = make([]lbool, 0, initialVarCap)
	s.polarity = make([]bool, 0, initialVarCap)
	s.level = make([]int, 0, initialVarCap)
	s.reason = make([]cref, 0, initialVarCap)
	s.activity = make([]float64, 0, initialVarCap)
	s.watches = make([][]watcher, 0, 2*initialVarCap)
	s.seenLit = make([]byte, 0, 2*initialVarCap)
	s.seenVar = make([]bool, 0, initialVarCap)
	s.heap = newVarHeap(&s.activity)
	return s
}

// Reset restores the solver to its freshly constructed state while keeping
// every backing array: a reset solver behaves identically to sat.New()'s —
// same clause refs, same variable numbering, same search — but re-adding a
// similarly sized problem allocates almost nothing. logic's encoder pool
// recycles solvers through this.
func (s *Solver) Reset() {
	s.arena = s.arena[:0]
	s.clauses = s.clauses[:0]
	s.learnts = s.learnts[:0]
	s.nProblem = 0
	// Watch lists must drop to nil, not truncate: live lists may alias
	// wslab windows that the next use re-carves for other literals.
	for i := range s.watches {
		s.watches[i] = nil
	}
	s.watches = s.watches[:0]
	s.wslab = s.wslab[:0]
	s.assigns = s.assigns[:0]
	s.polarity = s.polarity[:0]
	s.level = s.level[:0]
	s.reason = s.reason[:0]
	s.trail = s.trail[:0]
	s.trailLim = s.trailLim[:0]
	s.qhead = 0
	s.activity = s.activity[:0]
	s.varInc = 1.0
	s.heap.reset()
	s.claInc = 1.0
	s.maxLearnts = 0
	s.reduceOff = false
	s.ok = true
	s.model = s.model[:0]
	s.seenLit = s.seenLit[:0]
	s.seenVar = s.seenVar[:0]
	s.learntTmp = s.learntTmp[:0]
	s.levelMark = s.levelMark[:0]
	s.lbdEpoch = 0
	s.Conflicts, s.Decisions, s.Propagations, s.LearntsDeleted = 0, 0, 0, 0
}

// NewVar introduces a fresh variable and returns its index.
func (s *Solver) NewVar() int {
	v := len(s.assigns)
	s.assigns = append(s.assigns, lUndef)
	s.polarity = append(s.polarity, true) // default phase: false
	s.level = append(s.level, 0)
	s.reason = append(s.reason, crefUndef)
	s.activity = append(s.activity, 0)
	s.watches = append(s.watches, nil, nil)
	s.seenLit = append(s.seenLit, 0, 0)
	s.seenVar = append(s.seenVar, false)
	s.heap.push(v)
	return v
}

// NumVars returns the number of variables.
func (s *Solver) NumVars() int { return len(s.assigns) }

// NumClauses returns the number of problem clauses added so far (any size,
// after AddClause's level-0 simplification; learnt clauses excluded).
func (s *Solver) NumClauses() int { return s.nProblem }

func (s *Solver) valueLit(l Lit) lbool {
	v := s.assigns[l.Var()]
	if l.Sign() {
		return v.neg()
	}
	return v
}

// --- clause arena ---

func (s *Solver) claSize(r cref) int { return int(s.arena[r]) >> claSizeShift }

func (s *Solver) claLearnt(r cref) bool { return s.arena[r]&claLearntBit != 0 }

func (s *Solver) claDead(r cref) bool { return s.arena[r]&claDeadBit != 0 }

func (s *Solver) claLitOff(r cref) cref {
	if s.arena[r]&claLearntBit != 0 {
		return r + 3
	}
	return r + 1
}

// claLits returns the clause's literal slice (a view into the arena).
func (s *Solver) claLits(r cref) []Lit {
	off := s.claLitOff(r)
	return s.arena[off : int(off)+s.claSize(r)]
}

func (s *Solver) claLBD(r cref) int { return int(s.arena[r+1]) }

func (s *Solver) claActivity(r cref) float32 {
	return math.Float32frombits(uint32(s.arena[r+2]))
}

func (s *Solver) claSetActivity(r cref, a float32) {
	s.arena[r+2] = Lit(math.Float32bits(a))
}

// allocClause copies lits into the arena and returns the new clause's ref.
func (s *Solver) allocClause(lits []Lit, learnt bool, lbd int) cref {
	r := cref(len(s.arena))
	hdr := Lit(len(lits) << claSizeShift)
	if learnt {
		hdr |= claLearntBit
		s.arena = append(s.arena, hdr, Lit(lbd), Lit(math.Float32bits(0)))
	} else {
		s.arena = append(s.arena, hdr)
	}
	s.arena = append(s.arena, lits...)
	return r
}

// addWatch appends to a literal's watch list. Fresh lists are carved as
// 4-capacity windows out of a chunked slab rather than allocated
// individually: the axiom encodings watch hundreds of thousands of
// literals per repair (two aux variables per transitivity instance), and
// one heap object per list dominated the whole pipeline's allocation
// profile. A list that outgrows its window is moved by append's normal
// doubling, abandoning the window; watch lists average a handful of
// entries, so most never leave the slab.
func (s *Solver) addWatch(l Lit, w watcher) {
	if s.watches[l] == nil {
		if len(s.wslab)+watchSeedCap > cap(s.wslab) {
			s.wslab = make([]watcher, 0, watchSlabSize)
		}
		base := len(s.wslab)
		s.wslab = s.wslab[:base+watchSeedCap]
		s.watches[l] = s.wslab[base : base : base+watchSeedCap]
	}
	s.watches[l] = append(s.watches[l], w)
}

const (
	watchSeedCap  = 4
	watchSlabSize = 4096
)

func (s *Solver) attach(r cref) {
	lits := s.claLits(r)
	s.addWatch(lits[0], watcher{ref: r, blocker: lits[1]})
	s.addWatch(lits[1], watcher{ref: r, blocker: lits[0]})
}

func (s *Solver) attachBinary(a, b Lit) {
	s.addWatch(a, watcher{ref: crefBinary, blocker: b})
	s.addWatch(b, watcher{ref: crefBinary, blocker: a})
}

// AddClause adds a clause over the given literals. It returns false if the
// solver is already in an unsatisfiable state (empty clause derived).
// Must be called before Solve, at decision level 0.
func (s *Solver) AddClause(lits ...Lit) bool {
	if !s.ok {
		return false
	}
	// Simplify: drop false literals and duplicates; detect tautologies.
	// seenLit is a persistent per-literal scratch, cleared before returning.
	out := s.learntTmp[:0]
	satisfied := false
	for _, l := range lits {
		switch {
		case s.valueLit(l) == lTrue || s.seenLit[l.Neg()] != 0:
			satisfied = true // clause already satisfied / tautology
		case s.valueLit(l) == lFalse || s.seenLit[l] != 0:
			continue
		default:
			s.seenLit[l] = 1
			out = append(out, l)
		}
		if satisfied {
			break
		}
	}
	s.learntTmp = out[:0]
	for _, l := range out {
		s.seenLit[l] = 0
	}
	if satisfied {
		return true
	}
	s.nProblem++
	switch len(out) {
	case 0:
		s.ok = false
		return false
	case 1:
		s.uncheckedEnqueue(out[0], crefUndef)
		s.ok = s.propagate() == crefUndef
		return s.ok
	case 2:
		s.attachBinary(out[0], out[1])
		return true
	}
	r := s.allocClause(out, false, 0)
	s.clauses = append(s.clauses, r)
	s.attach(r)
	return true
}

func (s *Solver) uncheckedEnqueue(l Lit, from cref) {
	v := l.Var()
	if l.Sign() {
		s.assigns[v] = lFalse
	} else {
		s.assigns[v] = lTrue
	}
	s.level[v] = s.decisionLevel()
	s.reason[v] = from
	s.trail = append(s.trail, l)
}

func (s *Solver) decisionLevel() int { return len(s.trailLim) }

// propagate performs unit propagation; it returns a conflicting clause ref
// (crefBinary: the literals are in binConflict) or crefUndef.
func (s *Solver) propagate() cref {
	for s.qhead < len(s.trail) {
		p := s.trail[s.qhead]
		s.qhead++
		s.Propagations++
		falseLit := p.Neg()
		ws := s.watches[falseLit]
		kept := ws[:0]
		conflict := crefUndef
		for i := 0; i < len(ws); i++ {
			w := ws[i]
			if conflict != crefUndef {
				kept = append(kept, w)
				continue
			}
			if w.ref == crefBinary {
				// Binary clause {falseLit, blocker}: satisfied, unit, or
				// conflicting — the watcher never moves.
				switch s.valueLit(w.blocker) {
				case lTrue:
				case lFalse:
					s.binConflict = [2]Lit{falseLit, w.blocker}
					conflict = crefBinary
					s.qhead = len(s.trail)
				default:
					s.uncheckedEnqueue(w.blocker, binReason(falseLit))
				}
				kept = append(kept, w)
				continue
			}
			// Blocker fast path: a true blocker proves the clause satisfied
			// without touching the arena.
			if s.valueLit(w.blocker) == lTrue {
				kept = append(kept, w)
				continue
			}
			lits := s.claLits(w.ref)
			// Normalize: watched false literal at position 1.
			if lits[0] == falseLit {
				lits[0], lits[1] = lits[1], lits[0]
			}
			first := lits[0]
			// Satisfied by the other watcher?
			if s.valueLit(first) == lTrue {
				kept = append(kept, watcher{ref: w.ref, blocker: first})
				continue
			}
			// Look for a replacement watch.
			moved := false
			for k := 2; k < len(lits); k++ {
				if s.valueLit(lits[k]) != lFalse {
					lits[1], lits[k] = lits[k], lits[1]
					s.addWatch(lits[1], watcher{ref: w.ref, blocker: first})
					moved = true
					break
				}
			}
			if moved {
				continue
			}
			// Unit or conflicting.
			kept = append(kept, watcher{ref: w.ref, blocker: first})
			if s.valueLit(first) == lFalse {
				conflict = w.ref
				s.qhead = len(s.trail)
			} else {
				s.uncheckedEnqueue(first, w.ref)
			}
		}
		s.watches[falseLit] = kept
		if conflict != crefUndef {
			return conflict
		}
	}
	return crefUndef
}

// analyze performs first-UIP conflict analysis, returning the learnt clause
// (asserting literal first, in a scratch buffer reused across conflicts)
// and the backtrack level.
func (s *Solver) analyze(confl cref) ([]Lit, int) {
	learnt := append(s.learntTmp[:0], 0) // slot 0 reserved for the asserting literal
	seen := s.seenVar
	counter := 0
	var p Lit = -1
	idx := len(s.trail) - 1

	for {
		var lits []Lit
		switch {
		case confl == crefBinary:
			lits = s.binConflict[:]
		case isBinReason(confl):
			s.binScratch = [2]Lit{p, binReasonLit(confl)}
			lits = s.binScratch[:]
		default:
			if s.claLearnt(confl) {
				s.bumpClause(confl)
			}
			lits = s.claLits(confl)
		}
		for _, q := range lits {
			if p != -1 && q == p {
				continue
			}
			v := q.Var()
			if !seen[v] && s.level[v] > 0 {
				seen[v] = true
				s.bumpVar(v)
				if s.level[v] == s.decisionLevel() {
					counter++
				} else {
					learnt = append(learnt, q)
				}
			}
		}
		// Find next literal on the trail to resolve on.
		for !seen[s.trail[idx].Var()] {
			idx--
		}
		p = s.trail[idx]
		idx--
		seen[p.Var()] = false
		counter--
		if counter == 0 {
			break
		}
		confl = s.reason[p.Var()]
	}
	learnt[0] = p.Neg()
	// Release the per-variable scratch marks (p's own was cleared above).
	for _, l := range learnt[1:] {
		seen[l.Var()] = false
	}
	s.learntTmp = learnt

	// Backtrack level: highest level among the non-asserting literals.
	bt := 0
	for i := 1; i < len(learnt); i++ {
		if l := s.level[learnt[i].Var()]; l > bt {
			bt = l
		}
	}
	// Move a literal of the backtrack level to position 1 (watch invariant).
	if len(learnt) > 1 {
		maxI := 1
		for i := 2; i < len(learnt); i++ {
			if s.level[learnt[i].Var()] > s.level[learnt[maxI].Var()] {
				maxI = i
			}
		}
		learnt[1], learnt[maxI] = learnt[maxI], learnt[1]
	}
	return learnt, bt
}

// lbd computes the literal block distance of a clause: the number of
// distinct decision levels among its literals (Audemard & Simon's glue
// metric; lower predicts more useful learnt clauses).
func (s *Solver) lbd(lits []Lit) int {
	s.lbdEpoch++
	n := 0
	for _, l := range lits {
		lvl := s.level[l.Var()]
		for lvl >= len(s.levelMark) {
			s.levelMark = append(s.levelMark, 0)
		}
		if s.levelMark[lvl] != s.lbdEpoch {
			s.levelMark[lvl] = s.lbdEpoch
			n++
		}
	}
	return n
}

func (s *Solver) bumpVar(v int) {
	s.activity[v] += s.varInc
	if s.activity[v] > 1e100 {
		for i := range s.activity {
			s.activity[i] *= 1e-100
		}
		s.varInc *= 1e-100
	}
	s.heap.update(v)
}

func (s *Solver) decayVarActivity() { s.varInc /= 0.95 }

func (s *Solver) bumpClause(r cref) {
	a := float32(float64(s.claActivity(r)) + s.claInc)
	s.claSetActivity(r, a)
	if a > 1e20 {
		for _, lr := range s.learnts {
			s.claSetActivity(lr, s.claActivity(lr)*1e-20)
		}
		s.claInc *= 1e-20
	}
}

func (s *Solver) decayClauseActivity() { s.claInc /= 0.999 }

func (s *Solver) cancelUntil(level int) {
	if s.decisionLevel() <= level {
		return
	}
	for i := len(s.trail) - 1; i >= s.trailLim[level]; i-- {
		v := s.trail[i].Var()
		s.polarity[v] = s.trail[i].Sign()
		s.assigns[v] = lUndef
		s.reason[v] = crefUndef
		s.heap.push(v)
	}
	s.trail = s.trail[:s.trailLim[level]]
	s.trailLim = s.trailLim[:level]
	s.qhead = len(s.trail)
}

func (s *Solver) pickBranchVar() int {
	for s.heap.len() > 0 {
		v := s.heap.pop()
		if s.assigns[v] == lUndef {
			return v
		}
	}
	return -1
}

// reduceDB deletes the less useful half of the learnt-clause database and
// compacts the arena. It must run at decision level 0 (reasons recorded on
// the level-0 trail are cleared first — they are never consulted by
// analyze, which only resolves above level 0). Deletion is sound: learnt
// clauses are logical consequences of the problem clauses, so removing
// them never changes satisfiability, and the deterministic trigger/order
// keep the solver's model sequence reproducible run to run.
func (s *Solver) reduceDB() {
	for _, l := range s.trail {
		s.reason[l.Var()] = crefUndef
	}
	// Rank learnts: glue clauses (LBD <= 2) are always kept; the rest are
	// ordered worst-first by (LBD desc, activity asc, ref desc) and the
	// worst half of the database is deleted.
	candidates := make([]cref, 0, len(s.learnts))
	for _, r := range s.learnts {
		if s.claLBD(r) > 2 {
			candidates = append(candidates, r)
		}
	}
	slices.SortFunc(candidates, func(a, b cref) int {
		if la, lb := s.claLBD(a), s.claLBD(b); la != lb {
			return lb - la
		}
		if aa, ab := s.claActivity(a), s.claActivity(b); aa != ab {
			if aa < ab {
				return -1
			}
			return 1
		}
		return int(b - a)
	})
	drop := len(s.learnts) / 2
	if drop > len(candidates) {
		drop = len(candidates)
	}
	for _, r := range candidates[:drop] {
		s.arena[r] |= claDeadBit
	}
	s.LearntsDeleted += int64(drop)

	// Compact: copy surviving clauses into a fresh arena, remapping refs.
	remap := make(map[cref]cref, len(s.clauses)+len(s.learnts)-drop)
	newArena := make([]Lit, 0, len(s.arena))
	for r := cref(0); int(r) < len(s.arena); {
		size := int(s.arena[r]) >> claSizeShift
		width := 1 + size
		if s.arena[r]&claLearntBit != 0 {
			width += 2
		}
		if s.arena[r]&claDeadBit == 0 {
			remap[r] = cref(len(newArena))
			newArena = append(newArena, s.arena[r:int(r)+width]...)
		}
		r += cref(width)
	}
	s.arena = newArena
	for i, r := range s.clauses {
		s.clauses[i] = remap[r]
	}
	kept := s.learnts[:0]
	for _, r := range s.learnts {
		if nr, ok := remap[r]; ok {
			kept = append(kept, nr)
		}
	}
	s.learnts = kept
	for li := range s.watches {
		ws := s.watches[li]
		out := ws[:0]
		for _, w := range ws {
			if w.ref == crefBinary {
				out = append(out, w)
				continue
			}
			if nr, ok := remap[w.ref]; ok {
				out = append(out, watcher{ref: nr, blocker: w.blocker})
			}
		}
		s.watches[li] = out
	}
	// Grow the cap so the database tracks live demand; the max() guards
	// against a glue-heavy database that cannot shrink below the cap.
	next := s.maxLearnts * 3 / 2
	if next < len(s.learnts)+reduceFloor/2 {
		next = len(s.learnts) + reduceFloor/2
	}
	s.maxLearnts = next
}

// luby computes the Luby restart sequence element for index i (1-based):
// 1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8, ...
func luby(i int64) int64 {
	x := i - 1
	var size, seq int64
	for size, seq = 1, 0; size < x+1; seq, size = seq+1, 2*size+1 {
	}
	for size-1 != x {
		size = (size - 1) >> 1
		seq--
		x %= size
	}
	return int64(1) << uint(seq)
}

// Solve determines satisfiability under the given assumptions. On a
// satisfiable result, the model is available through Value.
func (s *Solver) Solve(assumptions ...Lit) bool {
	if !s.ok {
		return false
	}
	defer s.cancelUntil(0)
	// The trail holds at most one entry per variable (plus empty assumption
	// levels contribute none); one reservation sized to the variable count
	// replaces append growth across the whole Solve sequence.
	if cap(s.trail) < len(s.assigns) {
		t := make([]Lit, len(s.trail), len(s.assigns))
		copy(t, s.trail)
		s.trail = t
	}
	if s.maxLearnts == 0 {
		s.maxLearnts = s.nProblem / 3
		if s.maxLearnts < reduceFloor {
			s.maxLearnts = reduceFloor
		}
	}

	const restartBase = 100
	var restartCount int64
	conflictsUntilRestart := restartBase * luby(1)
	var conflictsSinceRestart int64

	for {
		confl := s.propagate()
		if confl != crefUndef {
			s.Conflicts++
			conflictsSinceRestart++
			if s.decisionLevel() == 0 {
				s.ok = false
				return false
			}
			learnt, bt := s.analyze(confl)
			s.cancelUntil(bt)
			switch len(learnt) {
			case 1:
				s.uncheckedEnqueue(learnt[0], crefUndef)
			case 2:
				s.attachBinary(learnt[0], learnt[1])
				s.uncheckedEnqueue(learnt[0], binReason(learnt[1]))
			default:
				r := s.allocClause(learnt, true, s.lbd(learnt))
				s.learnts = append(s.learnts, r)
				s.attach(r)
				s.bumpClause(r)
				s.uncheckedEnqueue(learnt[0], r)
			}
			s.decayVarActivity()
			s.decayClauseActivity()
			if !s.reduceOff && len(s.learnts) >= s.maxLearnts {
				s.cancelUntil(0)
				s.reduceDB()
			}
			continue
		}
		if conflictsSinceRestart >= conflictsUntilRestart {
			restartCount++
			conflictsSinceRestart = 0
			conflictsUntilRestart = restartBase * luby(restartCount+1)
			s.cancelUntil(0)
			continue
		}
		// Apply assumptions as pseudo-decisions below real decisions.
		if s.decisionLevel() < len(assumptions) {
			a := assumptions[s.decisionLevel()]
			switch s.valueLit(a) {
			case lTrue:
				// Already satisfied: open an empty decision level.
				s.trailLim = append(s.trailLim, len(s.trail))
				continue
			case lFalse:
				// Assumptions conflict with the formula.
				return false
			default:
				s.trailLim = append(s.trailLim, len(s.trail))
				s.uncheckedEnqueue(a, crefUndef)
				continue
			}
		}
		v := s.pickBranchVar()
		if v == -1 {
			// All variables assigned: save the model (the deferred
			// cancelUntil(0) will unwind the trail).
			s.model = append(s.model[:0], s.assigns...)
			return true
		}
		s.Decisions++
		s.trailLim = append(s.trailLim, len(s.trail))
		s.uncheckedEnqueue(NewLit(v, s.polarity[v]), crefUndef)
	}
}

// Value returns variable v's value in the model saved by the most recent
// satisfiable Solve. Variables created after that Solve read false.
func (s *Solver) Value(v int) bool { return v < len(s.model) && s.model[v] == lTrue }

// Model returns a copy of the saved model as a bool slice indexed by
// variable.
func (s *Solver) Model() []bool {
	m := make([]bool, len(s.model))
	for v := range s.model {
		m[v] = s.model[v] == lTrue
	}
	return m
}

// varHeap is a max-heap over variable activities with lazy rebuilds.
type varHeap struct {
	act     *[]float64
	heap    []int
	indices []int
}

func newVarHeap(act *[]float64) *varHeap {
	return &varHeap{act: act}
}

// reset empties the heap keeping its backing arrays; push re-grows indices
// as variables are re-created in order.
func (h *varHeap) reset() {
	h.heap = h.heap[:0]
	h.indices = h.indices[:0]
}

func (h *varHeap) len() int { return len(h.heap) }

func (h *varHeap) less(i, j int) bool {
	return (*h.act)[h.heap[i]] > (*h.act)[h.heap[j]]
}

func (h *varHeap) swap(i, j int) {
	h.heap[i], h.heap[j] = h.heap[j], h.heap[i]
	h.indices[h.heap[i]] = i
	h.indices[h.heap[j]] = j
}

func (h *varHeap) push(v int) {
	for v >= len(h.indices) {
		h.indices = append(h.indices, -1)
	}
	if h.indices[v] >= 0 {
		return // already present
	}
	h.heap = append(h.heap, v)
	h.indices[v] = len(h.heap) - 1
	h.up(len(h.heap) - 1)
}

func (h *varHeap) pop() int {
	v := h.heap[0]
	h.swap(0, len(h.heap)-1)
	h.heap = h.heap[:len(h.heap)-1]
	h.indices[v] = -1
	if len(h.heap) > 0 {
		h.down(0)
	}
	return v
}

func (h *varHeap) update(v int) {
	if v < len(h.indices) && h.indices[v] >= 0 {
		h.up(h.indices[v])
	}
}

func (h *varHeap) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(i, parent) {
			break
		}
		h.swap(i, parent)
		i = parent
	}
}

func (h *varHeap) down(i int) {
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < len(h.heap) && h.less(l, smallest) {
			smallest = l
		}
		if r < len(h.heap) && h.less(r, smallest) {
			smallest = r
		}
		if smallest == i {
			return
		}
		h.swap(i, smallest)
		i = smallest
	}
}
