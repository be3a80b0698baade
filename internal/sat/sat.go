// Package sat implements a textbook CDCL (conflict-driven clause learning)
// SAT solver: two watched literals per clause, first-UIP conflict
// analysis, VSIDS variable activity, phase saving, and assumptions as
// pseudo-decisions. It has no restarts and never deletes a learnt clause.
//
// It is an oracle, not a production engine: the backend of the SAT
// encoding of anomaly detection that internal/anomaly's tests keep as the
// differential oracle for the small-model decision procedure (the paper
// uses Z3; the bounded FOL encoding reduces to propositional SAT), and of
// the benchmark's solver probes. No production package imports it, so it
// needs to be right, not fast (DESIGN.md §8).
package sat

import "slices"

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

// Solver is a CDCL SAT solver. The zero value is not usable; construct with
// New.
//
// A clause is a []Lit of two or more literals, addressed by its index in
// clauses and watched by its first two: watches[l] lists the clauses with l
// at [0] or [1], and propagation swaps literals within a clause to keep the
// watched ones there. An implied literal sits at [0] of its reason clause.
// (Indices rather than slices keep pointer writes, and with them the
// garbage collector's write barriers, out of propagation.)
type Solver struct {
	clauses  [][]Lit   // problem and learnt clauses
	watches  [][]int32 // clause indices, indexed by literal
	assigns  []lbool   // indexed by variable
	polarity []bool    // saved phase (true: negative), indexed by variable
	level    []int
	// reason is the implying clause's index per variable; noReason for
	// decisions, assumptions and level-0 units.
	reason   []int32
	seen     []bool // per-variable marks of analyze, cleared on return
	trail    []Lit
	trailLim []int
	qhead    int

	activity []float64
	varInc   float64
	heap     []int // max-heap of variables by activity
	heapIdx  []int // position in heap per variable, -1 when absent

	nProblem int    // problem clauses added (any size), after simplification
	ok       bool   // false once a top-level conflict is found
	model    []bool // assignment saved at the last satisfiable Solve

	// Stats
	Conflicts    int64
	Decisions    int64
	Propagations int64
}

// New creates an empty solver.
func New() *Solver { return &Solver{varInc: 1, ok: true} }

// NewVar introduces a fresh variable and returns its index.
func (s *Solver) NewVar() int {
	v := len(s.assigns)
	s.watches = append(s.watches, nil, nil)
	s.assigns = append(s.assigns, lUndef)
	s.polarity = append(s.polarity, true) // default phase: false
	s.level = append(s.level, 0)
	s.reason = append(s.reason, noReason)
	s.seen = append(s.seen, false)
	s.activity = append(s.activity, 0)
	s.heapIdx = append(s.heapIdx, -1)
	s.heapPush(v)
	return v
}

// NumVars returns the number of variables.
func (s *Solver) NumVars() int { return len(s.assigns) }

// NumClauses returns the number of problem clauses added so far (any size,
// after AddClause's level-0 simplification; learnt clauses excluded).
func (s *Solver) NumClauses() int { return s.nProblem }

func (s *Solver) valueLit(l Lit) lbool {
	v := s.assigns[l.Var()]
	if v != lUndef && l.Sign() {
		return lTrue + lFalse - v
	}
	return v
}

// AddClause adds a clause over the given literals. It returns false if the
// solver is already in an unsatisfiable state (empty clause derived). It
// may be called between Solve calls, which always return at level 0.
func (s *Solver) AddClause(lits ...Lit) bool {
	if !s.ok {
		return false
	}
	// Simplify at level 0: drop false and repeated literals; a true
	// literal or a complementary pair satisfies the clause.
	c := make([]Lit, 0, len(lits))
	for _, l := range lits {
		if s.valueLit(l) == lTrue || slices.Contains(c, l.Neg()) {
			return true
		}
		if s.valueLit(l) == lUndef && !slices.Contains(c, l) {
			c = append(c, l)
		}
	}
	s.nProblem++
	switch len(c) {
	case 0:
		s.ok = false
	case 1:
		s.enqueue(c[0], noReason)
		s.ok = s.propagate() == noReason
	default:
		s.watch(c)
	}
	return s.ok
}

// noReason marks the absence of a clause: no reason, no conflict.
const noReason int32 = -1

// watch stores c and watches it; it returns c's index.
func (s *Solver) watch(c []Lit) int32 {
	ci := int32(len(s.clauses))
	s.clauses = append(s.clauses, c)
	s.watches[c[0]] = append(s.watches[c[0]], ci)
	s.watches[c[1]] = append(s.watches[c[1]], ci)
	return ci
}

func (s *Solver) enqueue(l Lit, reason int32) {
	v := l.Var()
	s.assigns[v] = lTrue
	if l.Sign() {
		s.assigns[v] = lFalse
	}
	s.level[v] = s.decisionLevel()
	s.reason[v] = reason
	s.trail = append(s.trail, l)
}

func (s *Solver) decisionLevel() int { return len(s.trailLim) }

// propagate performs unit propagation and returns a conflicting clause, or
// noReason.
func (s *Solver) propagate() int32 {
	for s.qhead < len(s.trail) {
		falseLit := s.trail[s.qhead].Neg()
		s.qhead++
		s.Propagations++
		ws := s.watches[falseLit]
		kept := ws[:0]
	next:
		for i, ci := range ws {
			c := s.clauses[ci]
			if c[0] == falseLit {
				c[0], c[1] = c[1], c[0]
			}
			if s.valueLit(c[0]) == lTrue {
				kept = append(kept, ci)
				continue
			}
			for k := 2; k < len(c); k++ {
				if s.valueLit(c[k]) != lFalse {
					c[1], c[k] = c[k], c[1]
					s.watches[c[1]] = append(s.watches[c[1]], ci)
					continue next
				}
			}
			kept = append(kept, ci)
			if s.valueLit(c[0]) == lFalse {
				s.watches[falseLit] = append(kept, ws[i+1:]...)
				s.qhead = len(s.trail)
				return ci
			}
			s.enqueue(c[0], ci)
		}
		s.watches[falseLit] = kept
	}
	return noReason
}

// analyze performs first-UIP conflict analysis. It returns the learnt
// clause, asserting literal first and a literal of the backtrack level
// second, and the backtrack level.
func (s *Solver) analyze(confl int32) ([]Lit, int) {
	learnt := []Lit{0} // slot 0 is the asserting literal
	counter := 0
	p := Lit(-1)
	idx := len(s.trail) - 1
	for {
		for _, q := range s.clauses[confl] {
			v := q.Var()
			if q == p || s.seen[v] || s.level[v] == 0 {
				continue
			}
			s.seen[v] = true
			s.bumpVar(v)
			if s.level[v] == s.decisionLevel() {
				counter++
			} else {
				learnt = append(learnt, q)
			}
		}
		for !s.seen[s.trail[idx].Var()] {
			idx--
		}
		p = s.trail[idx]
		idx--
		s.seen[p.Var()] = false
		counter--
		if counter == 0 {
			break
		}
		confl = s.reason[p.Var()]
	}
	learnt[0] = p.Neg()
	bt := 0
	for i := 1; i < len(learnt); i++ {
		s.seen[learnt[i].Var()] = false
		if l := s.level[learnt[i].Var()]; l > bt {
			bt = l
			learnt[1], learnt[i] = learnt[i], learnt[1]
		}
	}
	return learnt, bt
}

func (s *Solver) bumpVar(v int) {
	s.activity[v] += s.varInc
	if s.activity[v] > 1e100 {
		for i := range s.activity {
			s.activity[i] *= 1e-100
		}
		s.varInc *= 1e-100
	}
	if s.heapIdx[v] >= 0 {
		s.heapUp(s.heapIdx[v])
	}
}

func (s *Solver) cancelUntil(level int) {
	if s.decisionLevel() <= level {
		return
	}
	for i := len(s.trail) - 1; i >= s.trailLim[level]; i-- {
		v := s.trail[i].Var()
		s.polarity[v] = s.trail[i].Sign()
		s.assigns[v] = lUndef
		s.reason[v] = noReason
		s.heapPush(v)
	}
	s.trail = s.trail[:s.trailLim[level]]
	s.trailLim = s.trailLim[:level]
	s.qhead = len(s.trail)
}

// Solve determines satisfiability under the given assumptions. On a
// satisfiable result, the model is available through Value. Learnt
// clauses, activities and phases persist into the next call.
func (s *Solver) Solve(assumptions ...Lit) bool {
	if !s.ok {
		return false
	}
	defer s.cancelUntil(0)
	for {
		if confl := s.propagate(); confl != noReason {
			s.Conflicts++
			if s.decisionLevel() == 0 {
				s.ok = false
				return false
			}
			learnt, bt := s.analyze(confl)
			s.cancelUntil(bt)
			if len(learnt) == 1 {
				s.enqueue(learnt[0], noReason)
			} else {
				s.enqueue(learnt[0], s.watch(learnt))
			}
			s.varInc /= 0.95
			continue
		}
		// Assumptions are the first decisions, one level each.
		if dl := s.decisionLevel(); dl < len(assumptions) {
			a := assumptions[dl]
			switch s.valueLit(a) {
			case lFalse:
				return false // the formula implies ¬a under the earlier ones
			case lTrue:
				s.trailLim = append(s.trailLim, len(s.trail)) // an empty level
			default:
				s.trailLim = append(s.trailLim, len(s.trail))
				s.enqueue(a, noReason)
			}
			continue
		}
		v := s.pickBranchVar()
		if v < 0 {
			s.model = s.model[:0]
			for _, a := range s.assigns {
				s.model = append(s.model, a == lTrue)
			}
			return true
		}
		s.Decisions++
		s.trailLim = append(s.trailLim, len(s.trail))
		s.enqueue(NewLit(v, s.polarity[v]), noReason)
	}
}

// Value returns variable v's value in the model saved by the most recent
// satisfiable Solve. Variables created after that Solve read false.
func (s *Solver) Value(v int) bool { return v < len(s.model) && s.model[v] }

func (s *Solver) pickBranchVar() int {
	for len(s.heap) > 0 {
		if v := s.heapPop(); s.assigns[v] == lUndef {
			return v
		}
	}
	return -1
}

// The decision heap: a binary max-heap of variables ordered by activity.

func (s *Solver) heapLess(i, j int) bool { return s.activity[s.heap[i]] > s.activity[s.heap[j]] }

func (s *Solver) heapSwap(i, j int) {
	s.heap[i], s.heap[j] = s.heap[j], s.heap[i]
	s.heapIdx[s.heap[i]] = i
	s.heapIdx[s.heap[j]] = j
}

func (s *Solver) heapPush(v int) {
	if s.heapIdx[v] >= 0 {
		return
	}
	s.heap = append(s.heap, v)
	s.heapIdx[v] = len(s.heap) - 1
	s.heapUp(len(s.heap) - 1)
}

func (s *Solver) heapPop() int {
	v := s.heap[0]
	s.heapSwap(0, len(s.heap)-1)
	s.heap = s.heap[:len(s.heap)-1]
	s.heapIdx[v] = -1
	for i := 0; ; {
		top, l, r := i, 2*i+1, 2*i+2
		if l < len(s.heap) && s.heapLess(l, top) {
			top = l
		}
		if r < len(s.heap) && s.heapLess(r, top) {
			top = r
		}
		if top == i {
			return v
		}
		s.heapSwap(i, top)
		i = top
	}
}

func (s *Solver) heapUp(i int) {
	for i > 0 && s.heapLess(i, (i-1)/2) {
		s.heapSwap(i, (i-1)/2)
		i = (i - 1) / 2
	}
}
