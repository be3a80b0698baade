package anomaly

import (
	"context"
	"math/bits"
)

type detector struct {
	// pass is the detection pass this detector works for: the program, the
	// model, and the per-transaction facts its plans are computed from.
	pass *pass
	// ctx carries the caller's deadline/cancellation, checked before every
	// cycle query.
	ctx context.Context
	// session memoizes decided cycle queries across detectors (and across
	// Detect calls). Nil only in the tests' cache-free reference detector.
	session *DetectSession
	issued  int // cycle-satisfiability queries asked
	solved  int // queries decided here (issued minus memo hits)
	hits    int // queries answered by the pass's or the session's memo
	// sm is the decision procedure's scratch, reused by every query.
	sm smallModel
}

// detect decides transaction i: its pairs are recorded in the pass's
// found, its queries counted.
func (d *detector) detect(i int) error {
	if err := d.ctx.Err(); err != nil {
		return err
	}
	plans, err := d.pass.witnessesOf(i)
	if err != nil {
		return err
	}
	return d.detectTxn(plans)
}

// detectTxn finds the anomalous access pairs of the transaction planned
// by witnesses (pass.witnessesOf, in program order): for each pair of
// distinct commands (c1, c2), search over witness transactions and witness
// command pairs for a satisfiable dependency cycle. It records each in the
// pass's found, which gather renders.
func (d *detector) detectTxn(witnesses []pairPlan) error {
	if len(witnesses) == 0 {
		return nil
	}
	t := witnesses[0].t
	for i := range t.cmds {
		for j := i + 1; j < len(t.cmds); j++ {
			for w := range witnesses {
				ok, err := d.checkPairWitness(&witnesses[w], i, j)
				if err != nil {
					return err
				}
				if ok {
					break
				}
			}
		}
	}
	return nil
}

// checkPairWitness searches pe's witness transaction for a satisfiable
// dependency cycle through commands i and j of its transaction under
// test, walking the plan's candidates: d1 ranges over the witness commands
// i can share an edge with, d2 over j's. The first it finds is recorded.
func (d *detector) checkPairWitness(pe *pairPlan, c1, c2 int) (bool, error) {
	for _, d1 := range pe.cands(c1) {
		for _, d2 := range pe.cands(c2) {
			// Orientation 1: A.c1 → B.d1, B.d2 → A.c2; orientation 2:
			// B.d1 → A.c1, A.c2 → B.d2.
			for o, q := range [2][4]int{{c1, d1, d2, c2}, {d1, c1, c2, d2}} {
				r, err := d.solveCycle(pe, q)
				if err != nil {
					return false, err
				}
				if r.Sat {
					d.pass.found = append(d.pass.found, finding{pe.ti, pe.wi, int32(c1), int32(c2), int32(d1 - pe.nA), int32(d2 - pe.nA), uint8(o), r})
					return true, nil
				}
			}
		}
	}
	return false, nil
}

// finding is one pair a pass found: its transaction and witness (program
// indices), their commands c1, c2 and d1, d2, the orientation of its
// cycle (0: c1 → d1, d2 → c2; 1: d1 → c1, c2 → d2) and the answer. It
// holds no pointer, so the pooled scratch keeping it needs no clearing;
// gather renders it once, into the report.
type finding struct {
	ti, wi, c1, c2, d1, d2 int32
	orient                 uint8
	r                      cycleResult
}

// cycleResult is the complete outcome of one cycle-satisfiability query:
// the verdict plus the witnessing edge kinds (indices into kindNames) and
// fields of its canonical model (smallmodel.go). It holds no pointer: each
// edge's fields are a rank mask over its source's access set (reads ∪
// writes), bit r standing for the set's r-th field in name order. Ranks,
// not layout bits, because an answer is memoized under names
// (pairPlan.contentKey) and may be read back by a pass whose layout of the
// table differs.
type cycleResult struct {
	Sat          bool
	Kind1, Kind2 uint8
	Flds1, Flds2 uint64
}

// solveCycle answers one dep(q[0]→q[1]) ∧ dep(q[2]→q[3]) query, through the
// session's memo when one is attached. The answer is a function of the
// plan's content and the query alone, so any pair with equal content
// (pairPlan.contentKey) shares it.
func (d *detector) solveCycle(pe *pairPlan, q [4]int) (cycleResult, error) {
	if err := d.ctx.Err(); err != nil {
		return cycleResult{}, err
	}
	d.issued++
	if d.session == nil {
		d.solved++
		return d.sm.decide(pe, d.pass.model, q), nil
	}
	key := memoKey{pe.contentKey(), [4]int32{int32(q[0]), int32(q[1]), int32(q[2]), int32(q[3])}}
	r, ok := d.pass.queries[key]
	if !ok {
		r, ok = d.session.lookupQuery(key)
	}
	if ok {
		d.hits++
		return r, nil
	}
	d.solved++
	r = d.sm.decide(pe, d.pass.model, q)
	d.pass.queries[key] = r
	return r, nil
}

// pairPlan is the plan of one (T, T') transaction pair: T as instance A
// under test, T' as the witness instance B. Commands are addressed by item
// index: A's commands in program order, then B's.
type pairPlan struct {
	// pass is the pass planning the pair: its layouts name the fields of
	// the facts' bits.
	pass  *pass
	t, w  *txnFacts
	nA, n int
	// ti and wi are t's and w's indices in the program.
	ti, wi int32
	// cand holds nA+1 offsets, then the candidate lists: cands(a) lists the
	// items of B command a of A can share a dependency edge with
	// (planPair).
	cand []int
	// content is contentKey's memo, 0 until first computed.
	content uint64
}

func (pe *pairPlan) cands(a int) []int { return pe.cand[pe.cand[a]:pe.cand[a+1]] }

// item returns the facts of item x; inst the instance (0 = A, 1 = B) it
// belongs to.
func (pe *pairPlan) item(x int) *cmdFacts {
	if x < pe.nA {
		return &pe.t.cmds[x]
	}
	return &pe.w.cmds[x-pe.nA]
}

func (pe *pairPlan) inst(x int) int {
	if x < pe.nA {
		return 0
	}
	return 1
}

func (pe *pairPlan) key(x int) keyConstraint {
	if x < pe.nA {
		return pe.t.key(x, 0)
	}
	return pe.w.key(x-pe.nA, 1)
}

// fieldNames appends to dst the fields of rank mask r over c's access
// set, in name order: bit i of r names the set's i-th field.
func (p *pass) fieldNames(dst []string, c *cmdFacts, r uint64) []string {
	l := p.layout(c.table)
	for m := c.reads | c.writes; r != 0; m, r = m&(m-1), r>>1 {
		if r&1 != 0 {
			dst = append(dst, l[bits.TrailingZeros64(m)])
		}
	}
	return dst
}

// render renders f into *a, its fields appended to blk, whose capacity
// they must fit, and returns the extended blk.
func (p *pass) render(f *finding, a *AccessPair, blk []string) []string {
	t, w := p.facts[f.ti], p.facts[f.wi]
	x1, x2, y1, y2 := &t.cmds[f.c1], &t.cmds[f.c2], &w.cmds[f.d1], &w.cmds[f.d2]
	// Report the fields of each edge: they are the fields both its ends
	// access, so naming them off the edge's source names c1's and c2's.
	src1, src2 := x1, y2
	if f.orient == 1 {
		src1, src2 = y1, x2
	}
	lo := len(blk)
	blk = p.fieldNames(blk, src1, f.r.Flds1)
	mid := len(blk)
	blk = p.fieldNames(blk, src2, f.r.Flds2)
	// Field by field: a is in the report's array, and assigning it a
	// whole AccessPair would copy one through the write barrier.
	a.Txn, a.C1, a.C2, a.F1, a.F2 = t.name, x1.label, x2.label, blk[lo:mid:mid], blk[mid:len(blk):len(blk)]
	a.Kind = classify(x1.sel, x2.sel, a.F1, a.F2)
	a.Witness.Txn, a.Witness.D1, a.Witness.D2 = w.name, y1.label, y2.label
	a.Witness.Edge1, a.Witness.Edge2 = kindNames[f.r.Kind1], kindNames[f.r.Kind2]
	return blk
}

// classify names the anomaly per the Fig. 2 taxonomy, from whether each
// command is a select and the fields of each edge.
func classify(c1Sel, c2Sel bool, f1, f2 []string) Kind {
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
