package anomaly

import "context"

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
	// sm is the decision procedure's scratch, reused by every query.
	sm smallModel
}

// detect decides transaction i, a fingerprint miss, into o: its pairs
// are left at the end of the pass's found, the queries counted.
func (d *detector) detect(i int, o *outcome) error {
	if err := d.ctx.Err(); err != nil {
		return err
	}
	plans, err := d.pass.witnessesOf(i)
	if err != nil {
		return err
	}
	issued, lo := d.issued, len(d.pass.found)
	if _, err := d.detectTxn(plans); err != nil {
		return err
	}
	o.detected, o.issued, o.lo, o.hi = true, d.issued-issued, lo, len(d.pass.found)
	return nil
}

// detectTxn finds the anomalous access pairs of the transaction planned
// by witnesses (pass.witnessesOf, in program order): for each pair of
// distinct commands (c1, c2), search over witness transactions and witness
// command pairs for a satisfiable dependency cycle. It appends them to the
// pass's found and returns them there: they are valid until the pass ends.
func (d *detector) detectTxn(witnesses []pairPlan) ([]AccessPair, error) {
	if len(witnesses) == 0 {
		return nil, nil
	}
	t := witnesses[0].t
	found := d.pass.found
	lo := len(found)
	for i := range t.cmds {
		for j := i + 1; j < len(t.cmds); j++ {
			for w := range witnesses {
				pair, ok, err := d.checkPairWitness(&witnesses[w], i, j)
				if err != nil {
					return nil, err
				}
				if ok {
					found = append(found, pair)
					break
				}
			}
		}
	}
	d.pass.found = found
	return found[lo:], nil
}

// checkPairWitness searches pe's witness transaction for a satisfiable
// dependency cycle through commands i and j of its transaction under
// test, walking the plan's candidates: d1 ranges over the witness commands
// i can share an edge with, d2 over j's.
func (d *detector) checkPairWitness(pe *pairPlan, c1, c2 int) (AccessPair, bool, error) {
	for _, d1 := range pe.cands(c1) {
		for _, d2 := range pe.cands(c2) {
			// Orientation 1: A.c1 → B.d1, B.d2 → A.c2; orientation 2:
			// B.d1 → A.c1, A.c2 → B.d2.
			for _, q := range [2][4]int{{c1, d1, d2, c2}, {d1, c1, c2, d2}} {
				r, err := d.solveCycle(pe, q)
				if err != nil {
					return AccessPair{}, false, err
				}
				if r.Sat {
					return pe.buildPair(c1, c2, d1, d2, q, r), true, nil
				}
			}
		}
	}
	return AccessPair{}, false, nil
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
	if r, ok := d.session.lookupQuery(key); ok {
		return r, nil
	}
	d.solved++
	r := d.sm.decide(pe, d.pass.model, q)
	d.session.storeQuery(key, r)
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

// fieldNames appends to dst the fields of rank mask r over item x's
// access set, in name order.
func (pe *pairPlan) fieldNames(dst []string, x int, r uint64) []string {
	it := pe.item(x)
	return pe.pass.layout(it.table).appendNames(dst, unrank(it.reads|it.writes, r))
}

// buildPair assembles the reported access pair from the answer r to query
// q on commands c1, c2 of A and d1, d2 of B.
func (pe *pairPlan) buildPair(c1, c2, d1, d2 int, q [4]int, r cycleResult) AccessPair {
	x1, x2 := pe.item(c1), pe.item(c2)
	// Report the fields of each edge: they are the fields both its ends
	// access, so naming them off the edge's source names c1's and c2's.
	// They are carved from the pass's scratch, which gather copies out.
	lo := len(pe.pass.names)
	fs := pe.fieldNames(pe.pass.names, q[0], r.Flds1)
	mid := len(fs)
	fs = pe.fieldNames(fs, q[2], r.Flds2)
	pe.pass.names = fs
	f1, f2 := fs[lo:mid:mid], fs[mid:len(fs):len(fs)]
	return AccessPair{
		Txn: pe.t.name,
		C1:  x1.label, F1: f1,
		C2: x2.label, F2: f2,
		Kind:    classify(x1.sel, x2.sel, f1, f2),
		Witness: Witness{Txn: pe.w.name, D1: pe.item(d1).label, D2: pe.item(d2).label, Edge1: kindNames[r.Kind1], Edge2: kindNames[r.Kind2]},
	}
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
