package anomaly

import (
	"math/bits"
	"slices"
	"strings"
)

// This file is the decision procedure for cycle queries (DESIGN.md §3). A
// query dep(from1→to1) ∧ dep(from2→to2) names at most four commands — two
// of instance A, one or two of instance B — and is decided over those
// commands alone:
//
//   - Key terms. dep(x→y) needs x and y to touch a common record, so every
//     primary-key field both pin must pin equal values. The two edges'
//     equalities are unioned per (table, key field) sort; a class holding
//     two distinct constants, or a uuid() together with any other term, is
//     unsatisfiable. Equalities nothing forces are false.
//   - Orders and views. The merges of the cycle items' program orders (at
//     most 6) are tried in a fixed order, and within each the choices of
//     one dependency kind per edge (at most 3 × 3). A kind is a condition
//     on the order (ww: ord(x,y)) or on one visibility bit (wr: vis(x,y);
//     rw: ¬vis(y,x)). The model's visibility axioms over the cycle items
//     are implications between bits — vis ⊆ ord makes bits false, CC's
//     causal delivery makes a visible writer's program-order predecessors
//     visible, RR makes a writer visible to all of an instance or none —
//     so a choice is admissible iff the closure of the bits it needs true
//     avoids the bits it needs false and the bits the order forbids. The
//     closure is the least admissible visibility mask of that choice.
//
// Commands off the cycle always admit a harmless placement (DESIGN.md §3
// gives the argument per model), which schedule constructs.
//
// The answer carries a canonical model: Kind1/Kind2 and the schedule come
// from the first admissible assignment — orders in merge order with A's
// commands first, then the numerically least visibility mask — and
// Flds1/Flds2 are the maximal field sets: every field of a kind that some
// admissible assignment gives its edge.

// Dependency kinds as small-model indices.
const (
	kWR = iota
	kWW
	kRW
	nKinds
)

// kindNames names the kinds; index nKinds is an edge with no kind.
var kindNames = [nKinds + 1]EdgeKind{EdgeWR, EdgeWW, EdgeRW, ""}

// merges lists, for one and two B items, the merges of A's two cycle items
// with B's in enumeration order. The highest bit is the first slot, and a
// set bit gives the slot to B, so ascending masks put A's commands first.
var merges = [2][]uint8{
	{0b001, 0b010, 0b100},
	{0b0011, 0b0101, 0b0110, 0b1001, 0b1010, 0b1100},
}

// smEdge is one edge of the query with what each kind needs.
type smEdge struct {
	x, y   int
	xk, yk uint8 // x's and y's positions in smallModel.items
	kinds  uint8 // bit k: some field gives the edge kind k
	// wrBit is vis(x,y)'s bit, rwBit vis(y,x)'s; -1 when not a writer pair.
	wrBit, rwBit int8
}

// smNode is one key term of one (table, key field) sort in the
// union-find.
type smNode struct {
	table  int32
	t      keyTerm
	parent int
}

// smallModel is the scratch state of one decision; a detector owns one and
// reuses it for every query, so deciding allocates nothing but the answer.
type smallModel struct {
	pe    *pairPlan
	model Model
	q     [4]int
	// items are the distinct cycle items in item order (A's first), na of
	// them in instance A; pos[k] is item k's slot in the current merge.
	items  [4]int
	ni, na int
	pos    [4]int
	edges  [2]smEdge
	// pairs are the cross-instance (writer, reader) pairs of the cycle, as
	// positions in items, one visibility bit each; cl[b] is the set of bits
	// bit b forces true.
	pairs [8][2]uint8
	npair int
	cl    [8]uint8
	nodes []smNode
	// best is the last satisfiable decision's visibility mask.
	best uint8
}

// decide decides one query on pe under model. A satisfiable decision leaves
// its canonical merge placed and its mask in best, for schedule.
func (sm *smallModel) decide(pe *pairPlan, model Model, q [4]int) cycleResult {
	sm.pe, sm.model, sm.q = pe, model, q
	if model == SC || !sm.keysAlias() {
		// Under SC every dependency edge runs forward in ord and has a writer
		// at one end, and a writer that precedes any command of the other
		// instance precedes all of it (strong atomicity and isolation), so
		// no two edges close a cycle (DESIGN.md §3).
		return cycleResult{}
	}
	sm.setup()
	var admissible [2]uint8
	first, best := -1, uint8(0)
	ms := merges[sm.ni-sm.na-1]
	for mi, m := range ms {
		forbid := sm.place(m)
		for k1 := range nKinds {
			if sm.edges[0].kinds&(1<<k1) == 0 {
				continue
			}
			for k2 := range nKinds {
				if sm.edges[1].kinds&(1<<k2) == 0 {
					continue
				}
				mask, ok := sm.admit(k1, k2, forbid)
				if !ok {
					continue
				}
				admissible[0] |= 1 << k1
				admissible[1] |= 1 << k2
				if first < 0 || first == mi && mask < best {
					first, best = mi, mask
				}
			}
		}
	}
	if first < 0 {
		return cycleResult{}
	}
	sm.place(ms[first])
	sm.best = best
	r := cycleResult{Sat: true}
	r.Flds1 = sm.fields(0, admissible[0])
	r.Flds2 = sm.fields(1, admissible[1])
	r.Kind1 = sm.modelEdge(0, best, nil)
	r.Kind2 = sm.modelEdge(1, best, nil)
	return r
}

// keysAlias unions the key terms the two edges equate and reports whether
// every class can take one value.
func (sm *smallModel) keysAlias() bool {
	sm.nodes = sm.nodes[:0]
	pe := sm.pe
	for e := 0; e < 2; e++ {
		x, y := sm.q[2*e], sm.q[2*e+1]
		kx, ky := pe.key(x), pe.key(y)
		table := pe.item(x).table
		for i, j := 0, 0; i < len(kx) && j < len(ky); {
			switch {
			case kx[i].bit < ky[j].bit:
				i++
			case kx[i].bit > ky[j].bit:
				j++
			default:
				if kx[i].digest != ky[j].digest {
					sm.union(sm.node(table, kx[i]), sm.node(table, ky[j]))
				}
				i, j = i+1, j+1
			}
		}
	}
	// A class admits one value iff no two of its terms are decided unequal
	// (distinct constants, or a uuid() and anything else).
	for i := range sm.nodes {
		for j := i + 1; j < len(sm.nodes); j++ {
			if decideEq(sm.nodes[i].t, sm.nodes[j].t) == eqFalse && sm.find(i) == sm.find(j) {
				return false
			}
		}
	}
	return true
}

func (sm *smallModel) node(table int32, t keyTerm) int {
	for i := range sm.nodes {
		n := &sm.nodes[i]
		if n.t == t && n.table == table {
			return i
		}
	}
	sm.nodes = append(sm.nodes, smNode{table: table, t: t, parent: len(sm.nodes)})
	return len(sm.nodes) - 1
}

func (sm *smallModel) find(i int) int {
	for sm.nodes[i].parent != i {
		i = sm.nodes[i].parent
	}
	return i
}

func (sm *smallModel) union(a, b int) {
	if ra, rb := sm.find(a), sm.find(b); ra != rb {
		sm.nodes[max(ra, rb)].parent = min(ra, rb)
	}
}

// setup collects the cycle items, their visibility bits with the closure of
// each under the model's axioms, and what each edge's kinds need.
func (sm *smallModel) setup() {
	pe := sm.pe
	sm.ni, sm.na = 0, 0
	q := sm.q
	sorted := [4]int{q[0], q[1], q[2], q[3]}
	slices.Sort(sorted[:])
	for k, x := range sorted {
		if k > 0 && x == sorted[k-1] {
			continue
		}
		sm.items[sm.ni] = x
		sm.ni++
		if x < pe.nA {
			sm.na++
		}
	}
	sm.npair = 0
	for wk, w := range sm.items[:sm.ni] {
		if !pe.item(w).writer() {
			continue
		}
		for rk := range sm.ni {
			if sm.inA(wk) != sm.inA(rk) {
				sm.pairs[sm.npair] = [2]uint8{uint8(wk), uint8(rk)}
				sm.npair++
			}
		}
	}
	// The model's implications between bits: CC's causal delivery
	// vis(w2,r) → vis(w1,r) for writers w1 before w2 of one instance; RR's
	// vis(w,r) ↔ vis(w,r') for readers of one instance. Both relations are
	// transitive, so one step closes them.
	for b := range sm.npair {
		sm.cl[b] = 1 << b
		for c := range sm.npair {
			if sm.implies(b, c) {
				sm.cl[b] |= 1 << c
			}
		}
	}
	for e := range sm.edges {
		x, y := q[2*e], q[2*e+1]
		ix, iy := pe.item(x), pe.item(y)
		xk, yk := sm.k(x), sm.k(y)
		ed := smEdge{x: x, y: y, xk: xk, yk: yk, wrBit: sm.bit(xk, yk), rwBit: sm.bit(yk, xk)}
		if ix.writes&iy.reads != 0 {
			ed.kinds |= 1 << kWR
		}
		if ix.writes&iy.writes != 0 {
			ed.kinds |= 1 << kWW
		}
		if ix.reads&iy.writes != 0 {
			ed.kinds |= 1 << kRW
		}
		sm.edges[e] = ed
	}
}

// inA reports whether cycle item k belongs to instance A.
func (sm *smallModel) inA(k int) bool { return k < sm.na }

// implies reports whether the model's axioms make bit b force bit c (c ≠
// b). Items are in program order within each instance.
func (sm *smallModel) implies(b, c int) bool {
	pb, pc := sm.pairs[b], sm.pairs[c]
	switch sm.model {
	case CC:
		return pb[1] == pc[1] && pc[0] < pb[0] && sm.inA(int(pc[0])) == sm.inA(int(pb[0]))
	case RR:
		return c != b && pb[0] == pc[0]
	}
	return false
}

// bit returns vis(items[wk], items[rk])'s bit, -1 if they are not a cycle
// writer pair.
func (sm *smallModel) bit(wk, rk uint8) int8 {
	for b := range sm.npair {
		if sm.pairs[b] == [2]uint8{wk, rk} {
			return int8(b)
		}
	}
	return -1
}

// place sets pos for merge m and returns the bits vis ⊆ ord forbids.
func (sm *smallModel) place(m uint8) uint8 {
	a, b := 0, sm.na
	for slot := range sm.ni {
		if m&(1<<(sm.ni-1-slot)) != 0 {
			sm.pos[b] = slot
			b++
		} else {
			sm.pos[a] = slot
			a++
		}
	}
	var forbid uint8
	for i := range sm.npair {
		if sm.pos[sm.pairs[i][1]] < sm.pos[sm.pairs[i][0]] {
			forbid |= 1 << i
		}
	}
	return forbid
}

// k returns cycle item x's position in items.
func (sm *smallModel) k(x int) uint8 {
	for k := range sm.ni {
		if sm.items[k] == x {
			return uint8(k)
		}
	}
	panic("anomaly: item not on the cycle")
}

// admit checks the kind choice (k1, k2) in the current merge and returns
// its least visibility mask.
func (sm *smallModel) admit(k1, k2 int, forbid uint8) (uint8, bool) {
	var need, deny uint8
	for e, k := range [2]int{k1, k2} {
		ed := &sm.edges[e]
		switch k {
		case kWW:
			if sm.pos[ed.yk] < sm.pos[ed.xk] {
				return 0, false
			}
		case kWR:
			need |= 1 << ed.wrBit
		case kRW:
			deny |= 1 << ed.rwBit
		}
	}
	var mask uint8
	for b := range sm.npair {
		if need&(1<<b) != 0 {
			mask |= sm.cl[b]
		}
	}
	return mask, mask&(deny|forbid) == 0
}

// holds reports whether kind k of edge e is true under the current merge
// and visibility mask.
func (sm *smallModel) holds(e, k int, mask uint8) bool {
	ed := &sm.edges[e]
	switch k {
	case kWW:
		return sm.pos[ed.xk] < sm.pos[ed.yk]
	case kWR:
		return mask&(1<<ed.wrBit) != 0
	default:
		return mask&(1<<ed.rwBit) == 0
	}
}

// eachField visits edge e's per-field dependencies in the encoding's order:
// x's written fields (wr, then ww), then x's read fields (rw), each field
// by its bit.
func (sm *smallModel) eachField(e int, visit func(k, bit int)) {
	ix, iy := sm.pe.item(sm.edges[e].x), sm.pe.item(sm.edges[e].y)
	for m := ix.writes & (iy.reads | iy.writes); m != 0; m &= m - 1 {
		b := bits.TrailingZeros64(m)
		if iy.reads&(1<<b) != 0 {
			visit(kWR, b)
		}
		if iy.writes&(1<<b) != 0 {
			visit(kWW, b)
		}
	}
	for m := ix.reads & iy.writes; m != 0; m &= m - 1 {
		visit(kRW, bits.TrailingZeros64(m))
	}
}

// fields returns, as a rank mask over its source's access set, the fields
// of edge e whose kind is in kinds.
func (sm *smallModel) fields(e int, kinds uint8) uint64 {
	ix, iy := sm.pe.item(sm.edges[e].x), sm.pe.item(sm.edges[e].y)
	// of(k, m) is m when kinds has k, else the empty set.
	of := func(k int, m uint64) uint64 { return m * uint64(kinds>>k&1) }
	wrote, read := of(kWR, iy.reads)|of(kWW, iy.writes), of(kRW, iy.writes)
	return rank(ix.reads|ix.writes, ix.writes&wrote|ix.reads&read)
}

// rank maps m ⊆ set to the mask of its members' ranks in set: bit r for
// set's r-th lowest member. pass.fieldNames reads such a mask back.
func rank(set, m uint64) uint64 {
	var r uint64
	for i := 0; set != 0; i, set = i+1, set&(set-1) {
		if m&set&-set != 0 {
			r |= 1 << i
		}
	}
	return r
}

// modelEdge reads edge e off the canonical assignment: the kind of its
// last true per-field dependency (nKinds if none is) and, when fs is not
// nil, every true one appended to *fs.
func (sm *smallModel) modelEdge(e int, mask uint8, fs *[]EdgeField) uint8 {
	kind := uint8(nKinds)
	sm.eachField(e, func(k, b int) {
		if sm.holds(e, k, mask) {
			kind = uint8(k)
			if fs != nil {
				*fs = append(*fs, EdgeField{Field: sm.pe.pass.layout(sm.pe.item(sm.edges[e].x).table)[b], Kind: kindNames[k]})
			}
		}
	})
	return kind
}

// schedule extends the last satisfiable decision's canonical assignment to
// every command of both instances:
//
//   - an off-cycle command runs just before the next cycle command of its
//     instance, or after every cycle command, A's remainder before B's;
//   - off-cycle writers are visible to nobody, except that under CC a
//     writer preceding a visible cycle writer in program order is visible
//     to the same cycle reader (causal delivery);
//   - under RR a visible cycle writer is visible to its reader's whole
//     instance.
func (sm *smallModel) schedule(items []SchedItem, terms map[uint64]string) *Schedule {
	pe, mask := sm.pe, sm.best
	n := pe.n
	s := &Schedule{TxnA: pe.t.name, TxnB: pe.w.name, NA: pe.nA, Items: items}
	s.Order = make([]int, 0, n)
	next := [2]int{0, pe.nA}
	end := [2]int{pe.nA, n}
	for slot := range sm.ni {
		for k := range sm.ni {
			if sm.pos[k] != slot {
				continue
			}
			x := sm.items[k]
			i := pe.inst(x)
			for ; next[i] <= x; next[i]++ {
				s.Order = append(s.Order, next[i])
			}
		}
	}
	for i := range next {
		for ; next[i] < end[i]; next[i]++ {
			s.Order = append(s.Order, next[i])
		}
	}
	vis := make([]bool, n*n)
	s.Vis = make([][]bool, n)
	for x := range s.Vis {
		s.Vis[x] = vis[x*n : (x+1)*n]
	}
	for b := range sm.npair {
		if mask&(1<<b) == 0 {
			continue
		}
		w, r := sm.items[sm.pairs[b][0]], sm.items[sm.pairs[b][1]]
		s.Vis[w][r] = true
		switch sm.model {
		case CC:
			for w1 := pe.inst(w) * pe.nA; w1 < w; w1++ {
				if pe.item(w1).writer() {
					s.Vis[w1][r] = true
				}
			}
		case RR:
			i := pe.inst(r)
			for y := i * pe.nA; y < end[i]; y++ {
				s.Vis[w][y] = true
			}
		}
	}
	p := pe.pass
	for i := range sm.nodes {
		for j := range sm.nodes {
			a, b := &sm.nodes[i], &sm.nodes[j]
			if a.table != b.table || a.t.bit != b.t.bit || decideEq(a.t, b.t) != eqUnknown {
				continue
			}
			ta, tb := terms[a.t.digest], terms[b.t.digest]
			if ta >= tb {
				continue
			}
			s.Eqs = append(s.Eqs, EqAtom{Table: p.prog.Schemas[a.table].Name, Field: p.layout(a.table)[a.t.bit], A: ta, B: tb, Equal: sm.find(i) == sm.find(j)})
		}
	}
	slices.SortFunc(s.Eqs, func(a, b EqAtom) int {
		if c := strings.Compare(a.Table, b.Table); c != 0 {
			return c
		}
		if c := strings.Compare(a.Field, b.Field); c != 0 {
			return c
		}
		if c := strings.Compare(a.A, b.A); c != 0 {
			return c
		}
		return strings.Compare(a.B, b.B)
	})
	s.Edge1 = sm.schedEdge(0, mask)
	s.Edge2 = sm.schedEdge(1, mask)
	return s
}

func (sm *smallModel) schedEdge(e int, mask uint8) SchedEdge {
	var fs []EdgeField
	kind := sm.modelEdge(e, mask, &fs)
	return SchedEdge{From: sm.edges[e].x, To: sm.edges[e].y, Kind: kindNames[kind], Fields: fs}
}
