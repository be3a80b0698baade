package cluster

import (
	"fmt"
	"slices"
	"sort"

	"atropos/internal/ast"
	"atropos/internal/store"
)

// This file is the compiled executor: a cframe runs a ctxn's op-codes
// against a MatStore (optionally through a coverlay for SC
// read-your-writes) with all scratch state — value stack, result sets,
// matched-slot buffers, write batches — owned by the frame and reused
// across transactions, so steady-state execution allocates O(1) per
// transaction regardless of run length or table size. It is the one executor
// of production code: simulated runs, observed runs and directed runs all
// step cframes (the AST walker the tests compare it with lives in their
// files).

// cview is the compiled executor's view of replica state: the base store
// plus an optional transaction-private overlay.
type cview struct {
	ms *MatStore
	ov *coverlay
}

// scanRef identifies the row a where clause's this.f refers to during a
// scan: pg and r locate the base store's row (pg nil when the replica does
// not hold the slot: an overlay-only row), ovBase is ovRow*nf into the
// overlay's value array (-1 when the row has no overlay state).
type scanRef struct {
	t      *mtable
	ot     *covTab
	pg     *page
	r      int32
	ovBase int32
}

var scanNone = &scanRef{ovBase: -1}

// field resolves a field through overlay → base row → schema zero.
func (sr *scanRef) field(fid int32) store.Value {
	if sr.ovBase >= 0 && sr.ot.set[sr.ovBase+fid] {
		return sr.ot.vals[sr.ovBase+fid]
	}
	if sr.pg != nil {
		return sr.t.ct.cell(sr.pg, sr.r, fid)
	}
	return sr.t.ct.zeros[fid]
}

// crset is a slot-bound query result: n rows of ncol columns in one flat
// value array (no per-row maps).
type crset struct {
	bound bool
	n     int
	ncol  int
	vals  []store.Value
}

type citer struct{ idx, count int64 }

// cread is one observed field read: a record of the executing command's
// table, by slot, and a field of it.
type cread struct{ slot, fid int32 }

// cframe executes one transaction instance and is reset and reused for the
// next (per client under EC, per cTxnRun under SC).
type cframe struct {
	cp    *Compiled
	ct    *ctxn
	args  []store.Value
	argOK []bool
	vars  []crset
	iters []citer
	stack []store.Value

	// scan scratch: matched slots with their overlay rows (-1 when absent).
	mslots []int32
	movs   []int32

	pinVals []store.Value
	insVals []store.Value
	keyBuf  []byte
	writes  []cwrite

	// observe makes the matcher record in reads what the last command read —
	// per candidate row the fields the detector's encoding says the command
	// reads (ccmd.reads), not the ones its access path happened to touch.
	observe bool
	reads   []cread

	pc      int32
	pending int32
	done    bool
	ret     store.Value
}

func newCFrame(cp *Compiled) *cframe {
	return &cframe{
		cp:      cp,
		args:    make([]store.Value, cp.maxArgs),
		argOK:   make([]bool, cp.maxArgs),
		vars:    make([]crset, cp.maxVars),
		pending: -1,
	}
}

// reset prepares the frame for a fresh instance of ct and binds its
// parameters: given arguments were passed, and arg finds one by name.
// Arguments come from outside the program and the compiled code trusts
// sema's typing, so this is where every entry point — simulated, directed
// and serial runs — checks their count, names and types.
func (f *cframe) reset(ct *ctxn, given int, arg func(name string) (store.Value, bool)) error {
	f.ct = ct
	f.pc, f.pending, f.done = 0, -1, false
	f.ret = store.Value{}
	if n := len(ct.argNames); n > len(f.args) {
		f.args = make([]store.Value, n)
		f.argOK = make([]bool, n)
	}
	// A refused binding still binds every argument that checks, so the
	// tests can hold an unbound one's evaluation error to the AST oracle's.
	clear(f.argOK[:len(ct.argNames)])
	var err error
	params := ct.src.Params
	if given != len(params) {
		err = fmt.Errorf("cluster: %s: expects %d arguments, got %d", ct.name, len(params), given)
	}
	for i, p := range params {
		if v, ok := arg(p.Name); ok && v.T == p.Type {
			f.args[i], f.argOK[i] = v, true
		} else if err == nil {
			err = fmt.Errorf("cluster: %s: argument %q missing or not of type %v", ct.name, p.Name, p.Type)
		}
	}
	if ct.nvars > len(f.vars) {
		f.vars = make([]crset, ct.nvars)
	}
	for i := 0; i < ct.nvars; i++ {
		f.vars[i].bound = false
		f.vars[i].n = 0
	}
	f.iters = f.iters[:0]
	return err
}

// mapArg looks arguments up in a name → value map.
func mapArg(m map[string]store.Value) func(string) (store.Value, bool) {
	return func(name string) (store.Value, bool) {
		v, ok := m[name]
		return v, ok
	}
}

// advance runs control flow up to the next database command, returning it,
// or nil when the transaction finished (evaluating its return expression).
// It reads no store, and calling it twice without exec returns the same
// command.
func (f *cframe) advance() (*ccmd, error) {
	if f.pending >= 0 {
		return f.ct.code[f.pending].cmd, nil
	}
	code := f.ct.code
	for {
		if int(f.pc) >= len(code) {
			if f.ct.ret != nil && !f.done {
				val, err := f.eval(f.ct.ret, scanNone, nil)
				if err != nil {
					return nil, err
				}
				f.ret = val
			}
			f.done = true
			return nil, nil
		}
		in := &code[f.pc]
		switch in.op {
		case copIfFalse:
			val, err := f.eval(in.cond, scanNone, nil)
			if err != nil {
				return nil, err
			}
			if val.T == ast.TBool && val.B {
				f.pc++
			} else {
				f.pc = in.a
			}
		case copIterInit:
			val, err := f.eval(in.cond, scanNone, nil)
			if err != nil {
				return nil, err
			}
			if val.T == ast.TInt && val.I > 0 {
				f.iters = append(f.iters, citer{idx: 1, count: val.I})
				f.pc++
			} else {
				f.pc = in.a
			}
		case copIterNext:
			it := &f.iters[len(f.iters)-1]
			if it.idx < it.count {
				it.idx++
				f.pc = in.a
			} else {
				f.iters = f.iters[:len(f.iters)-1]
				f.pc++
			}
		default:
			f.pending = f.pc
			return in.cmd, nil
		}
	}
}

// exec executes the pending command, filling f.writes with the produced
// (not yet applied) writes. Observed reads start over: what an SC footprint's
// preview scan recorded is not what the command read.
func (f *cframe) exec(v cview, u *UUIDGen) ([]cwrite, error) {
	cmd := f.ct.code[f.pending].cmd
	f.pending = -1
	f.pc++
	f.writes = f.writes[:0]
	f.reads = f.reads[:0]
	switch cmd.kind {
	case ckSelect:
		return nil, f.execSelect(v, cmd)
	case ckUpdate:
		return f.execUpdate(v, cmd)
	default:
		return f.execInsert(v, cmd, u)
	}
}

// executed returns the command the last exec ran (exec stepped past it).
func (f *cframe) executed() *ccmd { return f.ct.code[f.pc-1].cmd }

// footprint computes the records the pending command touches (for lock
// acquisition), as slots of its table, without executing it; uuid's Peek
// previews insert keys.
func (f *cframe) footprint(v cview, u *UUIDGen) (tid int32, slots []int32, err error) {
	cmd := f.ct.code[f.pending].cmd
	if cmd.kind == ckInsert {
		slot, err := f.insertSlot(v, cmd, u.Peek())
		if err != nil {
			return 0, nil, err
		}
		f.mslots = append(f.mslots[:0], slot)
		return cmd.tid, f.mslots, nil
	}
	if err := f.matching(v, cmd); err != nil {
		return 0, nil, err
	}
	return cmd.tid, f.mslots, nil
}

// matching fills f.mslots/movs with the alive records satisfying the
// command's where clause, in sorted key order. Candidates come from the
// command's access path — one key, a window of the key index, an equality
// bucket, or every row the replica holds (the key index is the directory's,
// shared by the replicas: a slot this one has received no write for is
// passed over, not visited) — merged under an SC overlay with the rows the
// transaction has written, each read through the overlay (read-your-writes
// holds on pinned and indexed fields alike). Every candidate is still
// checked for alive and against the full clause; only when the clause is
// exactly its key pins over int/bool fields (c.whereIsPin) does every key
// in the window satisfy it by key-encoding injectivity, and the evaluation
// is skipped. When a pin, or the indexed conjunct's right-hand side, fails
// to evaluate, the path degrades to the full scan, so the clause errors on
// the first alive row or not at all — like the AST reference. An observed
// equality-index command scans too: the encoding has the command read every
// row of the table its key pins leave, and a bucket holds fewer (exact and
// prefix windows are those rows already).
func (f *cframe) matching(v cview, c *ccmd) error {
	f.mslots = f.mslots[:0]
	f.movs = f.movs[:0]
	t := &v.ms.tabs[c.tid]
	keys := t.dir.keys
	v.ms.scans.Calls++
	var ot *covTab
	if v.ov != nil && len(v.ov.tabs[c.tid].slots) > 0 {
		ot = &v.ov.tabs[c.tid]
	}

	path := c.path
	if f.observe && path == pathEq {
		path = pathScan
	}
	var bucket []int32
	switch path {
	case pathExact, pathPrefix:
		f.pinVals = f.pinVals[:0]
		for _, pe := range c.pins {
			val, err := f.eval(pe, scanNone, nil)
			if err != nil {
				path = pathScan
				break
			}
			f.pinVals = append(f.pinVals, val)
		}
		f.keyBuf = store.AppendKey(f.keyBuf[:0], f.pinVals...)
		if path == pathPrefix {
			f.keyBuf = append(f.keyBuf, '\x1f')
		}
	case pathEq:
		if val, err := f.eval(c.eqE, scanNone, nil); err != nil {
			path = pathScan
		} else {
			bucket = t.bucket(c.eqF, val)
		}
	}
	skipWhere := c.whereIsPin && path != pathScan

	if path == pathExact {
		// m[string(bytes)] probes without allocating. A key the directory
		// does not know has no row anywhere, the overlay included.
		slot, ok := t.dir.index[store.Key(f.keyBuf)]
		if !ok {
			return nil
		}
		held, ovRow := t.held(slot), int32(-1)
		if ot != nil {
			if r, ok := ot.idx[slot]; ok {
				ovRow = r
			}
		}
		if held || ovRow >= 0 {
			return f.try(v, c, skipWhere, slot, held, ovRow)
		}
		return nil
	}

	// The base side: the bucket (pathEq), or the key index from the start of
	// the window (pathPrefix) or of the table (pathScan).
	base := baseIter{t: t, bucket: bucket, inBucket: path == pathEq, pos: t.dir.idx.begin()}
	if path == pathPrefix {
		base.pos, base.prefix = t.dir.idx.seek(keys, f.keyBuf), f.keyBuf
	}
	if ot == nil {
		// No overlay state for this table: every EC scan, and the common SC
		// case.
		for slot, ok := base.next(); ok; slot, ok = base.next() {
			if err := f.try(v, c, skipWhere, slot, true, -1); err != nil {
				return err
			}
		}
		return nil
	}

	// Merge, in key order, with the rows the transaction has written (inside
	// the window, for pathPrefix). A key can arrive from both sides — an
	// overlaid base row, or a row buffered while absent from the base and
	// since committed there by a concurrent EC transaction — and is then
	// emitted once. A
	// written row the base side did not yield may still have a base row
	// (outside the bucket).
	ord := ot.order
	if path == pathPrefix {
		lo := sort.Search(len(ord), func(i int) bool { return keyCmp(keys[ot.slots[ord[i]]], f.keyBuf) >= 0 })
		hi := lo
		for hi < len(ord) && keyHasPrefix(keys[ot.slots[ord[hi]]], f.keyBuf) {
			hi++
		}
		ord = ord[lo:hi]
	}
	slot, bHas := base.next()
	for bHas || len(ord) > 0 {
		var err error
		switch {
		case bHas && len(ord) > 0 && slot == ot.slots[ord[0]]:
			err = f.try(v, c, skipWhere, slot, true, ord[0])
			slot, bHas = base.next()
			ord = ord[1:]
		case bHas && (len(ord) == 0 || keys[slot] < keys[ot.slots[ord[0]]]):
			err = f.try(v, c, skipWhere, slot, true, -1)
			slot, bHas = base.next()
		default:
			s := ot.slots[ord[0]]
			err = f.try(v, c, skipWhere, s, t.held(s), ord[0])
			ord = ord[1:]
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// baseIter yields the base store's candidate slots in key order: a bucket,
// or the slots it holds of the key index from pos for as long as keys carry
// prefix (nil: to the end).
type baseIter struct {
	t        *mtable
	bucket   []int32
	inBucket bool
	pos      idxPos
	prefix   []byte
}

func (it *baseIter) next() (int32, bool) {
	if it.inBucket {
		if len(it.bucket) == 0 {
			return 0, false
		}
		slot := it.bucket[0]
		it.bucket = it.bucket[1:]
		return slot, true
	}
	for idx := &it.t.dir.idx; idx.valid(it.pos); {
		slot := idx.at(it.pos)
		if it.prefix != nil && !keyHasPrefix(it.t.dir.keys[slot], it.prefix) {
			break
		}
		it.pos = idx.next(it.pos)
		if it.t.held(slot) {
			return slot, true
		}
	}
	return 0, false
}

// try appends the candidate — slot, whether the base holds a row for it, and
// its overlay row ovRow, -1 when absent — if it is alive and satisfies the
// clause.
func (f *cframe) try(v cview, c *ccmd, skipWhere bool, slot int32, held bool, ovRow int32) error {
	t := &v.ms.tabs[c.tid]
	v.ms.scans.RowsVisited++
	// Built in place: returning a scanRef from a helper costs a copy per row
	// that shows (a third of a prefix scan's time).
	sr := scanRef{t: t, ovBase: -1}
	if held {
		sr.pg, sr.r = t.at(slot)
	}
	if ovRow >= 0 {
		sr.ot, sr.ovBase = &v.ov.tabs[c.tid], ovRow*t.ct.nf
	}
	alive := sr.field(t.ct.alive)
	isAlive := alive.T == ast.TBool && alive.B
	if f.observe {
		// A dead candidate is read for its presence alone (phantom
		// dependencies flow through the alive field), an alive one in full.
		if !isAlive {
			f.reads = append(f.reads, cread{slot, t.ct.alive})
		} else {
			for _, fid := range c.reads(t.ct) {
				f.reads = append(f.reads, cread{slot, fid})
			}
		}
	}
	if !isAlive {
		return nil
	}
	if !skipWhere {
		val, err := f.eval(c.where, &sr, nil)
		if err != nil || val.T != ast.TBool || !val.B {
			return err
		}
	}
	v.ms.scans.RowsMatched++
	f.mslots = append(f.mslots, slot)
	f.movs = append(f.movs, ovRow)
	return nil
}

// keyCmp compares a key with a prefix buffer bytewise (no string
// conversion, so scans build prefixes without allocating).
func keyCmp(k store.Key, p []byte) int {
	n := len(k)
	if len(p) < n {
		n = len(p)
	}
	for i := 0; i < n; i++ {
		if k[i] != p[i] {
			if k[i] < p[i] {
				return -1
			}
			return 1
		}
	}
	switch {
	case len(k) == len(p):
		return 0
	case len(k) < len(p):
		return -1
	default:
		return 1
	}
}

func keyHasPrefix(k store.Key, p []byte) bool {
	return len(k) >= len(p) && keyCmp(k[:len(p)], p) == 0
}

func (f *cframe) execSelect(v cview, c *ccmd) error {
	if err := f.matching(v, c); err != nil {
		return err
	}
	rs := &f.vars[c.varSlot]
	rs.bound = true
	rs.n = len(f.mslots)
	rs.ncol = len(c.cols)
	need := rs.n * rs.ncol
	if cap(rs.vals) < need {
		// Geometric growth: a log table read returns more rows on almost
		// every call.
		rs.vals = make([]store.Value, need, max(need, 2*cap(rs.vals)))
	}
	rs.vals = rs.vals[:need]
	t := &v.ms.tabs[c.tid]
	for i, slot := range f.mslots {
		out := rs.vals[i*rs.ncol:]
		if f.movs[i] < 0 {
			pg, r := t.at(slot)
			for j, fid := range c.cols {
				out[j] = t.ct.cell(pg, r, fid)
			}
			continue
		}
		sr := scanRef{t: t, ot: &v.ov.tabs[c.tid], ovBase: f.movs[i] * t.ct.nf}
		if t.held(slot) {
			sr.pg, sr.r = t.at(slot)
		}
		for j, fid := range c.cols {
			out[j] = sr.field(fid)
		}
	}
	return nil
}

func (f *cframe) execUpdate(v cview, c *ccmd) ([]cwrite, error) {
	if err := f.matching(v, c); err != nil {
		return nil, err
	}
	f.insVals = f.insVals[:0]
	for _, e := range c.setE {
		val, err := f.eval(e, scanNone, nil)
		if err != nil {
			return nil, err
		}
		f.insVals = append(f.insVals, val)
	}
	for _, slot := range f.mslots {
		for i, fid := range c.setF {
			f.writes = append(f.writes, cwrite{tid: c.tid, fid: fid, slot: slot, val: f.insVals[i]})
		}
	}
	return f.writes, nil
}

// insertSlot evaluates the insert's values (uuid fields read the peeked
// value, everything else evaluates uuid-free) and interns the primary key.
func (f *cframe) insertSlot(v cview, c *ccmd, peek store.Value) (int32, error) {
	f.insVals = f.insVals[:0]
	for i, e := range c.insE {
		if c.insUUID[i] {
			f.insVals = append(f.insVals, peek)
			continue
		}
		val, err := f.eval(e, scanNone, nil)
		if err != nil {
			return 0, err
		}
		f.insVals = append(f.insVals, val)
	}
	return f.internInsertKey(v, c), nil
}

// internInsertKey builds the primary key of f.insVals and returns its slot:
// the one place the compiled executor names a new record. The key becomes a
// string only if the directory has not seen it.
func (f *cframe) internInsertKey(v cview, c *ccmd) int32 {
	f.keyBuf = f.keyBuf[:0]
	for i, idx := range c.insPK {
		if i > 0 {
			f.keyBuf = append(f.keyBuf, '\x1f')
		}
		f.keyBuf = store.AppendKey(f.keyBuf, f.insVals[idx])
	}
	dir := v.ms.tabs[c.tid].dir
	if slot, ok := dir.index[store.Key(f.keyBuf)]; ok {
		return slot
	}
	return dir.add(store.Key(f.keyBuf))
}

func (f *cframe) execInsert(v cview, c *ccmd, u *UUIDGen) ([]cwrite, error) {
	f.insVals = f.insVals[:0]
	for _, e := range c.insE {
		val, err := f.eval(e, scanNone, u)
		if err != nil {
			return nil, err
		}
		f.insVals = append(f.insVals, val)
	}
	slot := f.internInsertKey(v, c)
	for _, idx := range c.emit {
		f.writes = append(f.writes, cwrite{tid: c.tid, fid: c.insF[idx], slot: slot, val: f.insVals[idx]})
	}
	alive := v.ms.tabs[c.tid].ct.alive
	f.writes = append(f.writes, cwrite{tid: c.tid, fid: alive, slot: slot, val: store.BoolV(true)})
	return f.writes, nil
}

// eval runs a compiled expression on the frame's reusable stack. sr is the
// scanned row for this.f (scanNone outside where clauses — the compiler
// guarantees eThis never occurs there); u gates uuid().
func (f *cframe) eval(e cexpr, sr *scanRef, u *UUIDGen) (store.Value, error) {
	st := f.stack[:0]
	for pc := 0; pc < len(e); pc++ {
		op := &e[pc]
		switch op.op {
		case eConst:
			st = append(st, op.val)
		case eArg:
			if !f.argOK[op.i] {
				f.stack = st[:0]
				return store.Value{}, fmt.Errorf("cluster: unknown argument %q", op.s)
			}
			st = append(st, f.args[op.i])
		case eIterVar:
			if len(f.iters) == 0 {
				f.stack = st[:0]
				return store.Value{}, fmt.Errorf("cluster: iter outside iterate")
			}
			st = append(st, store.IntV(f.iters[len(f.iters)-1].idx))
		case eThis:
			if sr.ovBase < 0 {
				st = append(st, sr.t.ct.cell(sr.pg, sr.r, op.i))
			} else {
				st = append(st, sr.field(op.i))
			}
		case eThisEqArg:
			if !f.argOK[op.j] {
				f.stack = st[:0]
				return store.Value{}, fmt.Errorf("cluster: unknown argument %q", op.s)
			}
			var tv store.Value
			if sr.ovBase < 0 {
				tv = sr.t.ct.cell(sr.pg, sr.r, op.i)
			} else {
				tv = sr.field(op.i)
			}
			st = append(st, store.BoolV(tv.Equal(f.args[op.j])))
		case eThisEqConst:
			var tv store.Value
			if sr.ovBase < 0 {
				tv = sr.t.ct.cell(sr.pg, sr.r, op.i)
			} else {
				tv = sr.field(op.i)
			}
			st = append(st, store.BoolV(tv.Equal(op.val)))
		case eField:
			rs := &f.vars[op.i]
			if rs.n < 1 {
				z, err := f.zeroOrUnbound(rs, op)
				if err != nil {
					f.stack = st[:0]
					return store.Value{}, err
				}
				st = append(st, z)
				break
			}
			st = append(st, rs.vals[op.j])
		case eFieldIdx:
			rs := &f.vars[op.i]
			idx := st[len(st)-1].I
			st = st[:len(st)-1]
			if idx < 1 || idx > int64(rs.n) {
				z, err := f.zeroOrUnbound(rs, op)
				if err != nil {
					f.stack = st[:0]
					return store.Value{}, err
				}
				st = append(st, z)
				break
			}
			st = append(st, rs.vals[(int(idx)-1)*rs.ncol+int(op.j)])
		case eFieldMiss, eFieldMissIdx:
			rs := &f.vars[op.i]
			idx := int64(1)
			if op.op == eFieldMissIdx {
				idx = st[len(st)-1].I
				st = st[:len(st)-1]
			}
			if idx >= 1 && idx <= int64(rs.n) {
				f.stack = st[:0]
				return store.Value{}, fmt.Errorf("cluster: result lacks field %q", op.s)
			}
			z, err := f.zeroOrUnbound(rs, op)
			if err != nil {
				f.stack = st[:0]
				return store.Value{}, err
			}
			st = append(st, z)
		case eAggCount:
			st = append(st, store.IntV(int64(f.vars[op.i].n)))
		case eAggSum:
			rs := &f.vars[op.i]
			var total int64
			for r := 0; r < rs.n; r++ {
				total += rs.vals[r*rs.ncol+int(op.j)].I
			}
			st = append(st, store.IntV(total))
		case eAggMin, eAggMax, eAggAny:
			rs := &f.vars[op.i]
			if rs.n == 0 {
				z, err := f.zeroOrUnbound(rs, op)
				if err != nil {
					f.stack = st[:0]
					return store.Value{}, err
				}
				st = append(st, z)
				break
			}
			best := rs.vals[op.j]
			if op.op != eAggAny {
				for r := 1; r < rs.n; r++ {
					val := rs.vals[r*rs.ncol+int(op.j)]
					if (op.op == eAggMin && val.Less(best)) || (op.op == eAggMax && best.Less(val)) {
						best = val
					}
				}
			}
			st = append(st, best)
		case eUUID:
			if u == nil {
				f.stack = st[:0]
				return store.Value{}, fmt.Errorf("cluster: uuid() outside insert")
			}
			st = append(st, u.Take())
		case eAndShort:
			if t := st[len(st)-1]; t.T == ast.TBool && !t.B {
				pc += int(op.i)
			}
		case eOrShort:
			if t := st[len(st)-1]; t.T == ast.TBool && t.B {
				pc += int(op.i)
			}
		default:
			r := st[len(st)-1]
			st = st[:len(st)-1]
			l := st[len(st)-1]
			var res store.Value
			switch op.op {
			case eAdd:
				res = store.IntV(l.I + r.I)
			case eSub:
				res = store.IntV(l.I - r.I)
			case eMul:
				res = store.IntV(l.I * r.I)
			case eDiv:
				if r.I == 0 {
					f.stack = st[:0]
					return store.Value{}, fmt.Errorf("cluster: division by zero")
				}
				res = store.IntV(l.I / r.I)
			case eLt:
				res = store.BoolV(l.Less(r))
			case eLe:
				res = store.BoolV(l.Less(r) || l.Equal(r))
			case eEq:
				res = store.BoolV(l.Equal(r))
			case eNe:
				res = store.BoolV(!l.Equal(r))
			case eGt:
				res = store.BoolV(r.Less(l))
			case eGe:
				res = store.BoolV(r.Less(l) || l.Equal(r))
			case eAnd:
				res = store.BoolV(l.B && r.B)
			case eOr:
				res = store.BoolV(l.B || r.B)
			}
			st[len(st)-1] = res
		}
	}
	out := st[len(st)-1]
	f.stack = st[:0]
	return out, nil
}

// zeroOrUnbound: an out-of-range read on a bound result set yields the schema
// zero of the field; reading a variable no select has bound yet is an error.
func (f *cframe) zeroOrUnbound(rs *crset, op *eop) (store.Value, error) {
	if !rs.bound {
		return store.Value{}, fmt.Errorf("cluster: unknown variable %q", op.s)
	}
	return op.val, nil
}

// coverlay buffers writes over a base store in compiled addressing — an SC
// transaction's uncommitted ones, or the batches a directed command's view
// contains: per table, flat per-row field arrays with set bitmaps, plus the
// written rows in key order (what scans merge with and commits emit in). It
// is reset and reused across attempts, and across a DirectedPlan's commands
// and bases (ms is the store whose slots it currently speaks).
type coverlay struct {
	ms      *MatStore
	tabs    []covTab
	touched []int32
}

type covTab struct {
	idx   map[int32]int32 // slot → row
	slots []int32         // by row, in first-write order
	vals  []store.Value   // row*nf + field
	set   []bool
	order []int32 // rows, sorted by key
}

func newCOverlay(ms *MatStore) *coverlay {
	ov := &coverlay{ms: ms, tabs: make([]covTab, len(ms.tabs))}
	return ov
}

// reset drops all buffered state, keeping allocated capacity.
func (o *coverlay) reset() {
	for _, tid := range o.touched {
		t := &o.tabs[tid]
		clear(t.idx)
		t.slots = t.slots[:0]
		t.vals = t.vals[:0]
		t.set = t.set[:0]
		t.order = t.order[:0]
	}
	o.touched = o.touched[:0]
}

// buffer records one pending write.
func (o *coverlay) buffer(w cwrite) {
	t := &o.tabs[w.tid]
	if t.idx == nil {
		t.idx = map[int32]int32{}
	}
	if len(t.slots) == 0 {
		o.touched = append(o.touched, w.tid)
	}
	nf := int(o.ms.tabs[w.tid].ct.nf)
	row, ok := t.idx[w.slot]
	if !ok {
		row = int32(len(t.slots))
		t.idx[w.slot] = row
		t.slots = append(t.slots, w.slot)
		keys := o.ms.tabs[w.tid].dir.keys
		i := sort.Search(len(t.order), func(i int) bool { return keys[t.slots[t.order[i]]] >= keys[w.slot] })
		t.order = slices.Insert(t.order, i, row)
		for i := 0; i < nf; i++ {
			t.vals = append(t.vals, store.Value{})
			t.set = append(t.set, false)
		}
	}
	at := int(row)*nf + int(w.fid)
	t.vals[at] = w.val
	t.set[at] = true
}

// commitWrites appends the buffered writes to dst in deterministic order:
// ascending table id, sorted key, ascending field index. (The AST reference
// emits name-sorted order instead; batches share one timestamp, so replica
// state is identical either way — see DESIGN.md §9.)
func (o *coverlay) commitWrites(dst []cwrite) []cwrite {
	// Insertion sort: an SC transaction touches a handful of tables, and
	// sort.Slice would allocate its closure and swapper on every commit.
	for i := 1; i < len(o.touched); i++ {
		for j := i; j > 0 && o.touched[j] < o.touched[j-1]; j-- {
			o.touched[j], o.touched[j-1] = o.touched[j-1], o.touched[j]
		}
	}
	for _, tid := range o.touched {
		t := &o.tabs[tid]
		nf := int(o.ms.tabs[tid].ct.nf)
		for _, r := range t.order {
			base := int(r) * nf
			for fid := 0; fid < nf; fid++ {
				if t.set[base+fid] {
					dst = append(dst, cwrite{tid: tid, fid: int32(fid), slot: t.slots[r], val: t.vals[base+fid]})
				}
			}
		}
	}
	return dst
}
