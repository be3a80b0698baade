package cluster

import (
	"fmt"
	"slices"
	"sort"

	"atropos/internal/ast"
	"atropos/internal/store"
)

// This file compiles a program once per simulated run into a flat op-code
// form the cluster executor runs instead of re-walking the AST per
// transaction instance (DESIGN.md §9). Compilation pre-resolves every name:
// tables become dense ids, fields become indices into a table's row of
// words, transaction arguments and select-bound result sets become numbered
// frame slots, and expressions become postfix op sequences evaluated on a
// reusable stack. Compilation is total or loud: a transaction the compiler
// refuses (a variable rebound with a different shape, uuid() outside an
// insert, a set or insert of a value not of its field's type — CHANGES.md
// lists every site) fails the run that needs it with a "compile:" error
// naming the transaction; nothing else executes it.

// Compiled is a program lowered to the executor's addressing: dense table
// ids and per-transaction op-code programs.
type Compiled struct {
	prog    *ast.Program
	tables  []ctable
	tableID map[string]int32
	txns    map[string]*ctxn
	// maxVars/maxArgs size a frame that any compiled transaction of the
	// program can reuse.
	maxVars int
	maxArgs int
}

// ctable is a schema with resolved field addressing. Field indices follow
// declaration order with the implicit alive field appended last, so a row
// is nf words in a page (matstore.go). kind is each field's declared type,
// which decodes its cell; a string field's text sits in the page's string
// array at sidx (-1 for the other fields), ns strings per row.
type ctable struct {
	name    string
	schema  *ast.Schema
	fields  []string
	fieldID map[string]int32
	kind    []ast.Type
	sidx    []int32
	zeros   []store.Value
	zwords  []int64  // nf zero words (and timestamps)
	zstrs   []string // ns empty strings
	pk      []int32
	nf      int32
	ns      int32
	alive   int32
}

// ctxn is one compiled transaction: a flat instruction array plus the frame
// geometry (argument and result-set slot counts) its execution needs.
type ctxn struct {
	name     string
	src      *ast.Txn
	argNames []string
	nvars    int
	code     []cinstr
	ret      cexpr // nil when the transaction returns nothing
}

type cop uint8

const (
	copSelect cop = iota
	copUpdate
	copInsert
	// copIfFalse evaluates cond; unless it is boolean true, jump to a.
	copIfFalse
	// copIterInit evaluates cond; if a positive int, push an iteration
	// counter and fall through, else jump to a (past the loop).
	copIterInit
	// copIterNext advances the innermost counter and jumps back to a while
	// iterations remain; otherwise pops it and falls through.
	copIterNext
)

type cinstr struct {
	op   cop
	a    int32
	cond cexpr
	cmd  *ccmd
}

type ckind uint8

const (
	ckSelect ckind = iota
	ckUpdate
	ckInsert
)

// accessPath is how a select/update finds its candidate rows. The compiler
// chooses it once per command from the shape of the where clause; the
// executor never chooses.
type accessPath uint8

const (
	// pathScan: every row of the table. The path of clauses that do not
	// decompose into equalities, and the fallback when a pin or indexed
	// right-hand side fails to evaluate (the clause then fails, or not, on
	// the rows the AST oracle would have evaluated it on).
	pathScan accessPath = iota
	// pathExact: the equalities pin the whole primary key — one probe of the
	// key→slot map.
	pathExact
	// pathPrefix: they pin a proper prefix of it — a window of the sorted
	// key index.
	pathPrefix
	// pathEq: they pin no key prefix — the bucket of the first conjunct's
	// field in the table's equality index, a superset of the matches.
	pathEq
)

// ccmd is a compiled database command.
type ccmd struct {
	kind  ckind
	label string
	tid   int32
	// idx is the command's static index: its position in ast.Commands of the
	// transaction body, which is how schedules and observation records name
	// it.
	idx int32

	// where state (select, update): the compiled clause and the access path
	// scan chose for it. pins (pathExact, pathPrefix) are the compiled
	// equality expressions pinning a prefix of the primary key (the
	// sorted-key range narrowing of DESIGN.md §4.4); eqF/eqE (pathEq) are the
	// clause's first conjunct this.eqF = eqE. whereIsPin marks clauses that
	// are EXACTLY their pins, over int/bool key fields: every key in the
	// narrowed window then satisfies the clause by key-encoding injectivity
	// and the per-row evaluation is skipped (string fields are excluded — a
	// string value containing the key separator could alias another tuple's
	// encoding).
	where      cexpr
	path       accessPath
	pins       []cexpr
	whereIsPin bool
	eqF        int32
	eqE        cexpr
	// readF is what reads returns, nil until an observed execution asks.
	readF []int32

	// select
	varSlot int32
	cols    []int32

	// update
	setF []int32
	setE []cexpr

	// insert: one entry per VALUES assignment in declaration order (the
	// evaluation — and uuid consumption — order), plus the derived write
	// emission order (field-name-sorted, duplicate fields last-wins, the
	// AST reference's order) and the entry feeding each primary-key field.
	insF    []int32
	insE    []cexpr
	insUUID []bool
	emit    []int32
	insPK   []int32
}

// cexpr is a compiled expression: a postfix op sequence evaluated against a
// frame's value stack.
type cexpr []eop

type eopc uint8

const (
	eConst eopc = iota
	eArg
	eIterVar
	eThis
	eField     // i=var slot, j=column, val=zero for the empty result set
	eFieldIdx  // like eField, the 1-based index is popped from the stack
	eFieldMiss // field in schema but never selected: n>0 errors, else zero
	eFieldMissIdx
	eAggCount
	eAggSum
	eAggMin
	eAggMax
	eAggAny
	eUUID
	// Fused where-clause conjuncts: this.f = arg / this.f = literal,
	// collapsing the three-op compare into one dispatch on the per-row
	// hot path.
	eThisEqArg   // i = field id, j = arg slot
	eThisEqConst // i = field id, val = literal
	eAdd
	eSub
	eMul
	eDiv
	eLt
	eLe
	eEq
	eNe
	eGt
	eGe
	eAnd
	eOr
	eAndShort // skip i ops when the top of stack is boolean false
	eOrShort  // skip i ops when the top of stack is boolean true
)

type eop struct {
	op   eopc
	i, j int32
	val  store.Value
	s    string // name for error messages (arg/var/field)
}

// compileLayout lowers the schemas alone: the table layout MatStore
// addressing needs, which always succeeds. Transactions are added by
// compileTxn — all up front by CompileProgram, one at a time on first use by
// a DirectedPlan.
func compileLayout(prog *ast.Program) *Compiled {
	cp := &Compiled{
		prog:    prog,
		tableID: make(map[string]int32, len(prog.Schemas)),
		txns:    make(map[string]*ctxn, len(prog.Txns)),
	}
	for i, s := range prog.Schemas {
		ct := ctable{
			name:    s.Name,
			schema:  s,
			fieldID: map[string]int32{},
		}
		for _, f := range s.Fields {
			ct.fieldID[f.Name] = int32(len(ct.fields))
			ct.fields = append(ct.fields, f.Name)
			sidx := int32(-1)
			if f.Type == ast.TString {
				sidx = ct.ns
				ct.ns++
			}
			ct.kind = append(ct.kind, f.Type)
			ct.sidx = append(ct.sidx, sidx)
			ct.zeros = append(ct.zeros, store.Zero(f.Type))
		}
		ct.alive = int32(len(ct.fields))
		ct.fieldID[ast.AliveField] = ct.alive
		ct.fields = append(ct.fields, ast.AliveField)
		ct.kind = append(ct.kind, ast.TBool)
		ct.sidx = append(ct.sidx, -1)
		ct.zeros = append(ct.zeros, store.BoolV(false))
		ct.nf = int32(len(ct.fields))
		ct.zwords = make([]int64, ct.nf)
		ct.zstrs = make([]string, ct.ns)
		for _, f := range s.PrimaryKey() {
			ct.pk = append(ct.pk, ct.fieldID[f.Name])
		}
		cp.tables = append(cp.tables, ct)
		cp.tableID[s.Name] = int32(i)
	}
	return cp
}

// CompileProgram lowers prog: the layout, then every transaction. The error
// names the first transaction the compiler refuses.
func CompileProgram(prog *ast.Program) (*Compiled, error) {
	cp := compileLayout(prog)
	for _, t := range prog.Txns {
		if _, err := cp.compileTxn(t); err != nil {
			return nil, err
		}
	}
	return cp, nil
}

// compileTxn compiles t and adds it to cp.
func (cp *Compiled) compileTxn(t *ast.Txn) (*ctxn, error) {
	ct, err := (&txnCompiler{cp: cp, txn: t}).compile()
	if err != nil {
		return nil, fmt.Errorf("cluster: %s: %w", t.Name, err)
	}
	cp.txns[t.Name] = ct
	if ct.nvars > cp.maxVars {
		cp.maxVars = ct.nvars
	}
	if len(ct.argNames) > cp.maxArgs {
		cp.maxArgs = len(ct.argNames)
	}
	return ct, nil
}

func (cp *Compiled) table(name string) (int32, *ctable) {
	id, ok := cp.tableID[name]
	if !ok {
		return -1, nil
	}
	return id, &cp.tables[id]
}

// txnCompiler compiles one transaction.
type txnCompiler struct {
	cp  *Compiled
	txn *ast.Txn

	argSlot map[string]int32
	args    []string

	varSlot map[string]int32
	varTab  []int32   // table id per var slot
	varCols [][]int32 // selected field ids per var slot, in retrieval order

	iterDepth int
	ncmd      int32 // database commands emitted so far: the next one's idx
	code      []cinstr
}

func (c *txnCompiler) compile() (*ctxn, error) {
	c.argSlot = map[string]int32{}
	c.varSlot = map[string]int32{}
	for _, p := range c.txn.Params {
		c.argSlot[p.Name] = int32(len(c.args))
		c.args = append(c.args, p.Name)
	}
	if err := c.stmts(c.txn.Body); err != nil {
		return nil, err
	}
	out := &ctxn{
		name:     c.txn.Name,
		src:      c.txn,
		argNames: c.args,
		nvars:    len(c.varSlot),
		code:     c.code,
	}
	if c.txn.Ret != nil {
		ret, err := c.expr(c.txn.Ret, nil, false)
		if err != nil {
			return nil, err
		}
		out.ret = ret
	}
	return out, nil
}

func (c *txnCompiler) stmts(body []ast.Stmt) error {
	for _, s := range body {
		switch x := s.(type) {
		case *ast.Skip:
		case *ast.If:
			cond, err := c.expr(x.Cond, nil, false)
			if err != nil {
				return err
			}
			jmp := len(c.code)
			c.code = append(c.code, cinstr{op: copIfFalse, cond: cond})
			if err := c.stmts(x.Then); err != nil {
				return err
			}
			c.code[jmp].a = int32(len(c.code))
		case *ast.Iterate:
			cnt, err := c.expr(x.Count, nil, false)
			if err != nil {
				return err
			}
			init := len(c.code)
			c.code = append(c.code, cinstr{op: copIterInit, cond: cnt})
			c.iterDepth++
			err = c.stmts(x.Body)
			c.iterDepth--
			if err != nil {
				return err
			}
			c.code = append(c.code, cinstr{op: copIterNext, a: int32(init + 1)})
			c.code[init].a = int32(len(c.code))
		case *ast.Select:
			cmd, err := c.selectCmd(x)
			if err != nil {
				return err
			}
			c.emitCmd(copSelect, cmd)
		case *ast.Update:
			cmd, err := c.updateCmd(x)
			if err != nil {
				return err
			}
			c.emitCmd(copUpdate, cmd)
		case *ast.Insert:
			cmd, err := c.insertCmd(x)
			if err != nil {
				return err
			}
			c.emitCmd(copInsert, cmd)
		default:
			return fmt.Errorf("compile: unknown statement %T", s)
		}
	}
	return nil
}

// emitCmd appends a database command, numbering it: stmts walks the body in
// ast.Commands order.
func (c *txnCompiler) emitCmd(op cop, cmd *ccmd) {
	cmd.idx = c.ncmd
	c.ncmd++
	c.code = append(c.code, cinstr{op: op, cmd: cmd})
}

// reads returns the fields of ct the command reads as the detector's
// encoding has it — ast.CommandAccess's Reads, which are the where clause's
// this.f and a select's columns, plus alive. An insert reads none. Only observed executions ask, so the list is resolved
// on the first one and unobserved runs pay nothing for it.
func (c *ccmd) reads(ct *ctable) []int32 {
	if c.readF == nil && c.kind != ckInsert {
		fs := append([]int32{ct.alive}, c.cols...)
		for i := range c.where {
			switch op := &c.where[i]; op.op {
			case eThis, eThisEqArg, eThisEqConst:
				fs = append(fs, op.i)
			}
		}
		slices.Sort(fs)
		c.readF = slices.Compact(fs)
	}
	return c.readF
}

// scan compiles the where clause of command src on table tid and chooses
// its access path.
func (c *txnCompiler) scan(tid int32, ct *ctable, src ast.DBCommand, cmd *ccmd) error {
	w, err := c.expr(ast.WhereOf(src), ct, false)
	if err != nil {
		return err
	}
	cmd.where = w
	eqs, ok := ast.CommandEqualities(src)
	if !ok {
		return nil // pathScan
	}
	simple := true
	for _, f := range ct.schema.PrimaryKey() {
		pin := eqs.Of(f.Name)
		if pin == nil {
			break
		}
		simple = simple && f.Type != ast.TString
		pe, err := c.expr(pin, nil, false)
		if err != nil {
			return err
		}
		cmd.pins = append(cmd.pins, pe)
	}
	switch {
	case len(cmd.pins) == 0:
		// eqs[0] is the conjunct && evaluates first, so evaluating its
		// right-hand side up front surfaces no error the clause would not.
		cmd.path, cmd.eqF = pathEq, ct.fieldID[eqs[0].Field]
		cmd.eqE, err = c.expr(eqs[0].Expr, nil, false)
	case len(cmd.pins) == len(ct.pk):
		cmd.path = pathExact
	default:
		cmd.path = pathPrefix
	}
	cmd.whereIsPin = len(cmd.pins) > 0 && len(eqs) == len(cmd.pins) && simple
	return err
}

func (c *txnCompiler) selectCmd(x *ast.Select) (*ccmd, error) {
	tid, ct := c.cp.table(x.Table)
	if ct == nil {
		return nil, fmt.Errorf("compile: unknown table %q", x.Table)
	}
	cmd := &ccmd{kind: ckSelect, label: x.Label, tid: tid}
	fields := x.Fields
	if x.Star {
		fields = nil
		for _, f := range ct.schema.Fields {
			fields = append(fields, f.Name)
		}
	}
	for _, f := range fields {
		id, ok := ct.fieldID[f]
		if !ok {
			return nil, fmt.Errorf("compile: %s lacks field %q", x.Table, f)
		}
		cmd.cols = append(cmd.cols, id)
	}
	// Bind the variable. Rebinding is only compiled when the new binding
	// has the same table and column layout — otherwise the column
	// addressing of downstream reads would be ambiguous.
	if slot, ok := c.varSlot[x.Var]; ok {
		if c.varTab[slot] != tid || !equalCols(c.varCols[slot], cmd.cols) {
			return nil, fmt.Errorf("compile: %q rebound with a different shape", x.Var)
		}
		cmd.varSlot = slot
	} else {
		slot := int32(len(c.varTab))
		c.varSlot[x.Var] = slot
		c.varTab = append(c.varTab, tid)
		c.varCols = append(c.varCols, cmd.cols)
		cmd.varSlot = slot
	}
	if err := c.scan(tid, ct, x, cmd); err != nil {
		return nil, err
	}
	return cmd, nil
}

func equalCols(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func (c *txnCompiler) updateCmd(x *ast.Update) (*ccmd, error) {
	tid, ct := c.cp.table(x.Table)
	if ct == nil {
		return nil, fmt.Errorf("compile: unknown table %q", x.Table)
	}
	cmd := &ccmd{kind: ckUpdate, label: x.Label, tid: tid}
	for _, a := range x.Sets {
		id, ok := ct.fieldID[a.Field]
		if !ok {
			return nil, fmt.Errorf("compile: %s lacks field %q", x.Table, a.Field)
		}
		e, err := c.expr(a.Expr, nil, false)
		if err != nil {
			return nil, err
		}
		if ty := c.typeOf(e); ty != ct.kind[id] {
			return nil, fmt.Errorf("compile: set %s.%s: type %s, field has type %s", x.Table, a.Field, ty, ct.kind[id])
		}
		cmd.setF = append(cmd.setF, id)
		cmd.setE = append(cmd.setE, e)
	}
	if err := c.scan(tid, ct, x, cmd); err != nil {
		return nil, err
	}
	return cmd, nil
}

func (c *txnCompiler) insertCmd(x *ast.Insert) (*ccmd, error) {
	tid, ct := c.cp.table(x.Table)
	if ct == nil {
		return nil, fmt.Errorf("compile: unknown table %q", x.Table)
	}
	cmd := &ccmd{kind: ckInsert, label: x.Label, tid: tid}
	for _, a := range x.Values {
		id, ok := ct.fieldID[a.Field]
		if !ok {
			return nil, fmt.Errorf("compile: %s lacks field %q", x.Table, a.Field)
		}
		_, topUUID := a.Expr.(*ast.UUID)
		e, err := c.expr(a.Expr, nil, true)
		if err != nil {
			return nil, err
		}
		if ty := c.typeOf(e); ty != ct.kind[id] {
			return nil, fmt.Errorf("compile: insert %s.%s: type %s, field has type %s", x.Table, a.Field, ty, ct.kind[id])
		}
		cmd.insF = append(cmd.insF, id)
		cmd.insE = append(cmd.insE, e)
		cmd.insUUID = append(cmd.insUUID, topUUID)
	}
	// Emission order: the AST reference builds a field→value map (duplicate
	// fields last-wins) and emits writes sorted by field name.
	last := map[string]int32{}
	for i, id := range cmd.insF {
		last[ct.fields[id]] = int32(i)
	}
	names := make([]string, 0, len(last))
	for n := range last {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		cmd.emit = append(cmd.emit, last[n])
	}
	for _, pkID := range ct.pk {
		idx, ok := last[ct.fields[pkID]]
		if !ok {
			return nil, fmt.Errorf("compile: insert into %s misses key field %q", x.Table, ct.fields[pkID])
		}
		cmd.insPK = append(cmd.insPK, idx)
	}
	return cmd, nil
}

// expr compiles e to postfix ops. scan is the table being filtered when e
// is a where clause (this.f legal); inInsert permits uuid().
func (c *txnCompiler) expr(e ast.Expr, scan *ctable, inInsert bool) (cexpr, error) {
	var ops cexpr
	var emit func(e ast.Expr) error
	emit = func(e ast.Expr) error {
		switch n := e.(type) {
		case *ast.IntLit:
			ops = append(ops, eop{op: eConst, val: store.IntV(n.Val)})
		case *ast.BoolLit:
			ops = append(ops, eop{op: eConst, val: store.BoolV(n.Val)})
		case *ast.StringLit:
			ops = append(ops, eop{op: eConst, val: store.StringV(n.Val)})
		case *ast.UUID:
			if !inInsert {
				return fmt.Errorf("compile: uuid() outside insert")
			}
			ops = append(ops, eop{op: eUUID})
		case *ast.Arg:
			ops = append(ops, eop{op: eArg, i: c.argRef(n.Name), s: n.Name})
		case *ast.IterVar:
			if c.iterDepth == 0 {
				return fmt.Errorf("compile: iter outside iterate")
			}
			ops = append(ops, eop{op: eIterVar})
		case *ast.ThisField:
			if scan == nil {
				return fmt.Errorf("compile: this.%s outside where", n.Field)
			}
			id, ok := scan.fieldID[n.Field]
			if !ok {
				return fmt.Errorf("compile: %s lacks field %q", scan.name, n.Field)
			}
			ops = append(ops, eop{op: eThis, i: id, s: n.Field})
		case *ast.FieldAt:
			slot, vt, err := c.lookupVar(n.Var)
			if err != nil {
				return err
			}
			col, zero, ok, err := c.column(vt, slot, n.Field)
			if err != nil {
				return err
			}
			if n.Index == nil {
				if ok {
					ops = append(ops, eop{op: eField, i: slot, j: col, val: zero, s: n.Var})
				} else {
					ops = append(ops, eop{op: eFieldMiss, i: slot, val: zero, s: n.Var + "." + n.Field})
				}
			} else {
				if err := emit(n.Index); err != nil {
					return err
				}
				if ok {
					ops = append(ops, eop{op: eFieldIdx, i: slot, j: col, val: zero, s: n.Var})
				} else {
					ops = append(ops, eop{op: eFieldMissIdx, i: slot, val: zero, s: n.Var + "." + n.Field})
				}
			}
		case *ast.Agg:
			slot, vt, err := c.lookupVar(n.Var)
			if err != nil {
				return err
			}
			if n.Fn == ast.AggCount {
				ops = append(ops, eop{op: eAggCount, i: slot})
				break
			}
			col, zero, ok, err := c.column(vt, slot, n.Field)
			if err != nil {
				return err
			}
			if !ok {
				// The AST reference folds over the retrieved map, where a
				// never-selected field degenerates (sum of zeros, invalid
				// comparisons); sema rejects such programs, so the degeneracy
				// is not reproduced.
				return fmt.Errorf("compile: agg over unselected field %s.%s", n.Var, n.Field)
			}
			var op eopc
			switch n.Fn {
			case ast.AggSum:
				op = eAggSum
			case ast.AggMin:
				op = eAggMin
			case ast.AggMax:
				op = eAggMax
			case ast.AggAny:
				op = eAggAny
			default:
				return fmt.Errorf("compile: unknown aggregator %v", n.Fn)
			}
			ops = append(ops, eop{op: op, i: slot, j: col, val: zero, s: n.Var})
		case *ast.Binary:
			// Fuse the dominant where-clause conjunct shapes into single
			// ops: this.f = arg and this.f = literal.
			if n.Op == ast.OpEq && scan != nil {
				if tf, isTF := n.L.(*ast.ThisField); isTF {
					if id, knownField := scan.fieldID[tf.Field]; knownField {
						switch r := n.R.(type) {
						case *ast.Arg:
							ops = append(ops, eop{op: eThisEqArg, i: id, j: c.argRef(r.Name), s: r.Name})
							return nil
						case *ast.IntLit:
							ops = append(ops, eop{op: eThisEqConst, i: id, val: store.IntV(r.Val)})
							return nil
						case *ast.BoolLit:
							ops = append(ops, eop{op: eThisEqConst, i: id, val: store.BoolV(r.Val)})
							return nil
						case *ast.StringLit:
							ops = append(ops, eop{op: eThisEqConst, i: id, val: store.StringV(r.Val)})
							return nil
						}
					}
				}
			}
			if err := emit(n.L); err != nil {
				return err
			}
			var short int
			if n.Op == ast.OpAnd || n.Op == ast.OpOr {
				short = len(ops)
				if n.Op == ast.OpAnd {
					ops = append(ops, eop{op: eAndShort})
				} else {
					ops = append(ops, eop{op: eOrShort})
				}
			}
			if err := emit(n.R); err != nil {
				return err
			}
			var op eopc
			switch n.Op {
			case ast.OpAdd:
				op = eAdd
			case ast.OpSub:
				op = eSub
			case ast.OpMul:
				op = eMul
			case ast.OpDiv:
				op = eDiv
			case ast.OpLt:
				op = eLt
			case ast.OpLe:
				op = eLe
			case ast.OpEq:
				op = eEq
			case ast.OpNe:
				op = eNe
			case ast.OpGt:
				op = eGt
			case ast.OpGe:
				op = eGe
			case ast.OpAnd:
				op = eAnd
			case ast.OpOr:
				op = eOr
			default:
				return fmt.Errorf("compile: unknown operator %v", n.Op)
			}
			ops = append(ops, eop{op: op})
			if n.Op == ast.OpAnd || n.Op == ast.OpOr {
				// Jump lands on the final eAnd/eOr, which the main loop then
				// steps past, leaving the short-circuited operand as result.
				ops[short].i = int32(len(ops) - 1 - short)
			}
		default:
			return fmt.Errorf("compile: unknown expression %T", e)
		}
		return nil
	}
	if err := emit(e); err != nil {
		return nil, err
	}
	return ops, nil
}

// typeOf is the type of every value e evaluates to, which its last op
// decides: the executor's arithmetic always yields ints and its comparisons
// bools, and constants, arguments (checked where they are bound) and fields
// carry their declared types. Sets and inserts are held to it, so every value
// a page stores has its field's type and decodes back exactly.
func (c *txnCompiler) typeOf(e cexpr) ast.Type {
	switch op := &e[len(e)-1]; op.op {
	case eConst, eField, eFieldIdx, eFieldMiss, eFieldMissIdx, eAggMin, eAggMax, eAggAny:
		return op.val.T
	case eArg:
		if int(op.i) < len(c.txn.Params) { // the declared parameters' slots come first
			return c.txn.Params[op.i].Type
		}
		return ast.TInvalid
	case eThisEqArg, eThisEqConst, eLt, eLe, eEq, eNe, eGt, eGe, eAnd, eOr:
		return ast.TBool
	}
	return ast.TInt
}

// argRef resolves (or creates) the argument slot for a named parameter. The
// declared parameters hold the first slots, in order; a reference to an
// undeclared one gets an extra slot that binding never fills, so evaluating
// it fails with "unknown argument".
func (c *txnCompiler) argRef(name string) int32 {
	slot, ok := c.argSlot[name]
	if !ok {
		slot = int32(len(c.args))
		c.argSlot[name] = slot
		c.args = append(c.args, name)
	}
	return slot
}

func (c *txnCompiler) lookupVar(name string) (int32, *ctable, error) {
	slot, ok := c.varSlot[name]
	if !ok {
		return 0, nil, fmt.Errorf("compile: unknown variable %q", name)
	}
	return slot, &c.cp.tables[c.varTab[slot]], nil
}

// column resolves a field of a result-set slot to its column position. ok
// is false when the field exists in the schema but was not selected (the
// AST reference reads zero from an empty result set and errors on a
// non-empty one — eFieldMiss reproduces that).
func (c *txnCompiler) column(vt *ctable, slot int32, field string) (col int32, zero store.Value, ok bool, err error) {
	id, exists := vt.fieldID[field]
	if !exists {
		return 0, store.Value{}, false, fmt.Errorf("compile: %s lacks field %q", vt.name, field)
	}
	zero = vt.zeros[id]
	for j, cid := range c.varCols[slot] {
		if cid == id {
			return int32(j), zero, true, nil
		}
	}
	return 0, zero, false, nil
}
