package cluster

import (
	"fmt"
	"sort"
	"strings"

	"atropos/internal/ast"
	"atropos/internal/store"
)

// The AST reference executor: the transaction walker the simulator ran before
// the compiled cframe, with the name-based views it reads through. It is test
// code — no production binary holds it — and is what the differential tests
// (TestCompiledMatchesInterpreter, TestObservationMatchesInterpreter,
// FuzzFaultScheduleEquivalence, the directed-run oracle) compare cframe with,
// so it is kept as it was, not tidied. reference_run_test.go drives it inside
// a simulated run.

// DBView is the read interface the AST-walking executor runs against: a
// replica's materialized state, optionally overlaid with a transaction's
// buffered writes (SC mode reads-your-writes before commit). The compiled
// executor bypasses it and addresses MatStore rows directly by table id,
// row slot, and field index (DESIGN.md §9).
type DBView interface {
	Schema(table string) *ast.Schema
	Read(table string, key store.Key, field string) store.Value
	Alive(table string, key store.Key) bool
	Keys(table string) []store.Key
}

// TxnExec executes one transaction instance statement by statement against
// a DBView, producing (but not applying) writes. Control commands cost
// nothing; each Exec call performs exactly one database command.
type TxnExec struct {
	prog   *ast.Program
	txn    *ast.Txn
	args   map[string]store.Value
	env    map[string]store.ResultSet
	envTab map[string]string
	frames []*execFrame
	retVal store.Value
	done   bool
	// pending is the command Advance stopped at, awaiting Exec.
	pending ast.DBCommand
}

type execFrame struct {
	stmts     []ast.Stmt
	idx       int
	isIter    bool
	iterCount int64
	iterIdx   int64
}

// NewTxnExec prepares an instance (arguments are assumed checked upstream).
func NewTxnExec(prog *ast.Program, txn *ast.Txn, args map[string]store.Value) *TxnExec {
	return &TxnExec{
		prog: prog, txn: txn, args: args,
		env:    map[string]store.ResultSet{},
		envTab: map[string]string{},
		frames: []*execFrame{{stmts: txn.Body}},
	}
}

// Done reports completion.
func (e *TxnExec) Done() bool { return e.done }

// Advance runs control flow up to the next database command and returns
// it, or nil when the transaction has finished (evaluating its return
// expression). Calling Advance twice without Exec returns the same command.
func (e *TxnExec) Advance(view DBView) (ast.DBCommand, error) {
	if e.pending != nil {
		return e.pending, nil
	}
	for {
		if len(e.frames) == 0 {
			if e.txn.Ret != nil && !e.done {
				v, err := e.eval(e.txn.Ret, nil, view, nil)
				if err != nil {
					return nil, err
				}
				e.retVal = v
			}
			e.done = true
			return nil, nil
		}
		f := e.frames[len(e.frames)-1]
		if f.idx >= len(f.stmts) {
			if f.isIter && f.iterIdx < f.iterCount {
				f.iterIdx++
				f.idx = 0
				continue
			}
			e.frames = e.frames[:len(e.frames)-1]
			continue
		}
		s := f.stmts[f.idx]
		f.idx++
		switch x := s.(type) {
		case *ast.Skip:
		case *ast.If:
			v, err := e.eval(x.Cond, nil, view, nil)
			if err != nil {
				return nil, err
			}
			if v.T == ast.TBool && v.B {
				e.frames = append(e.frames, &execFrame{stmts: x.Then})
			}
		case *ast.Iterate:
			v, err := e.eval(x.Count, nil, view, nil)
			if err != nil {
				return nil, err
			}
			if v.T == ast.TInt && v.I > 0 {
				e.frames = append(e.frames, &execFrame{stmts: x.Body, isIter: true, iterCount: v.I, iterIdx: 1})
			}
		case ast.DBCommand:
			e.pending = x
			return x, nil
		default:
			return nil, fmt.Errorf("cluster: unknown statement %T", s)
		}
	}
}

// Result returns the transaction's return value after completion.
func (e *TxnExec) Result() store.Value { return e.retVal }

// Footprint computes the records the pending command touches (for lock
// acquisition) without executing it. wrote reports whether the command
// writes. uuid's Peek previews insert keys.
func (e *TxnExec) Footprint(view DBView, u *UUIDGen) (table string, keys []store.Key, wrote bool, err error) {
	c := e.pending
	if c == nil {
		return "", nil, false, fmt.Errorf("cluster: no pending command")
	}
	switch x := c.(type) {
	case *ast.Select:
		ks, err := e.matching(view, x.Table, x.Where)
		return x.Table, ks, false, err
	case *ast.Update:
		ks, err := e.matching(view, x.Table, x.Where)
		return x.Table, ks, true, err
	case *ast.Insert:
		k, err := e.insertKey(view, x, u.Peek())
		if err != nil {
			return "", nil, false, err
		}
		return x.Table, []store.Key{k}, true, nil
	}
	return "", nil, false, fmt.Errorf("cluster: unknown command %T", c)
}

// Exec executes the pending command against the view and returns the
// writes it produces (not yet applied anywhere).
func (e *TxnExec) Exec(view DBView, u *UUIDGen) ([]WriteOp, error) {
	c := e.pending
	if c == nil {
		return nil, fmt.Errorf("cluster: no pending command")
	}
	e.pending = nil
	switch x := c.(type) {
	case *ast.Select:
		return nil, e.execSelect(view, x)
	case *ast.Update:
		return e.execUpdate(view, x)
	case *ast.Insert:
		return e.execInsert(view, x, u)
	}
	return nil, fmt.Errorf("cluster: unknown command %T", c)
}

// matching returns the alive records satisfying the where clause. When the
// clause pins a prefix of the primary key with equalities, the sorted key
// space is narrowed by binary search instead of scanned — essential for
// append-only logging tables, which grow throughout a run.
func (e *TxnExec) matching(view DBView, table string, where ast.Expr) ([]store.Key, error) {
	var out []store.Key
	schema := view.Schema(table)
	if schema == nil {
		return nil, fmt.Errorf("cluster: unknown table %q", table)
	}
	keys := view.Keys(table)
	if lo, hi, ok := e.keyRange(view, schema, where, keys); ok {
		keys = keys[lo:hi]
	}
	for _, k := range keys {
		if !view.Alive(table, k) {
			continue
		}
		row := e.materialize(view, schema, table, k)
		v, err := e.eval(where, row, view, nil)
		if err != nil {
			return nil, err
		}
		if v.T == ast.TBool && v.B {
			out = append(out, k)
		}
	}
	return out, nil
}

// keyRange narrows sorted keys to those whose encoded primary-key prefix
// matches the where clause's equality pins on the leading key fields.
func (e *TxnExec) keyRange(view DBView, schema *ast.Schema, where ast.Expr, keys []store.Key) (int, int, bool) {
	eqs, ok := ast.WhereEqualities(where)
	if !ok {
		return 0, 0, false
	}
	pins := map[string]ast.Expr{}
	for _, q := range eqs {
		pins[q.Field] = q.Expr
	}
	var vals []store.Value
	for _, pk := range schema.PrimaryKey() {
		pin, ok := pins[pk.Name]
		if !ok {
			break
		}
		v, err := e.eval(pin, nil, view, nil)
		if err != nil {
			return 0, 0, false
		}
		vals = append(vals, v)
	}
	if len(vals) == 0 {
		return 0, 0, false
	}
	prefix := string(store.MakeKey(vals...))
	if len(vals) < len(schema.PrimaryKey()) {
		prefix += "\x1f"
	}
	lo := sort.Search(len(keys), func(i int) bool { return string(keys[i]) >= prefix })
	hi := lo
	for hi < len(keys) && strings.HasPrefix(string(keys[hi]), prefix) {
		hi++
	}
	// Exact full-key pins match a single key (no separator suffix).
	if len(vals) == len(schema.PrimaryKey()) {
		hi = lo
		if lo < len(keys) && string(keys[lo]) == prefix {
			hi = lo + 1
		}
	}
	return lo, hi, true
}

func (e *TxnExec) materialize(view DBView, schema *ast.Schema, table string, k store.Key) store.Row {
	row := store.Row{}
	for _, f := range schema.Fields {
		row[f.Name] = view.Read(table, k, f.Name)
	}
	row[ast.AliveField] = view.Read(table, k, ast.AliveField)
	return row
}

func (e *TxnExec) execSelect(view DBView, x *ast.Select) error {
	schema := view.Schema(x.Table)
	keys, err := e.matching(view, x.Table, x.Where)
	if err != nil {
		return err
	}
	fields := x.Fields
	if x.Star {
		fields = nil
		for _, f := range schema.Fields {
			fields = append(fields, f.Name)
		}
	}
	var rs store.ResultSet
	for _, k := range keys {
		out := store.Row{}
		for _, f := range fields {
			out[f] = view.Read(x.Table, k, f)
		}
		rs = append(rs, store.ResultRow{Key: k, Fields: out})
	}
	e.env[x.Var] = rs
	e.envTab[x.Var] = x.Table
	return nil
}

func (e *TxnExec) execUpdate(view DBView, x *ast.Update) ([]WriteOp, error) {
	keys, err := e.matching(view, x.Table, x.Where)
	if err != nil {
		return nil, err
	}
	vals := make([]store.Value, len(x.Sets))
	for i, a := range x.Sets {
		v, err := e.eval(a.Expr, nil, view, nil)
		if err != nil {
			return nil, err
		}
		vals[i] = v
	}
	var out []WriteOp
	for _, k := range keys {
		for i, a := range x.Sets {
			out = append(out, WriteOp{Table: x.Table, Key: k, Field: a.Field, Val: vals[i]})
		}
	}
	return out, nil
}

func (e *TxnExec) insertKey(view DBView, x *ast.Insert, peek store.Value) (store.Key, error) {
	schema := view.Schema(x.Table)
	if schema == nil {
		return "", fmt.Errorf("cluster: unknown table %q", x.Table)
	}
	vals := map[string]store.Value{}
	for _, a := range x.Values {
		if _, isUUID := a.Expr.(*ast.UUID); isUUID {
			vals[a.Field] = peek
			continue
		}
		v, err := e.eval(a.Expr, nil, view, nil)
		if err != nil {
			return "", err
		}
		vals[a.Field] = v
	}
	var pk []store.Value
	for _, f := range schema.PrimaryKey() {
		pk = append(pk, vals[f.Name])
	}
	return store.MakeKey(pk...), nil
}

func (e *TxnExec) execInsert(view DBView, x *ast.Insert, u *UUIDGen) ([]WriteOp, error) {
	schema := view.Schema(x.Table)
	if schema == nil {
		return nil, fmt.Errorf("cluster: unknown table %q", x.Table)
	}
	row := store.Row{}
	for _, a := range x.Values {
		v, err := e.eval(a.Expr, nil, view, u)
		if err != nil {
			return nil, err
		}
		row[a.Field] = v
	}
	var pk []store.Value
	for _, f := range schema.PrimaryKey() {
		v, ok := row[f.Name]
		if !ok {
			return nil, fmt.Errorf("cluster: insert into %s misses key field %q", x.Table, f.Name)
		}
		pk = append(pk, v)
	}
	k := store.MakeKey(pk...)
	var out []WriteOp
	for f, v := range row {
		out = append(out, WriteOp{Table: x.Table, Key: k, Field: f, Val: v})
	}
	// Deterministic order (map iteration above is not).
	sortWrites(out)
	out = append(out, WriteOp{Table: x.Table, Key: k, Field: ast.AliveField, Val: store.BoolV(true)})
	return out, nil
}

func sortWrites(ws []WriteOp) {
	for i := 1; i < len(ws); i++ {
		for j := i; j > 0 && ws[j].Field < ws[j-1].Field; j-- {
			ws[j], ws[j-1] = ws[j-1], ws[j]
		}
	}
}

// eval mirrors the interpreter's expression semantics against a DBView.
func (e *TxnExec) eval(x ast.Expr, this store.Row, view DBView, u *UUIDGen) (store.Value, error) {
	switch n := x.(type) {
	case *ast.IntLit:
		return store.IntV(n.Val), nil
	case *ast.BoolLit:
		return store.BoolV(n.Val), nil
	case *ast.StringLit:
		return store.StringV(n.Val), nil
	case *ast.UUID:
		if u == nil {
			return store.Value{}, fmt.Errorf("cluster: uuid() outside insert")
		}
		return u.Take(), nil
	case *ast.Arg:
		v, ok := e.args[n.Name]
		if !ok {
			return store.Value{}, fmt.Errorf("cluster: unknown argument %q", n.Name)
		}
		return v, nil
	case *ast.IterVar:
		for i := len(e.frames) - 1; i >= 0; i-- {
			if e.frames[i].isIter {
				return store.IntV(e.frames[i].iterIdx), nil
			}
		}
		return store.Value{}, fmt.Errorf("cluster: iter outside iterate")
	case *ast.ThisField:
		if this == nil {
			return store.Value{}, fmt.Errorf("cluster: this.%s outside where", n.Field)
		}
		v, ok := this[n.Field]
		if !ok {
			return store.Value{}, fmt.Errorf("cluster: record lacks field %q", n.Field)
		}
		return v, nil
	case *ast.FieldAt:
		rs := e.env[n.Var]
		idx := int64(1)
		if n.Index != nil {
			iv, err := e.eval(n.Index, this, view, u)
			if err != nil {
				return store.Value{}, err
			}
			idx = iv.I
		}
		if idx < 1 || idx > int64(len(rs)) {
			return e.zeroOf(view, n.Var, n.Field)
		}
		v, ok := rs[idx-1].Fields[n.Field]
		if !ok {
			return store.Value{}, fmt.Errorf("cluster: result %q lacks field %q", n.Var, n.Field)
		}
		return v, nil
	case *ast.Agg:
		return e.evalAgg(view, n)
	case *ast.Binary:
		return e.evalBinary(view, n, this, u)
	default:
		return store.Value{}, fmt.Errorf("cluster: unknown expression %T", x)
	}
}

func (e *TxnExec) zeroOf(view DBView, varName, field string) (store.Value, error) {
	tab := e.envTab[varName]
	if tab == "" {
		return store.Value{}, fmt.Errorf("cluster: unknown variable %q", varName)
	}
	s := view.Schema(tab)
	if s == nil {
		return store.Value{}, fmt.Errorf("cluster: unknown table %q", tab)
	}
	f := s.Field(field)
	if f == nil {
		return store.Value{}, fmt.Errorf("cluster: table %s lacks field %q", tab, field)
	}
	return store.Zero(f.Type), nil
}

func (e *TxnExec) evalAgg(view DBView, x *ast.Agg) (store.Value, error) {
	rs := e.env[x.Var]
	if x.Fn == ast.AggCount {
		return store.IntV(int64(len(rs))), nil
	}
	if len(rs) == 0 {
		if x.Fn == ast.AggSum {
			return store.IntV(0), nil
		}
		return e.zeroOf(view, x.Var, x.Field)
	}
	best := rs[0].Fields[x.Field]
	switch x.Fn {
	case ast.AggAny:
		return best, nil
	case ast.AggSum:
		var total int64
		for _, r := range rs {
			total += r.Fields[x.Field].I
		}
		return store.IntV(total), nil
	default:
		for _, r := range rs[1:] {
			v := r.Fields[x.Field]
			if (x.Fn == ast.AggMin && v.Less(best)) || (x.Fn == ast.AggMax && best.Less(v)) {
				best = v
			}
		}
		return best, nil
	}
}

func (e *TxnExec) evalBinary(view DBView, x *ast.Binary, this store.Row, u *UUIDGen) (store.Value, error) {
	l, err := e.eval(x.L, this, view, u)
	if err != nil {
		return store.Value{}, err
	}
	if x.Op == ast.OpAnd && l.T == ast.TBool && !l.B {
		return store.BoolV(false), nil
	}
	if x.Op == ast.OpOr && l.T == ast.TBool && l.B {
		return store.BoolV(true), nil
	}
	r, err := e.eval(x.R, this, view, u)
	if err != nil {
		return store.Value{}, err
	}
	switch {
	case x.Op.IsArith():
		switch x.Op {
		case ast.OpAdd:
			return store.IntV(l.I + r.I), nil
		case ast.OpSub:
			return store.IntV(l.I - r.I), nil
		case ast.OpMul:
			return store.IntV(l.I * r.I), nil
		default:
			if r.I == 0 {
				return store.Value{}, fmt.Errorf("cluster: division by zero")
			}
			return store.IntV(l.I / r.I), nil
		}
	case x.Op.IsComparison():
		switch x.Op {
		case ast.OpEq:
			return store.BoolV(l.Equal(r)), nil
		case ast.OpNe:
			return store.BoolV(!l.Equal(r)), nil
		case ast.OpLt:
			return store.BoolV(l.Less(r)), nil
		case ast.OpLe:
			return store.BoolV(l.Less(r) || l.Equal(r)), nil
		case ast.OpGt:
			return store.BoolV(r.Less(l)), nil
		default:
			return store.BoolV(r.Less(l) || l.Equal(r)), nil
		}
	default:
		if x.Op == ast.OpAnd {
			return store.BoolV(l.B && r.B), nil
		}
		return store.BoolV(l.B || r.B), nil
	}
}

// Apply merges one write with last-writer-wins semantics at the given
// timestamp (timestamps must be unique across the run; the driver issues a
// strictly monotone sequence).
func (ms *MatStore) Apply(w WriteOp, ts int64) {
	tid, ct := ms.cp.table(w.Table)
	if ct == nil {
		return
	}
	fid, ok := ct.fieldID[w.Field]
	if !ok {
		return
	}
	t := &ms.tabs[tid]
	t.put(t.dir.intern(w.Key), fid, w.Val, ts)
}

// Overlay is a DBView layering a transaction's buffered writes over a
// base state (the interpreter's SC transactions read their own uncommitted
// writes through it; the compiled executor uses coverlay).
type Overlay struct {
	Base   DBView
	writes map[string]map[store.Key]store.Row
}

// NewOverlay creates an empty overlay over base.
func NewOverlay(base DBView) *Overlay {
	return &Overlay{Base: base, writes: map[string]map[store.Key]store.Row{}}
}

// Buffer records a pending write.
func (o *Overlay) Buffer(w WriteOp) {
	t := o.writes[w.Table]
	if t == nil {
		t = map[store.Key]store.Row{}
		o.writes[w.Table] = t
	}
	r := t[w.Key]
	if r == nil {
		r = store.Row{}
		t[w.Key] = r
	}
	r[w.Field] = w.Val
}

// Writes returns the buffered writes in deterministic order.
func (o *Overlay) Writes() []WriteOp {
	var tables []string
	for t := range o.writes {
		tables = append(tables, t)
	}
	sort.Strings(tables)
	var out []WriteOp
	for _, tn := range tables {
		var keys []store.Key
		for k := range o.writes[tn] {
			keys = append(keys, k)
		}
		sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
		for _, k := range keys {
			row := o.writes[tn][k]
			var fields []string
			for f := range row {
				fields = append(fields, f)
			}
			sort.Strings(fields)
			for _, f := range fields {
				out = append(out, WriteOp{Table: tn, Key: k, Field: f, Val: row[f]})
			}
		}
	}
	return out
}

// Schema implements DBView.
func (o *Overlay) Schema(table string) *ast.Schema { return o.Base.Schema(table) }

// Read implements DBView.
func (o *Overlay) Read(table string, key store.Key, field string) store.Value {
	if t, ok := o.writes[table]; ok {
		if r, ok := t[key]; ok {
			if v, ok := r[field]; ok {
				return v
			}
		}
	}
	return o.Base.Read(table, key, field)
}

// Alive implements DBView.
func (o *Overlay) Alive(table string, key store.Key) bool {
	v := o.Read(table, key, ast.AliveField)
	return v.T == ast.TBool && v.B
}

// Keys implements DBView: base keys plus overlay-created keys.
func (o *Overlay) Keys(table string) []store.Key {
	base := o.Base.Keys(table)
	t, ok := o.writes[table]
	if !ok {
		return base
	}
	seen := map[store.Key]bool{}
	for _, k := range base {
		seen[k] = true
	}
	extra := false
	for k := range t {
		if !seen[k] {
			extra = true
		}
	}
	if !extra {
		return base
	}
	out := append([]store.Key(nil), base...)
	for k := range t {
		if !seen[k] {
			out = append(out, k)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
