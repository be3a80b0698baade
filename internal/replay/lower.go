package replay

import (
	"fmt"
	"maps"
	"slices"
	"sort"

	"atropos/internal/anomaly"
	"atropos/internal/ast"
	"atropos/internal/cluster"
	"atropos/internal/store"
)

// This file lowers a witness Schedule — the canonical model the detector
// decided its cycle query with — into a concrete cluster.DirectedConfig and the
// rows its base state is seeded with. The
// model is symbolic: it orders command instances (ord), grants view
// contents (vis), and values aliasing-equality atoms over primary-key
// terms. Lowering makes it concrete by choosing actual argument values and
// seeded rows such that every term-equality the model requires holds at
// runtime, then pinning the interleaving and visibility to ord/vis.
//
// The construction is a union-find over term ids: terms the model equates
// share a class, classes pick up forced values from constant pins and
// argument identities from parameter pins, and remaining classes get fresh
// distinct values per type. Rows are seeded greedily so every select and
// update finds the record its key class denotes; field reads that feed
// later keys (at(x.f) pins) are back-propagated into the binding select's
// row. A schedule whose model cannot be realized this way — conflicting
// constants, or a disequality the static over-approximation asserted that
// concrete values cannot satisfy — is reported as not lowerable with a
// reason rather than silently producing a vacuous run.

// lowered is one schedule made concrete: the run, the rows it starts from,
// the defaults profile that filled what the model left free, and the two
// transactions' static command counts.
type lowered struct {
	Cfg   cluster.DirectedConfig
	Rows  []store.TableRow
	prof  profile
	nCmds [2]int
}

// sameInputs reports whether two lowerings of one schedule hand a run the
// same arguments and the same seeded rows. Steps and visibility come from
// the schedule alone, so equal inputs mean equal runs.
func sameInputs(a, b *lowered) bool {
	for inst := range a.Cfg.Txns {
		if !maps.EqualFunc(a.Cfg.Txns[inst].Args, b.Cfg.Txns[inst].Args, store.Value.Equal) {
			return false
		}
	}
	return slices.EqualFunc(a.Rows, b.Rows, func(x, y store.TableRow) bool {
		return x.Table == y.Table && maps.EqualFunc(x.Row, y.Row, store.Value.Equal)
	})
}

// evalStatic evaluates an expression that depends on nothing but literals,
// arguments, and the iterate counter (pinned to 1, its first-iteration
// value — the bound the static encoding assumes). The second result is
// false for execution-dependent expressions (field reads, aggregates,
// uuid()).
func evalStatic(e ast.Expr, args map[string]store.Value) (store.Value, bool) {
	switch x := e.(type) {
	case *ast.IntLit:
		return store.IntV(x.Val), true
	case *ast.BoolLit:
		return store.BoolV(x.Val), true
	case *ast.StringLit:
		return store.StringV(x.Val), true
	case *ast.IterVar:
		return store.IntV(1), true
	case *ast.Arg:
		if args == nil {
			return store.Value{}, false
		}
		v, ok := args[x.Name]
		return v, ok
	case *ast.Binary:
		l, ok := evalStatic(x.L, args)
		if !ok {
			return store.Value{}, false
		}
		r, ok := evalStatic(x.R, args)
		if !ok {
			return store.Value{}, false
		}
		switch {
		case x.Op.IsArith():
			switch x.Op {
			case ast.OpAdd:
				return store.IntV(l.I + r.I), true
			case ast.OpSub:
				return store.IntV(l.I - r.I), true
			case ast.OpMul:
				return store.IntV(l.I * r.I), true
			default:
				if r.I == 0 {
					return store.Value{}, false
				}
				return store.IntV(l.I / r.I), true
			}
		case x.Op.IsComparison():
			switch x.Op {
			case ast.OpEq:
				return store.BoolV(l.Equal(r)), true
			case ast.OpNe:
				return store.BoolV(!l.Equal(r)), true
			case ast.OpLt:
				return store.BoolV(l.Less(r)), true
			case ast.OpLe:
				return store.BoolV(l.Less(r) || l.Equal(r)), true
			case ast.OpGt:
				return store.BoolV(r.Less(l)), true
			default:
				return store.BoolV(r.Less(l) || l.Equal(r)), true
			}
		default:
			if x.Op == ast.OpAnd {
				return store.BoolV(l.B && r.B), true
			}
			return store.BoolV(l.B || r.B), true
		}
	default:
		return store.Value{}, false
	}
}

// classes is a deterministic union-find over term ids: roots are the
// lexicographically least member, so class identity does not depend on
// union order.
type classes struct {
	parent map[string]string
}

func newClasses() *classes { return &classes{parent: map[string]string{}} }

func (c *classes) find(x string) string {
	p, ok := c.parent[x]
	if !ok || p == x {
		return x
	}
	r := c.find(p)
	c.parent[x] = r
	return r
}

func (c *classes) union(a, b string) {
	ra, rb := c.find(a), c.find(b)
	if ra == rb {
		return
	}
	if rb < ra {
		ra, rb = rb, ra
	}
	c.parent[rb] = ra
}

// classInfo accumulates what lowering knows about one equality class.
type classInfo struct {
	typ    ast.Type
	typOK  bool
	forced bool
	val    store.Value
	hasVal bool
	uuid   bool
	// args lists (instance, parameter) identities pinned to this class.
	args [][2]interface{}
}

// argKey identifies one instance's parameter.
type argKey struct {
	inst int
	name string
}

// freshPool hands out fresh values per type, never colliding with values
// already in play.
type freshPool struct {
	usedInt    map[int64]bool
	usedString map[string]bool
	nextInt    int64
	nextStr    int
	nextBool   bool
}

func newFreshPool() *freshPool {
	return &freshPool{usedInt: map[int64]bool{}, usedString: map[string]bool{}, nextInt: 9001}
}

func (p *freshPool) clone() *freshPool {
	c := *p
	c.usedInt, c.usedString = maps.Clone(p.usedInt), maps.Clone(p.usedString)
	return &c
}

func (p *freshPool) note(v store.Value) {
	switch v.T {
	case ast.TInt:
		p.usedInt[v.I] = true
	case ast.TString:
		p.usedString[v.S] = true
	}
}

func (p *freshPool) fresh(t ast.Type) store.Value {
	switch t {
	case ast.TBool:
		v := store.BoolV(p.nextBool)
		p.nextBool = !p.nextBool
		return v
	case ast.TString:
		for {
			s := fmt.Sprintf("rk%d", p.nextStr)
			p.nextStr++
			if !p.usedString[s] {
				p.usedString[s] = true
				return store.StringV(s)
			}
		}
	default:
		for p.usedInt[p.nextInt] {
			p.nextInt++
		}
		p.usedInt[p.nextInt] = true
		v := store.IntV(p.nextInt)
		p.nextInt++
		return v
	}
}

// profile chooses the defaults for values the model leaves unconstrained.
// The static encoding assumes every command may execute, but a concrete run
// takes concrete branches; certification retries the lowering under a few
// profiles so guards of either polarity (if bal >= amt, if !processed) can
// be satisfied. Pinned values — classes the model forced — never vary.
type profile struct {
	argInt   int64
	fieldInt int64
	boolVal  bool
}

// profiles is the attempt ladder: balanced defaults first, then large
// arguments (overdraft-style guards), then each with false booleans
// (not-yet-processed-style guards).
var profiles = []profile{
	{argInt: 1, fieldInt: 100, boolVal: true},
	{argInt: 1000, fieldInt: 100, boolVal: true},
	{argInt: 1, fieldInt: 100, boolVal: false},
	{argInt: 1000, fieldInt: 100, boolVal: false},
}

func (p profile) defaultValue(t ast.Type, field bool) store.Value {
	switch t {
	case ast.TBool:
		return store.BoolV(p.boolVal)
	case ast.TString:
		return store.StringV("x")
	default:
		if field {
			return store.IntV(p.fieldInt)
		}
		return store.IntV(p.argInt)
	}
}

// seedRow is one initial record under construction.
type seedRow struct {
	fields map[string]store.Value
}

// instItem locates a schedule item by (instance, static command index).
type instItem struct {
	inst, idx int
}

// lowering is the half of lowering a schedule that no defaults profile can
// change: the model's equality classes with their values, and the
// interleaving and visibility. The attempt ladder computes it once per pair.
type lowering struct {
	prog     *ast.Program
	sched    *anomaly.Schedule
	txns     [2]*ast.Txn
	cls      *classes
	info     map[string]*classInfo
	argClass map[argKey]string
	pinsOf   map[instItem][]anomaly.KeyPin
	pool     *freshPool // after valuing the classes; each profile continues a copy
	nCmds    [2]int
	steps    []cluster.DirectedStep
	vis      func(fi, fc, ti, tc int) bool
}

// newLowering values a witness schedule's equality classes. A non-empty
// reason means the schedule is structurally not runnable against this
// program, under any profile.
func newLowering(prog *ast.Program, sched *anomaly.Schedule) (*lowering, string) {
	l := &lowering{prog: prog, sched: sched, cls: newClasses(), pool: newFreshPool()}
	l.txns[0] = prog.Txn(sched.TxnA)
	l.txns[1] = prog.Txn(sched.TxnB)
	if l.txns[0] == nil || l.txns[1] == nil {
		return nil, "transaction missing from program"
	}
	for inst := range l.txns {
		l.nCmds[inst] = len(ast.Commands(l.txns[inst].Body))
	}

	// Phase 1: equality classes. The model's true equality atoms merge term
	// classes; pins of the same (instance, parameter) merge too, because one
	// argument has one runtime value.
	cls := l.cls
	for _, eq := range sched.Eqs {
		if eq.Equal {
			cls.union(eq.A, eq.B)
		}
	}
	l.argClass = map[argKey]string{}
	for _, it := range sched.Items {
		for _, p := range it.Pins {
			if a, ok := p.Expr.(*ast.Arg); ok {
				k := argKey{it.Inst, a.Name}
				if prev, ok := l.argClass[k]; ok {
					cls.union(prev, p.Term)
				} else {
					l.argClass[k] = p.Term
				}
			}
		}
	}

	// Phase 2: per-class info — types from the pinned schema fields, forced
	// values from statically evaluable pin expressions.
	l.info = map[string]*classInfo{}
	at := func(term string) *classInfo {
		r := cls.find(term)
		ci := l.info[r]
		if ci == nil {
			ci = &classInfo{}
			l.info[r] = ci
		}
		return ci
	}
	for _, it := range sched.Items {
		schema := prog.Schema(it.Table)
		for _, p := range it.Pins {
			ci := at(p.Term)
			if schema != nil {
				if f := schema.Field(p.Field); f != nil && !ci.typOK {
					ci.typ, ci.typOK = f.Type, true
				}
			}
			if p.Kind == anomaly.TermUUID {
				ci.uuid = true
				continue
			}
			if v, ok := evalStatic(p.Expr, nil); ok {
				l.pool.note(v)
				// Conflicting constants in one class mean the model valued
				// per-sort equality atoms inconsistently across sorts (the
				// encoding has no cross-sort congruence axiom); keep the
				// first value and let the dynamic check judge the run.
				if !ci.forced {
					ci.forced, ci.val, ci.hasVal = true, v, true
				}
			}
		}
	}

	// Phase 3: value every non-uuid class, forced first (already valued),
	// then fresh per type in deterministic root order.
	roots := make([]string, 0, len(l.info))
	for r := range l.info {
		roots = append(roots, r)
	}
	sort.Strings(roots)
	for _, r := range roots {
		ci := l.info[r]
		if ci.uuid {
			if ci.forced {
				return nil, fmt.Sprintf("class %s merges uuid() with a constant", r)
			}
			continue
		}
		if !ci.hasVal {
			t := ast.TInt
			if ci.typOK {
				t = ci.typ
			}
			ci.val, ci.hasVal = l.pool.fresh(t), true
		}
	}

	// The model's false equality atoms need no enforcement: unforced classes
	// take distinct fresh values anyway, and a disequality a merge or forced
	// constant violates is a per-sort valuation the encoding never required
	// to be congruent across sorts. Making more terms coincide only grows
	// the run's aliasing — it cannot unmake the claimed edges, and the
	// dynamic cycle check is the final arbiter.

	l.pinsOf = map[instItem][]anomaly.KeyPin{}
	for _, it := range sched.Items {
		l.pinsOf[instItem{it.Inst, it.Idx}] = it.Pins
	}

	// Interleaving and visibility straight off the model.
	for _, g := range sched.Order {
		inst, idx := sched.ItemAt(g)
		l.steps = append(l.steps, cluster.DirectedStep{Inst: inst, Cmd: idx})
	}
	gidx := map[instItem]int{}
	for g := range sched.Items {
		inst, idx := sched.ItemAt(g)
		gidx[instItem{inst, idx}] = g
	}
	vis := sched.Vis
	l.vis = func(fi, fc, ti, tc int) bool {
		gf, ok1 := gidx[instItem{fi, fc}]
		gt, ok2 := gidx[instItem{ti, tc}]
		return ok1 && ok2 && vis[gf][gt]
	}
	return l, ""
}

// classVal is the value lowering gave a term's class, if it has one.
func (l *lowering) classVal(term string) (store.Value, bool) {
	ci := l.info[l.cls.find(term)]
	if ci == nil || ci.uuid || !ci.hasVal {
		return store.Value{}, false
	}
	return ci.val, true
}

// under makes the schedule concrete under one defaults profile: arguments
// and seeded rows for everything the model left free.
func (l *lowering) under(prof profile) *lowered {
	// Arguments. Parameters pinned to a class take its value; everything
	// else defaults by declared type.
	var args [2]map[string]store.Value
	for inst := 0; inst < 2; inst++ {
		args[inst] = map[string]store.Value{}
		for _, p := range l.txns[inst].Params {
			if cl, ok := l.argClass[argKey{inst, p.Name}]; ok {
				if v, ok := l.classVal(cl); ok {
					args[inst][p.Name] = v
					continue
				}
			}
			args[inst][p.Name] = prof.defaultValue(p.Type, false)
		}
	}

	// Seed rows so every select/update key actually denotes a record, with
	// class values winning over static evaluation (they carry the model's
	// aliasing), then back-propagate at(x.f)-pinned values into the rows the
	// binding selects return.
	rows, itemRow := seedRows(l.prog, l.txns, args, l.pinsOf, l.classVal)
	backpropagate(l.txns, l.pinsOf, l.classVal, itemRow)
	inserts := insertKeyVals(l.prog, l.txns, args, l.pinsOf, l.classVal)

	return &lowered{
		Cfg: cluster.DirectedConfig{
			Txns: [2]cluster.DirectedTxn{
				{Name: l.sched.TxnA, Args: args[0]},
				{Name: l.sched.TxnB, Args: args[1]},
			},
			Steps: l.steps,
			Vis:   l.vis,
		},
		Rows:  finalizeRows(l.prog, rows, l.pool.clone(), prof, inserts),
		prof:  prof,
		nCmds: l.nCmds,
	}
}

// seedRows builds the initial population: one pass over both transactions'
// selects and updates, each contributing its key pins (class values) plus
// any statically evaluable where conjunct, greedily merged into rows that
// agree on primary-key fields. classVal may be nil (projection lowering for
// a repaired program, where no model classes exist).
func seedRows(
	prog *ast.Program,
	txns [2]*ast.Txn,
	args [2]map[string]store.Value,
	pinsOf map[instItem][]anomaly.KeyPin,
	classVal func(string) (store.Value, bool),
) (map[string][]*seedRow, map[instItem]*seedRow) {
	rows := map[string][]*seedRow{}
	itemRow := map[instItem]*seedRow{}
	for inst := 0; inst < 2; inst++ {
		for ci, c := range ast.Commands(txns[inst].Body) {
			var where ast.Expr
			switch x := c.(type) {
			case *ast.Select:
				where = x.Where
			case *ast.Update:
				where = x.Where
			default:
				continue // inserts create their records at runtime
			}
			schema := prog.Schema(c.TableName())
			if schema == nil {
				continue
			}
			pinVals := map[string]store.Value{}
			if classVal != nil {
				for _, p := range pinsOf[instItem{inst, ci}] {
					if v, ok := classVal(p.Term); ok {
						pinVals[p.Field] = v
					}
				}
			}
			if eqs, ok := ast.WhereEqualities(where); ok {
				for _, q := range eqs {
					if _, have := pinVals[q.Field]; have {
						continue
					}
					if v, ok := evalStatic(q.Expr, args[inst]); ok {
						pinVals[q.Field] = v
					}
				}
			}
			pk := map[string]bool{}
			for _, f := range schema.PrimaryKey() {
				pk[f.Name] = true
			}
			row := mergeRow(rows, c.TableName(), pk, pinVals)
			itemRow[instItem{inst, ci}] = row
		}
	}
	return rows, itemRow
}

// mergeRow finds the first existing row of the table whose set primary-key
// fields are compatible with vals (equal wherever both are set) and merges
// vals in; otherwise it starts a new row. Non-key conflicts keep the first
// value — the run may then fail to reproduce, which certification reports.
func mergeRow(rows map[string][]*seedRow, table string, pk map[string]bool, vals map[string]store.Value) *seedRow {
	var target *seedRow
	for _, r := range rows[table] {
		ok := true
		for f, v := range vals {
			if !pk[f] {
				continue
			}
			if have, set := r.fields[f]; set && !have.Equal(v) {
				ok = false
				break
			}
		}
		if ok {
			target = r
			break
		}
	}
	if target == nil {
		target = &seedRow{fields: map[string]store.Value{}}
		rows[table] = append(rows[table], target)
	}
	for _, f := range mapsKeys(vals) {
		if _, set := target.fields[f]; !set {
			target.fields[f] = vals[f]
		}
	}
	return target
}

func mapsKeys(m map[string]store.Value) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// backpropagate pushes at(x.f)- and agg(x.f)-pinned class values into the
// row the binding select returns: if a later key equals the value some
// select read, the seeded record must hold that value in that field.
func backpropagate(
	txns [2]*ast.Txn,
	pinsOf map[instItem][]anomaly.KeyPin,
	classVal func(string) (store.Value, bool),
	itemRow map[instItem]*seedRow,
) {
	if classVal == nil {
		return
	}
	for inst := 0; inst < 2; inst++ {
		cmds := ast.Commands(txns[inst].Body)
		for ci := range cmds {
			for _, p := range pinsOf[instItem{inst, ci}] {
				var srcVar, srcField string
				switch x := p.Expr.(type) {
				case *ast.FieldAt:
					srcVar, srcField = x.Var, x.Field
				case *ast.Agg:
					if x.Fn == ast.AggCount {
						continue
					}
					srcVar, srcField = x.Var, x.Field
				default:
					continue
				}
				v, ok := classVal(p.Term)
				if !ok {
					continue
				}
				// The binding select is the last earlier select into srcVar.
				for j := ci - 1; j >= 0; j-- {
					sel, ok := cmds[j].(*ast.Select)
					if !ok || sel.Var != srcVar {
						continue
					}
					if row := itemRow[instItem{inst, j}]; row != nil {
						if _, set := row.fields[srcField]; !set {
							row.fields[srcField] = v
						}
					}
					break
				}
			}
		}
	}
}

// insertKeyVals collects, per (table, primary-key field), the values the
// transactions' inserts will write — from the model class of the pin when
// it has one, else static evaluation. finalizeRows aligns otherwise
// unconstrained seeded keys with these so a seeded record and a runtime
// insert can denote the same record (an update scanning three of four key
// fields then collides with the insert on the fourth).
func insertKeyVals(
	prog *ast.Program,
	txns [2]*ast.Txn,
	args [2]map[string]store.Value,
	pinsOf map[instItem][]anomaly.KeyPin,
	classVal func(string) (store.Value, bool),
) map[string]map[string][]store.Value {
	out := map[string]map[string][]store.Value{}
	for inst := 0; inst < 2; inst++ {
		for ci, c := range ast.Commands(txns[inst].Body) {
			ins, ok := c.(*ast.Insert)
			if !ok {
				continue
			}
			for _, p := range pinsOf[instItem{inst, ci}] {
				v, ok := store.Value{}, false
				if classVal != nil {
					v, ok = classVal(p.Term)
				}
				if !ok {
					v, ok = evalStatic(p.Expr, args[inst])
				}
				if !ok {
					continue
				}
				t := ins.TableName()
				if out[t] == nil {
					out[t] = map[string][]store.Value{}
				}
				out[t][p.Field] = append(out[t][p.Field], v)
			}
		}
	}
	return out
}

// finalizeRows fills unset primary-key fields — aligning with insert key
// values where possible, fresh otherwise — defaults the remaining schema
// fields, and dedupes rows that converged onto one key.
func finalizeRows(prog *ast.Program, rows map[string][]*seedRow, pool *freshPool, prof profile, inserts map[string]map[string][]store.Value) []store.TableRow {
	var out []store.TableRow
	tables := make([]string, 0, len(rows))
	for t := range rows {
		tables = append(tables, t)
	}
	sort.Strings(tables)
	for _, t := range tables {
		schema := prog.Schema(t)
		if schema == nil {
			continue
		}
		seen := map[store.Key]int{}
		for _, r := range rows[t] {
			for _, f := range schema.PrimaryKey() {
				if _, set := r.fields[f.Name]; !set {
					if vs := inserts[t][f.Name]; len(vs) > 0 {
						r.fields[f.Name] = vs[0]
					} else {
						r.fields[f.Name] = pool.fresh(f.Type)
					}
				}
			}
			for _, f := range schema.Fields {
				if f.Name == ast.AliveField {
					continue
				}
				if _, set := r.fields[f.Name]; !set {
					r.fields[f.Name] = prof.defaultValue(f.Type, true)
				}
			}
			keyVals := make([]store.Value, 0, 2)
			for _, f := range schema.PrimaryKey() {
				keyVals = append(keyVals, r.fields[f.Name])
			}
			key := store.MakeKey(keyVals...)
			if i, dup := seen[key]; dup {
				// Same record: merge, earlier row's values win.
				prev := out[i].Row
				for f, v := range r.fields {
					if _, set := prev[f]; !set {
						prev[f] = v
					}
				}
				continue
			}
			row := store.Row{}
			for f, v := range r.fields {
				row[f] = v
			}
			seen[key] = len(out)
			out = append(out, store.TableRow{Table: t, Row: row})
		}
	}
	return out
}

// lowerProjected maps a witness schedule onto a *different* program — the
// repaired one — by positional projection: the slot sequence keeps the
// model's instance interleaving pattern, successive static commands of the
// repaired transactions fill their instance's slots in order, and each
// repaired command inherits the visibility row of the original item at its
// position (overflow commands clamp to the last item). The projection is a
// heuristic alignment — refactorings add, merge, and split commands — but
// the produced run is a genuine execution of the consistency semantics, so
// the certified property (a fully repaired program admits no violation on
// it) does not depend on the alignment being tight.
func lowerProjected(prog *ast.Program, sched *anomaly.Schedule, orig *lowered) (*lowered, string) {
	prof := orig.prof
	var txns [2]*ast.Txn
	txns[0] = prog.Txn(sched.TxnA)
	txns[1] = prog.Txn(sched.TxnB)
	if txns[0] == nil || txns[1] == nil {
		return nil, "transaction missing from repaired program"
	}
	// Keep only arguments the repaired transaction still declares; default
	// any it gained.
	var pargs [2]map[string]store.Value
	for inst := 0; inst < 2; inst++ {
		pargs[inst] = map[string]store.Value{}
		for _, p := range txns[inst].Params {
			if v, ok := orig.Cfg.Txns[inst].Args[p.Name]; ok && v.T == p.Type {
				pargs[inst][p.Name] = v
			} else {
				pargs[inst][p.Name] = prof.defaultValue(p.Type, false)
			}
		}
	}
	rows, _ := seedRows(prog, txns, pargs, nil, nil)
	low := &lowered{Rows: finalizeRows(prog, rows, newFreshPool(), prof, nil), prof: prof}
	cfg := &low.Cfg
	cfg.Txns = [2]cluster.DirectedTxn{
		{Name: sched.TxnA, Args: pargs[0]},
		{Name: sched.TxnB, Args: pargs[1]},
	}
	// origSeq[inst] is the instance's items in model order; repaired command
	// j of that instance aligns with origSeq[inst][min(j, last)].
	var origSeq [2][]int
	for _, g := range sched.Order {
		inst, _ := sched.ItemAt(g)
		origSeq[inst] = append(origSeq[inst], g)
	}
	for inst := 0; inst < 2; inst++ {
		if len(origSeq[inst]) == 0 {
			return nil, "instance absent from schedule"
		}
		low.nCmds[inst] = len(ast.Commands(txns[inst].Body))
	}
	var next [2]int
	for _, g := range sched.Order {
		inst, _ := sched.ItemAt(g)
		if next[inst] < low.nCmds[inst] {
			cfg.Steps = append(cfg.Steps, cluster.DirectedStep{Inst: inst, Cmd: next[inst]})
			next[inst]++
		}
	}
	align := func(inst, cmd int) int {
		seq := origSeq[inst]
		if cmd >= len(seq) {
			return seq[len(seq)-1]
		}
		return seq[cmd]
	}
	vis := sched.Vis
	cfg.Vis = func(fi, fc, ti, tc int) bool {
		if fi == ti {
			return false
		}
		return vis[align(fi, fc)][align(ti, tc)]
	}
	return low, ""
}

// minimalVis replaces a lowered configuration's visibility with exactly
// what the model's two cycle edges require: true for each wr edge's
// (writer → reader) entry, false everywhere else (rw edges require absence,
// ww edges only order). The model's remaining vis entries are not needed
// by the cycle — free for the replayer — and an all-closed default keeps
// both instances reading the seeded state, so key expressions derived from
// reads evaluate identically on both sides.
func minimalVis(low *lowered, sched *anomaly.Schedule) cluster.DirectedConfig {
	type entry struct{ from, to instItem }
	var wants []entry
	for _, e := range []anomaly.SchedEdge{sched.Edge1, sched.Edge2} {
		if e.Kind != anomaly.EdgeWR {
			continue
		}
		fi, fc := sched.ItemAt(e.From)
		ti, tc := sched.ItemAt(e.To)
		wants = append(wants, entry{instItem{fi, fc}, instItem{ti, tc}})
	}
	cfg := low.Cfg
	cfg.Vis = func(fi, fc, ti, tc int) bool {
		for _, w := range wants {
			if w.from == (instItem{fi, fc}) && w.to == (instItem{ti, tc}) {
				return true
			}
		}
		return false
	}
	return cfg
}

// splitMode selects a canonical interleaving template's visibility shape.
type splitMode int

const (
	// splitHidden: neither instance sees the other — lost-update and
	// write-skew shapes (conflicts manifest as ww/rw).
	splitHidden splitMode = iota
	// splitPrefixVis: B sees A's commands up to and including c1 — the
	// dirty-read shape (B observes A's intermediate state).
	splitPrefixVis
	// splitTailVis: A's commands after c1 see all of B — the
	// non-repeatable-read shape (A re-reads state B changed in between).
	splitTailVis
	// splitBothVis: both of the above.
	splitBothVis
)

// splitConfig builds the canonical interleaving for an access pair: A runs
// through its command i1, then all of B, then the rest of A. With the
// pair's two commands on opposite sides of B, every conflict between them
// and B's commands realizes a cycle through the pair — the non-atomic
// visibility the pair claims — while all key reads resolve against the
// seeded state (plus the granted views), sidestepping data-flow divergence
// the exact model schedule can force.
func splitConfig(low *lowered, i1 int, mode splitMode) cluster.DirectedConfig {
	cfg := low.Cfg
	cfg.Steps = nil
	nA, nB := low.nCmds[0], low.nCmds[1]
	for c := 0; c <= i1 && c < nA; c++ {
		cfg.Steps = append(cfg.Steps, cluster.DirectedStep{Inst: 0, Cmd: c})
	}
	for d := 0; d < nB; d++ {
		cfg.Steps = append(cfg.Steps, cluster.DirectedStep{Inst: 1, Cmd: d})
	}
	for c := i1 + 1; c < nA; c++ {
		cfg.Steps = append(cfg.Steps, cluster.DirectedStep{Inst: 0, Cmd: c})
	}
	cfg.Vis = func(fi, fc, ti, tc int) bool {
		prefix := fi == 0 && ti == 1 && fc <= i1
		tail := fi == 1 && ti == 0 && tc > i1
		switch mode {
		case splitPrefixVis:
			return prefix
		case splitTailVis:
			return tail
		case splitBothVis:
			return prefix || tail
		default:
			return false
		}
	}
	return cfg
}

// serialConfig builds the strongly consistent replay of a lowering's
// inputs: both instances run serially in the given order, the second seeing
// everything the first committed — the SC execution the certificate
// contrasts the anomalous schedule against.
func serialConfig(low *lowered, first int) cluster.DirectedConfig {
	cfg := low.Cfg
	cfg.Steps = nil
	second := 1 - first
	for _, inst := range []int{first, second} {
		for ci := 0; ci < low.nCmds[inst]; ci++ {
			cfg.Steps = append(cfg.Steps, cluster.DirectedStep{Inst: inst, Cmd: ci})
		}
	}
	cfg.Vis = func(fi, _, ti, _ int) bool { return fi == first && ti == second }
	return cfg
}
