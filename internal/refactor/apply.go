package refactor

import (
	"fmt"
	"slices"

	"atropos/internal/ast"
)

// Error describes why a refactoring rule does not apply.
type Error struct {
	Rule string
	Msg  string
}

func (e *Error) Error() string { return "refactor: " + e.Rule + ": " + e.Msg }

// AppendTo appends e.Error()'s text to dst.
func (e *Error) AppendTo(dst []byte) []byte {
	dst = append(dst, "refactor: "...)
	dst = append(dst, e.Rule...)
	dst = append(dst, ": "...)
	return append(dst, e.Msg...)
}

func errf(rule, format string, args ...any) *Error {
	return &Error{Rule: rule, Msg: fmt.Sprintf(format, args...)}
}

// IntroSchema implements the (intro ρ) rule: add a fresh, empty schema.
// The returned program is a copy; p is not modified.
func IntroSchema(p *ast.Program, name string) (*ast.Program, error) {
	if p.Schema(name) != nil {
		return nil, errf("intro-schema", "schema %q already exists", name)
	}
	return cowIntroSchema(p, &ast.Schema{Name: name}), nil
}

// IntroField implements the (intro ρ.f) rule: add a fresh field to an
// existing schema. The returned program is a copy.
func IntroField(p *ast.Program, table string, field ast.Field) (*ast.Program, error) {
	s := p.Schema(table)
	if s == nil {
		return nil, errf("intro-field", "unknown schema %q", table)
	}
	if s.HasField(field.Name) {
		return nil, errf("intro-field", "schema %s already has field %q", table, field.Name)
	}
	if len(s.Fields) >= ast.MaxFields {
		return nil, errf("intro-field", "schema %s already has %d fields, the most a table may have", table, len(s.Fields))
	}
	return cowIntroField(p, table, field), nil
}

// ApplyCorr implements the (intro v) rule: rewrite every access to
// (v.SrcTable, v.SrcField) to use (v.DstTable, v.DstField) per the
// redirect rule (Agg = any) or logger rule (Agg = sum, Logging = true) of
// Fig. 17. It validates the rule's side conditions (R1–R3 preconditions)
// on every transaction before it rewrites any, and returns a rewritten
// copy of the program, or an error describing the first failing condition
// in program order.
func ApplyCorr(p *ast.Program, v ValueCorr) (*ast.Program, error) {
	src := p.Schema(v.SrcTable)
	if src == nil {
		return nil, errf("intro-v", "unknown source schema %q", v.SrcTable)
	}
	if src.Field(v.SrcField) == nil {
		return nil, errf("intro-v", "unknown source field %s.%s", v.SrcTable, v.SrcField)
	}
	dst := p.Schema(v.DstTable)
	if dst == nil {
		return nil, errf("intro-v", "unknown destination schema %q", v.DstTable)
	}
	if dst.Field(v.DstField) == nil {
		return nil, errf("intro-v", "unknown destination field %s.%s", v.DstTable, v.DstField)
	}
	for _, pk := range src.PrimaryKey() {
		g, ok := v.Theta[pk.Name]
		if !ok {
			return nil, errf("intro-v", "θ̂ does not map primary-key field %s.%s", v.SrcTable, pk.Name)
		}
		if dst.Field(g) == nil {
			return nil, errf("intro-v", "θ̂ maps %s to unknown field %s.%s", pk.Name, v.DstTable, g)
		}
	}
	if v.Logging && v.Agg != ast.AggSum {
		return nil, errf("intro-v", "logger rule requires the sum aggregator")
	}
	if !v.Logging && v.Agg != ast.AggAny {
		return nil, errf("intro-v", "redirect rule requires the any aggregator")
	}
	return cowApplyCorr(p, src, v)
}

// validateRewriteTxn is pass 1 of [[·]]_v on one transaction: find the
// variables bound by selects that will be redirected, and validate that
// every access to (SrcTable, SrcField) is rewritable. Pure reads. touched
// reports whether any command accesses (SrcTable, SrcField); the returned
// set is nil when no variable is redirected.
func validateRewriteTxn(t *ast.Txn, src *ast.Schema, v ValueCorr) (redirected map[string]bool, touched bool, err error) {
	for _, c := range t.Commands() {
		if c.TableName() != v.SrcTable {
			continue
		}
		acc := ast.CommandAccess(c, src)
		if !slices.Contains(acc.Reads, v.SrcField) && !slices.Contains(acc.Writes, v.SrcField) {
			continue
		}
		touched = true
		switch x := c.(type) {
		case *ast.Select:
			if x.Star {
				return nil, true, errf("intro-v", "%s.%s: cannot redirect SELECT * (narrow the selection first)", t.Name, x.Label)
			}
			if len(x.Fields) != 1 {
				return nil, true, errf("intro-v", "%s.%s: select accesses %v; split so it accesses only %s", t.Name, x.Label, x.Fields, v.SrcField)
			}
			if !whereRedirectable(x, src, v) {
				return nil, true, errf("intro-v", "%s.%s: where clause is not redirectable through θ̂", t.Name, x.Label)
			}
			if redirected == nil {
				redirected = map[string]bool{}
			}
			redirected[x.Var] = true
		case *ast.Update:
			if len(x.Sets) != 1 || x.Sets[0].Field != v.SrcField {
				return nil, true, errf("intro-v", "%s.%s: update sets multiple fields; split first", t.Name, x.Label)
			}
			if !whereRedirectable(x, src, v) {
				return nil, true, errf("intro-v", "%s.%s: where clause is not redirectable through θ̂", t.Name, x.Label)
			}
			if slices.Contains(ast.CommandWhereFields(x), v.SrcField) {
				return nil, true, errf("intro-v", "%s.%s: where clause reads the moved field", t.Name, x.Label)
			}
		case *ast.Insert:
			return nil, true, errf("intro-v", "%s.%s: inserts into the source schema are not redirectable", t.Name, x.Label)
		}
	}
	return redirected, touched, nil
}

// redirectedAccessRewriter builds pass 3's expression rewriter: accesses
// through redirected variables are retargeted to the destination field
// (R2). It reports failures through *rerr. Like every ast.MapExprCOW
// rewriter, it returns its argument unchanged to signal "no rewrite".
func redirectedAccessRewriter(t *ast.Txn, v ValueCorr, redirected map[string]bool, rerr *error) func(ast.Expr) ast.Expr {
	return func(x ast.Expr) ast.Expr {
		switch fa := x.(type) {
		case *ast.FieldAt:
			if redirected[fa.Var] && fa.Field == v.SrcField {
				if v.Logging {
					if fa.Index != nil {
						*rerr = errf("intro-v", "%s: indexed access %s cannot be rewritten under the logger rule", t.Name, ast.ExprString(fa))
						return x
					}
					return &ast.Agg{Fn: ast.AggSum, Var: fa.Var, Field: v.DstField}
				}
				return &ast.FieldAt{Var: fa.Var, Field: v.DstField, Index: fa.Index}
			}
		case *ast.Agg:
			if redirected[fa.Var] && fa.Field == v.SrcField {
				// Under logging only sum survives: one source record maps
				// to many log rows, so count/min/max/any would aggregate
				// over log entries rather than records.
				if v.Logging && fa.Fn != ast.AggSum {
					*rerr = errf("intro-v", "%s: %s aggregation cannot be rewritten under the logger rule", t.Name, ast.ExprString(fa))
					return x
				}
				return &ast.Agg{Fn: fa.Fn, Var: fa.Var, Field: v.DstField}
			}
		}
		return x
	}
}

// redirectWhere implements redirect(φ, θ̂) (§4.2.1) on c's where clause φ:
// the well-formed clause's primary-key equalities become equalities on the
// θ̂-image fields. As a generalization, a clause that is not a full
// key-equality conjunction (e.g. a range scan) is still redirectable when
// every field it references is θ̂-mapped: each this.f is replaced by
// this.θ̂(f).
func redirectWhere(c ast.DBCommand, src *ast.Schema, v ValueCorr) (ast.Expr, error) {
	if pins, ok := ast.CommandWellFormed(c, src); ok {
		var out ast.Expr
		for _, pk := range src.PrimaryKey() {
			conj := &ast.Binary{
				Op: ast.OpEq,
				L:  &ast.ThisField{Field: v.Theta[pk.Name]},
				R:  pins.Of(pk.Name),
			}
			if out == nil {
				out = conj
			} else {
				out = &ast.Binary{Op: ast.OpAnd, L: out, R: conj}
			}
		}
		return out, nil
	}
	w := ast.WhereOf(c)
	for _, f := range ast.CommandWhereFields(c) {
		if _, ok := v.Theta[f]; !ok {
			return nil, errf("intro-v", "where clause %q references un-mapped field %q", ast.ExprString(w), f)
		}
	}
	out := ast.MapExprCOW(w, func(e ast.Expr) ast.Expr {
		if tf, ok := e.(*ast.ThisField); ok {
			return &ast.ThisField{Field: v.Theta[tf.Field]}
		}
		return e
	})
	return out, nil
}

// whereRedirectable reports whether c's where clause can be translated by
// redirectWhere: either well-formed (full key-equality conjunction) or
// referencing only θ̂-mapped fields.
func whereRedirectable(c ast.DBCommand, src *ast.Schema, v ValueCorr) bool {
	if _, ok := ast.CommandWellFormed(c, src); ok {
		return true
	}
	for _, f := range ast.CommandWhereFields(c) {
		if _, ok := v.Theta[f]; !ok {
			return false
		}
	}
	return true
}

// rewriteUpdate rewrites an update of the moved field: the redirect rule
// retargets it; the logger rule turns increment-shaped updates into inserts
// (Fig. 11: U4.1 becomes an insert into COURSE_CO_ST_CNT_LOG).
func rewriteUpdate(x *ast.Update, src *ast.Schema, v ValueCorr, t *ast.Txn) (ast.Stmt, error) {
	if !v.Logging {
		nw, err := redirectWhere(x, src, v)
		if err != nil {
			return nil, err
		}
		return &ast.Update{
			Label: x.Label, Table: v.DstTable,
			Sets:  []ast.Assign{{Field: v.DstField, Expr: x.Sets[0].Expr}},
			Where: nw,
		}, nil
	}
	delta, err := incrementDelta(x, v, t)
	if err != nil {
		return nil, err
	}
	pins, ok := ast.CommandWellFormed(x, src)
	if !ok {
		return nil, errf("intro-v", "%s: where clause is not a primary-key equality conjunction", x.Label)
	}
	values := []ast.Assign{}
	for _, pk := range src.PrimaryKey() {
		values = append(values, ast.Assign{Field: v.Theta[pk.Name], Expr: pins.Of(pk.Name)})
	}
	values = append(values,
		ast.Assign{Field: ast.LogIDField, Expr: &ast.UUID{}},
		ast.Assign{Field: v.DstField, Expr: delta},
	)
	return &ast.Insert{Label: x.Label, Table: v.DstTable, Values: values}, nil
}

// incrementDelta recognizes the increment shapes f = e + at1(x.f),
// f = at1(x.f) + e, and f = at1(x.f) - e, where x was selected from the
// same record (equal where clause), and returns the logged delta.
func incrementDelta(x *ast.Update, v ValueCorr, t *ast.Txn) (ast.Expr, error) {
	bin, ok := x.Sets[0].Expr.(*ast.Binary)
	if !ok || (bin.Op != ast.OpAdd && bin.Op != ast.OpSub) {
		return nil, errf("intro-v", "%s: assignment %q is not increment-shaped", x.Label, ast.ExprString(x.Sets[0].Expr))
	}
	isSelfRead := func(e ast.Expr) (string, bool) {
		fa, ok := e.(*ast.FieldAt)
		if !ok || fa.Index != nil || fa.Field != v.SrcField {
			return "", false
		}
		return fa.Var, true
	}
	var varName string
	var delta ast.Expr
	neg := false
	if vn, ok := isSelfRead(bin.L); ok {
		varName, delta = vn, bin.R
		neg = bin.Op == ast.OpSub
	} else if vn, ok := isSelfRead(bin.R); ok && bin.Op == ast.OpAdd {
		varName, delta = vn, bin.L
	} else {
		return nil, errf("intro-v", "%s: assignment %q is not increment-shaped", x.Label, ast.ExprString(x.Sets[0].Expr))
	}
	// The self-read variable must come from a select on the same record.
	sel := ast.FindSelect(t, varName)
	if sel == nil || sel.Table != v.SrcTable || !ast.EqualExpr(sel.Where, x.Where) {
		return nil, errf("intro-v", "%s: %s.%s is not a read of the updated record", x.Label, varName, v.SrcField)
	}
	// The delta may read the moved field (through this or other selects):
	// those accesses are values at insert time, and the expression-rewrite
	// pass redirects them to log sums. Only the top-level occurrence is
	// consumed by the increment shape.
	if neg {
		delta = &ast.Binary{Op: ast.OpSub, L: &ast.IntLit{Val: 0}, R: delta}
	}
	return delta, nil
}

// BuildLoggerSchema introduces the logging schema for (srcTable, srcField)
// per §4.2.2 — primary key = source primary key + log_id, single value
// field — and returns the extended program together with the logger
// correspondence. The schema is built as one node, under the checks of
// IntroSchema followed by one IntroField per field.
func BuildLoggerSchema(p *ast.Program, srcTable, srcField string) (*ast.Program, ValueCorr, error) {
	src := p.Schema(srcTable)
	if src == nil {
		return nil, ValueCorr{}, errf("intro-schema", "unknown schema %q", srcTable)
	}
	f := src.Field(srcField)
	if f == nil {
		return nil, ValueCorr{}, errf("intro-schema", "unknown field %s.%s", srcTable, srcField)
	}
	if f.Type != ast.TInt {
		return nil, ValueCorr{}, errf("intro-schema", "logger rule requires an int field, %s.%s is %s", srcTable, srcField, f.Type)
	}
	logName := LogTableName(p, srcTable, srcField)
	if p.Schema(logName) != nil {
		return nil, ValueCorr{}, errf("intro-schema", "schema %q already exists", logName)
	}
	pks := src.PrimaryKey()
	valField := LogFieldName(srcField)
	block := make([]ast.Field, 0, len(pks)+2)
	theta := make(map[string]string, len(pks))
	for _, pk := range pks {
		block = append(block, ast.Field{Name: pk.Name, Type: pk.Type, PK: true})
		theta[pk.Name] = pk.Name
	}
	block = append(block,
		ast.Field{Name: ast.LogIDField, Type: ast.TInt, PK: true},
		ast.Field{Name: valField, Type: ast.TInt})
	fields := make([]*ast.Field, len(block))
	for i := range block {
		if slices.ContainsFunc(fields[:i], func(g *ast.Field) bool { return g.Name == block[i].Name }) {
			return nil, ValueCorr{}, errf("intro-field", "schema %s already has field %q", logName, block[i].Name)
		}
		if i >= ast.MaxFields {
			return nil, ValueCorr{}, errf("intro-field", "schema %s already has %d fields, the most a table may have", logName, i)
		}
		fields[i] = &block[i]
	}
	corr := ValueCorr{
		SrcTable: srcTable, SrcField: srcField,
		DstTable: logName, DstField: valField,
		Theta: theta, Agg: ast.AggSum, Logging: true,
	}
	return cowIntroSchema(p, &ast.Schema{Name: logName, Fields: fields}), corr, nil
}
