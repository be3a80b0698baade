// Package sema implements the semantic checker for database programs:
// schema well-formedness (non-empty primary keys, reserved names), variable
// definition-before-use, field resolution, and expression typing. Programs
// that pass Check are safe inputs for the interpreter, the anomaly detector,
// and the refactoring engine.
package sema

import (
	"fmt"

	"atropos/internal/ast"
	"atropos/internal/parser"
)

// Error is a semantic error, tagged with the enclosing declaration.
type Error struct {
	Where string // "table T" / "txn t"
	Msg   string
}

func (e *Error) Error() string { return fmt.Sprintf("%s: %s", e.Where, e.Msg) }

// Load parses DSL source and checks it: the one way text becomes a program
// the rest of the pipeline accepts.
func Load(src string) (*ast.Program, error) {
	p, err := parser.Parse(src)
	if err != nil {
		return nil, fmt.Errorf("parse: %w", err)
	}
	if err := Check(p); err != nil {
		return nil, fmt.Errorf("check: %w", err)
	}
	return p, nil
}

// Check validates the whole program, returning the first error found.
func Check(p *ast.Program) error {
	for _, s := range p.Schemas {
		if err := checkSchema(s); err != nil {
			return err
		}
	}
	for _, t := range p.Txns {
		if err := checkTxn(p, t); err != nil {
			return err
		}
	}
	return nil
}

func checkSchema(s *ast.Schema) error {
	where := "table " + s.Name
	if len(s.Fields) == 0 {
		return &Error{where, "schema has no fields"}
	}
	seen := map[string]bool{}
	for _, f := range s.Fields {
		if f.Name == ast.AliveField {
			return &Error{where, "field name 'alive' is reserved (implicit presence field)"}
		}
		if seen[f.Name] {
			return &Error{where, fmt.Sprintf("duplicate field %q", f.Name)}
		}
		seen[f.Name] = true
	}
	if len(s.PrimaryKey()) == 0 {
		return &Error{where, "schema has no primary key field"}
	}
	return nil
}

// varBinding records what a SELECT bound: the table and the set of fields
// available through the variable.
type varBinding struct {
	table  *ast.Schema
	fields map[string]ast.Type
}

type checker struct {
	prog  *ast.Program
	txn   *ast.Txn
	vars  map[string]*varBinding
	depth int // iterate nesting depth; iter is only legal when > 0
}

func checkTxn(p *ast.Program, t *ast.Txn) error {
	c := &checker{prog: p, txn: t, vars: map[string]*varBinding{}}
	where := "txn " + t.Name
	seen := map[string]bool{}
	for _, pr := range t.Params {
		if seen[pr.Name] {
			return &Error{where, fmt.Sprintf("duplicate parameter %q", pr.Name)}
		}
		seen[pr.Name] = true
	}
	if err := c.checkStmts(t.Body); err != nil {
		return &Error{where, err.Error()}
	}
	if t.Ret != nil {
		if _, err := c.typeOf(t.Ret); err != nil {
			return &Error{where, fmt.Sprintf("return: %v", err)}
		}
	}
	return nil
}

func (c *checker) checkStmts(body []ast.Stmt) error {
	for _, s := range body {
		if err := c.checkStmt(s); err != nil {
			return err
		}
	}
	return nil
}

func (c *checker) checkStmt(s ast.Stmt) error {
	switch x := s.(type) {
	case *ast.Select:
		return c.checkSelect(x)
	case *ast.Update:
		return c.checkUpdate(x)
	case *ast.Insert:
		return c.checkInsert(x)
	case *ast.If:
		ty, err := c.typeOf(x.Cond)
		if err != nil {
			return fmt.Errorf("if condition: %w", err)
		}
		if ty != ast.TBool {
			return fmt.Errorf("if condition has type %s, want bool", ty)
		}
		return c.checkStmts(x.Then)
	case *ast.Iterate:
		ty, err := c.typeOf(x.Count)
		if err != nil {
			return fmt.Errorf("iterate count: %w", err)
		}
		if ty != ast.TInt {
			return fmt.Errorf("iterate count has type %s, want int", ty)
		}
		c.depth++
		err = c.checkStmts(x.Body)
		c.depth--
		return err
	case *ast.Skip:
		return nil
	default:
		return fmt.Errorf("unknown statement %T", s)
	}
}

func (c *checker) schema(table, label string) (*ast.Schema, error) {
	s := c.prog.Schema(table)
	if s == nil {
		return nil, fmt.Errorf("%s: unknown table %q", label, table)
	}
	return s, nil
}

func (c *checker) checkWhere(w ast.Expr, schema *ast.Schema, label string) error {
	if w == nil {
		return fmt.Errorf("%s: missing where clause", label)
	}
	// this.f references must resolve in the target schema.
	var bad string
	ast.WalkExpr(w, func(e ast.Expr) bool {
		if tf, ok := e.(*ast.ThisField); ok && !schema.HasField(tf.Field) {
			bad = tf.Field
		}
		return bad == ""
	})
	if bad != "" {
		return fmt.Errorf("%s: where references unknown field %q of table %s", label, bad, schema.Name)
	}
	ty, err := c.typeOfIn(w, schema)
	if err != nil {
		return fmt.Errorf("%s: where: %w", label, err)
	}
	if ty != ast.TBool {
		return fmt.Errorf("%s: where clause has type %s, want bool", label, ty)
	}
	return nil
}

func (c *checker) checkSelect(x *ast.Select) error {
	schema, err := c.schema(x.Table, x.Label)
	if err != nil {
		return err
	}
	fields := map[string]ast.Type{}
	if x.Star {
		for _, f := range schema.Fields {
			fields[f.Name] = f.Type
		}
	} else {
		if len(x.Fields) == 0 {
			return fmt.Errorf("%s: empty field list", x.Label)
		}
		for _, fn := range x.Fields {
			f := schema.Field(fn)
			if f == nil {
				return fmt.Errorf("%s: unknown field %q of table %s", x.Label, fn, x.Table)
			}
			fields[fn] = f.Type
		}
	}
	if err := c.checkWhere(x.Where, schema, x.Label); err != nil {
		return err
	}
	if x.Var == "" {
		return fmt.Errorf("%s: select must bind a variable", x.Label)
	}
	c.vars[x.Var] = &varBinding{table: schema, fields: fields}
	return nil
}

func (c *checker) checkUpdate(x *ast.Update) error {
	schema, err := c.schema(x.Table, x.Label)
	if err != nil {
		return err
	}
	if len(x.Sets) == 0 {
		return fmt.Errorf("%s: empty set list", x.Label)
	}
	seen := map[string]bool{}
	for _, a := range x.Sets {
		f := schema.Field(a.Field)
		if f == nil {
			return fmt.Errorf("%s: unknown field %q of table %s", x.Label, a.Field, x.Table)
		}
		// A record is addressed by its key: moving it to another key would
		// leave it where lookups by the old key still find it and lookups by
		// the new one do not, so keys are only ever written by insert.
		if f.PK {
			return fmt.Errorf("%s: update sets primary-key field %q of table %s", x.Label, a.Field, x.Table)
		}
		if seen[a.Field] {
			return fmt.Errorf("%s: field %q set twice", x.Label, a.Field)
		}
		seen[a.Field] = true
		ty, err := c.typeOf(a.Expr)
		if err != nil {
			return fmt.Errorf("%s: set %s: %w", x.Label, a.Field, err)
		}
		if ty != f.Type {
			return fmt.Errorf("%s: set %s: type %s, field has type %s", x.Label, a.Field, ty, f.Type)
		}
	}
	return c.checkWhere(x.Where, schema, x.Label)
}

func (c *checker) checkInsert(x *ast.Insert) error {
	schema, err := c.schema(x.Table, x.Label)
	if err != nil {
		return err
	}
	assigned := map[string]bool{}
	for _, a := range x.Values {
		f := schema.Field(a.Field)
		if f == nil {
			return fmt.Errorf("%s: unknown field %q of table %s", x.Label, a.Field, x.Table)
		}
		if assigned[a.Field] {
			return fmt.Errorf("%s: field %q assigned twice", x.Label, a.Field)
		}
		assigned[a.Field] = true
		ty, err := c.typeOf(a.Expr)
		if err != nil {
			return fmt.Errorf("%s: value %s: %w", x.Label, a.Field, err)
		}
		if ty != f.Type {
			return fmt.Errorf("%s: value %s: type %s, field has type %s", x.Label, a.Field, ty, f.Type)
		}
	}
	for _, pk := range schema.PrimaryKey() {
		if !assigned[pk.Name] {
			return fmt.Errorf("%s: insert does not assign primary-key field %q", x.Label, pk.Name)
		}
	}
	return nil
}

// typeOf types an expression outside a where clause (this.f is illegal).
func (c *checker) typeOf(e ast.Expr) (ast.Type, error) { return c.typeOfIn(e, nil) }

// typeOfIn types an expression; this.f resolves against schema when non-nil.
func (c *checker) typeOfIn(e ast.Expr, schema *ast.Schema) (ast.Type, error) {
	switch x := e.(type) {
	case *ast.IntLit:
		return ast.TInt, nil
	case *ast.BoolLit:
		return ast.TBool, nil
	case *ast.StringLit:
		return ast.TString, nil
	case *ast.UUID:
		return ast.TInt, nil
	case *ast.IterVar:
		if c.depth == 0 {
			return ast.TInvalid, fmt.Errorf("iter used outside iterate")
		}
		return ast.TInt, nil
	case *ast.Arg:
		p := c.txn.Param(x.Name)
		if p == nil {
			return ast.TInvalid, fmt.Errorf("unknown identifier %q", x.Name)
		}
		return p.Type, nil
	case *ast.ThisField:
		if schema == nil {
			return ast.TInvalid, fmt.Errorf("this.%s used outside a where clause", x.Field)
		}
		f := schema.Field(x.Field)
		if f == nil {
			return ast.TInvalid, fmt.Errorf("unknown field %q of table %s", x.Field, schema.Name)
		}
		return f.Type, nil
	case *ast.FieldAt:
		b, ty, err := c.varField(x.Var, x.Field)
		if err != nil {
			return ast.TInvalid, err
		}
		_ = b
		if x.Index != nil {
			ity, err := c.typeOfIn(x.Index, schema)
			if err != nil {
				return ast.TInvalid, err
			}
			if ity != ast.TInt {
				return ast.TInvalid, fmt.Errorf("at-index has type %s, want int", ity)
			}
		}
		return ty, nil
	case *ast.Agg:
		_, ty, err := c.varField(x.Var, x.Field)
		if err != nil {
			return ast.TInvalid, err
		}
		switch x.Fn {
		case ast.AggCount:
			return ast.TInt, nil
		case ast.AggAny:
			return ty, nil
		default: // sum/min/max require numeric
			if ty != ast.TInt {
				return ast.TInvalid, fmt.Errorf("%s over non-int field %s.%s", x.Fn, x.Var, x.Field)
			}
			return ast.TInt, nil
		}
	case *ast.Binary:
		lt, err := c.typeOfIn(x.L, schema)
		if err != nil {
			return ast.TInvalid, err
		}
		rt, err := c.typeOfIn(x.R, schema)
		if err != nil {
			return ast.TInvalid, err
		}
		switch {
		case x.Op.IsArith():
			if lt != ast.TInt || rt != ast.TInt {
				return ast.TInvalid, fmt.Errorf("arithmetic %s on %s and %s", x.Op, lt, rt)
			}
			return ast.TInt, nil
		case x.Op.IsComparison():
			if lt != rt {
				return ast.TInvalid, fmt.Errorf("comparison %s between %s and %s", x.Op, lt, rt)
			}
			if x.Op != ast.OpEq && x.Op != ast.OpNe && lt == ast.TBool {
				return ast.TInvalid, fmt.Errorf("ordering %s on bool", x.Op)
			}
			return ast.TBool, nil
		default: // logical
			if lt != ast.TBool || rt != ast.TBool {
				return ast.TInvalid, fmt.Errorf("logical %s on %s and %s", x.Op, lt, rt)
			}
			return ast.TBool, nil
		}
	default:
		return ast.TInvalid, fmt.Errorf("unknown expression %T", e)
	}
}

func (c *checker) varField(v, field string) (*varBinding, ast.Type, error) {
	b := c.vars[v]
	if b == nil {
		return nil, ast.TInvalid, fmt.Errorf("unknown variable %q (no preceding select binds it)", v)
	}
	ty, ok := b.fields[field]
	if !ok {
		return nil, ast.TInvalid, fmt.Errorf("variable %q does not carry field %q (selected: table %s)", v, field, b.table.Name)
	}
	return b, ty, nil
}
