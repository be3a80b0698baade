// Package ast defines the abstract syntax of the database-program DSL from
// the paper's Figure 5: programs are a set of relational schemas plus a set
// of named transactions whose bodies are sequences of SELECT/UPDATE/INSERT
// commands and control commands (if, iterate).
//
// Every schema implicitly contains a boolean field named Alive ("alive")
// which models row presence; INSERT and DELETE are definable in terms of
// updates to it (paper §3). Commands carry stable labels (S1, U1, ...)
// assigned by the parser and used in anomaly reports.
//
// # Immutability and sharing
//
// Statement, expression, and transaction nodes carry a lazily computed,
// memoized structural hash (see hash.go), commands, transactions and
// schemas their derived views (view.go), and nodes may be freely shared
// between programs, in two ways only: the parser's declaration memo hands a
// re-parse the nodes of every declaration it parsed before, and the
// refactoring engine is copy-on-write, so a refactored program aliases
// every node the refactoring did not touch. The contract
// (DESIGN.md §10) is that a node must not be mutated once it is reachable
// from a program handed to detection, repair, or another long-lived
// consumer; builders (the parser, progen, tests) may mutate nodes freely
// while the tree is still private to them.
package ast

import (
	"fmt"
	"sync/atomic"
)

// AliveField is the name of the implicit presence field carried by every
// schema (paper §3: "Every schema includes a special Boolean field, alive").
const AliveField = "alive"

// MaxFields is the most fields a schema may declare: with alive, each of a
// table's fields fits one bit of a 64-bit word (the detector's field sets).
const MaxFields = 63

// LogIDField is the reserved primary-key suffix field introduced on logging
// schemas by the logger refactoring rule (paper §4.2.2).
const LogIDField = "log_id"

// Type is the type of a field, parameter, or expression.
type Type int

// The DSL's value types.
const (
	TInvalid Type = iota
	TInt
	TBool
	TString
)

func (t Type) String() string {
	switch t {
	case TInt:
		return "int"
	case TBool:
		return "bool"
	case TString:
		return "string"
	default:
		return "invalid"
	}
}

// Program is a database program P = (R̄, T̄): schemas plus transactions.
type Program struct {
	Schemas []*Schema
	Txns    []*Txn
}

// Schema returns the schema with the given name, or nil.
func (p *Program) Schema(name string) *Schema {
	for _, s := range p.Schemas {
		if s.Name == name {
			return s
		}
	}
	return nil
}

// Txn returns the transaction with the given name, or nil.
func (p *Program) Txn(name string) *Txn {
	for _, t := range p.Txns {
		if t.Name == name {
			return t
		}
	}
	return nil
}

// Schema is a named relation schema ρ : f̄ with a non-empty primary key.
type Schema struct {
	Name   string
	Fields []*Field

	view     atomic.Pointer[schemaView]
	accepted atomic.Bool
}

// Accepted reports whether a semantic check has accepted s.
func (s *Schema) Accepted() bool { return s.accepted.Load() }

// Accept stamps s as accepted, like Txn.Accept.
func (s *Schema) Accept() { s.accepted.Store(true) }

// Field returns the field with the given name, or nil. The implicit alive
// field is visible through this accessor.
func (s *Schema) Field(name string) *Field {
	for _, f := range s.Fields {
		if f.Name == name {
			return f
		}
	}
	if name == AliveField {
		return aliveField
	}
	return nil
}

var aliveField = &Field{Name: AliveField, Type: TBool}

// HasField reports whether the schema declares the field (or it is alive).
func (s *Schema) HasField(name string) bool { return s.Field(name) != nil }

// Field is a single schema field; PK marks primary-key membership.
type Field struct {
	Name string
	Type Type
	PK   bool
}

// Txn is a named transaction t(ā){c̄; return e}.
type Txn struct {
	Name   string
	Params []*Param
	Body   []Stmt
	Ret    Expr // nil when the transaction returns nothing

	memo     memoHash
	view     atomic.Pointer[txnView]
	accepted atomic.Pointer[[]*Schema]
}

// Accepted returns the schemas a semantic check last accepted t against,
// one per table t's commands name, and whether one has.
func (t *Txn) Accepted() ([]*Schema, bool) {
	if s := t.accepted.Load(); s != nil {
		return *s, true
	}
	return nil, false
}

// Accept stamps t as accepted against schemas: the one write to a shared
// node, atomic, and true whichever check stores it last.
func (t *Txn) Accept(schemas []*Schema) { t.accepted.Store(&schemas) }

// Param returns the parameter with the given name, or nil.
func (t *Txn) Param(name string) *Param {
	for _, p := range t.Params {
		if p.Name == name {
			return p
		}
	}
	return nil
}

// Param is a typed transaction argument.
type Param struct {
	Name string
	Type Type
}

// Stmt is a statement: a database command or a control command.
type Stmt interface {
	isStmt()
}

// DBCommand is implemented by the three database commands (SELECT, UPDATE,
// INSERT); control commands do not implement it.
type DBCommand interface {
	Stmt
	// CmdLabel returns the stable label (S1, U1, ...) of the command.
	CmdLabel() string
	// SetCmdLabel updates the stable label.
	SetCmdLabel(string)
	// TableName returns the table the command operates on.
	TableName() string
}

// Select is x := SELECT f̄ FROM R WHERE φ. Star selects all fields.
type Select struct {
	Label  string
	Var    string
	Star   bool
	Fields []string
	Table  string
	Where  Expr

	memo memoHash
	view atomic.Pointer[cmdView]
}

// Update is UPDATE R SET f̄ = ē WHERE φ.
type Update struct {
	Label string
	Table string
	Sets  []Assign
	Where Expr

	memo memoHash
	view atomic.Pointer[cmdView]
}

// Insert is INSERT INTO R VALUES (f̄ = ē). Per paper §3 it is sugar for an
// update that sets alive = true on a fresh primary key; the interpreter and
// the refactoring engine treat it as an atomic whole-record write.
type Insert struct {
	Label  string
	Table  string
	Values []Assign

	memo memoHash
	view atomic.Pointer[cmdView]
}

// Assign pairs a field name with the expression assigned to it.
type Assign struct {
	Field string
	Expr  Expr
}

// If is if(e){c̄}.
type If struct {
	Cond Expr
	Then []Stmt

	memo memoHash
}

// Iterate is iterate(e){c̄}: run the body e times; the current index is
// available inside the body as the iter expression.
type Iterate struct {
	Count Expr
	Body  []Stmt

	memo memoHash
}

// Skip is the no-op statement.
type Skip struct{}

func (*Select) isStmt()  {}
func (*Update) isStmt()  {}
func (*Insert) isStmt()  {}
func (*If) isStmt()      {}
func (*Iterate) isStmt() {}
func (*Skip) isStmt()    {}

// CmdLabel implements DBCommand.
func (s *Select) CmdLabel() string { return s.Label }

// SetCmdLabel implements DBCommand. It drops the node's own hash memo, but
// callers must not relabel a command that is already shared (enclosing
// nodes would keep stale memos, and its transaction's view stale labels);
// builders relabel before sharing.
func (s *Select) SetCmdLabel(l string) { s.Label = l; s.memo.reset() }

// TableName implements DBCommand.
func (s *Select) TableName() string { return s.Table }

// CmdLabel implements DBCommand.
func (u *Update) CmdLabel() string { return u.Label }

// SetCmdLabel implements DBCommand (see Select.SetCmdLabel on sharing).
func (u *Update) SetCmdLabel(l string) { u.Label = l; u.memo.reset() }

// TableName implements DBCommand.
func (u *Update) TableName() string { return u.Table }

// CmdLabel implements DBCommand.
func (i *Insert) CmdLabel() string { return i.Label }

// SetCmdLabel implements DBCommand (see Select.SetCmdLabel on sharing).
func (i *Insert) SetCmdLabel(l string) { i.Label = l; i.memo.reset() }

// TableName implements DBCommand.
func (i *Insert) TableName() string { return i.Table }

// Expr is an expression (paper Fig. 5 e / φ productions).
type Expr interface {
	isExpr()
}

// IntLit is an integer constant.
type IntLit struct {
	Val int64

	memo memoHash
}

// BoolLit is a boolean constant.
type BoolLit struct {
	Val bool

	memo memoHash
}

// StringLit is a string constant.
type StringLit struct {
	Val string

	memo memoHash
}

// Arg references a transaction parameter.
type Arg struct {
	Name string

	memo memoHash
}

// BinOp enumerates binary operators: arithmetic ⊕, comparison ⊙, boolean ∘.
type BinOp int

// Binary operators.
const (
	OpAdd BinOp = iota
	OpSub
	OpMul
	OpDiv
	OpLt
	OpLe
	OpEq
	OpNe
	OpGt
	OpGe
	OpAnd
	OpOr
)

func (op BinOp) String() string {
	switch op {
	case OpAdd:
		return "+"
	case OpSub:
		return "-"
	case OpMul:
		return "*"
	case OpDiv:
		return "/"
	case OpLt:
		return "<"
	case OpLe:
		return "<="
	case OpEq:
		return "="
	case OpNe:
		return "!="
	case OpGt:
		return ">"
	case OpGe:
		return ">="
	case OpAnd:
		return "&&"
	case OpOr:
		return "||"
	default:
		return fmt.Sprintf("op(%d)", int(op))
	}
}

// IsComparison reports whether op is one of ⊙ (<, <=, =, !=, >, >=).
func (op BinOp) IsComparison() bool { return op >= OpLt && op <= OpGe }

// IsArith reports whether op is one of ⊕ (+, -, *, /).
func (op BinOp) IsArith() bool { return op <= OpDiv }

// Binary is e op e.
type Binary struct {
	Op   BinOp
	L, R Expr

	memo memoHash
}

// IterVar is the iter expression: the current iterate counter.
type IterVar struct{}

// ThisField is this.f — a field reference inside a where clause.
type ThisField struct {
	Field string

	memo memoHash
}

// FieldAt is at_e(x.f): the value of field f in the e-th record held in x.
// A nil Index means at1 (the sole/first record), the common case.
type FieldAt struct {
	Var   string
	Field string
	Index Expr

	memo memoHash
}

// AggFn enumerates aggregation functions over query results.
type AggFn int

// Aggregators. Any is the nondeterministic-choice aggregator used by value
// correspondences (paper §4.1); Count is provided for workloads.
const (
	AggSum AggFn = iota
	AggMin
	AggMax
	AggCount
	AggAny
)

func (a AggFn) String() string {
	switch a {
	case AggSum:
		return "sum"
	case AggMin:
		return "min"
	case AggMax:
		return "max"
	case AggCount:
		return "count"
	case AggAny:
		return "any"
	default:
		return fmt.Sprintf("agg(%d)", int(a))
	}
}

// Agg is agg(x.f): fold the f values of the records held in x.
type Agg struct {
	Fn    AggFn
	Var   string
	Field string

	memo memoHash
}

// UUID is the uuid() expression: a globally fresh value (paper Fig. 3).
type UUID struct{}

func (*IntLit) isExpr()    {}
func (*BoolLit) isExpr()   {}
func (*StringLit) isExpr() {}
func (*Arg) isExpr()       {}
func (*Binary) isExpr()    {}
func (*IterVar) isExpr()   {}
func (*ThisField) isExpr() {}
func (*FieldAt) isExpr()   {}
func (*Agg) isExpr()       {}
func (*UUID) isExpr()      {}
