package ast

import (
	"slices"
	"sync/atomic"
)

// Derived views (DESIGN.md §10). What the pipeline derives from a node and
// asks again on every pass — a command's where-clause equalities and field
// accesses, a transaction's command list, a schema's hash and key — is
// computed on the node's first ask and published atomically on it, like
// the structural hash, so every later ask is one load. A view is sound only
// because the node it describes is immutable once shared: a rewritten node
// is a new node, with no view until asked. The slices a view hands out are
// shared and capacity-clipped: callers only read them.

// cmdView is a database command's view.
type cmdView struct {
	// eqs are WhereEqualities of the where clause, nil if not ok (an ok
	// clause has at least one).
	eqs Pins
	// reads and writes are CommandAccess's against schema; reads[:nwhere]
	// are the where clause's fields. Only a select * depends on the
	// schema, so only its view records one.
	reads, writes []string
	nwhere        int
	schema        *Schema
}

// viewOf returns c's view, built now if c has none or, for a select *,
// none against schema; any schema will do when schema is nil.
func viewOf(c DBCommand, schema *Schema, anySchema bool) *cmdView {
	var slot *atomic.Pointer[cmdView]
	star := false
	switch x := c.(type) {
	case *Select:
		slot, star = &x.view, x.Star
	case *Update:
		slot = &x.view
	case *Insert:
		slot = &x.view
	default:
		return &cmdView{}
	}
	if v := slot.Load(); v != nil && (!star || anySchema || v.schema == schema) {
		return v
	}
	v := newCmdView(c, schema)
	slot.Store(v)
	return v
}

func newCmdView(c DBCommand, schema *Schema) *cmdView {
	where := WhereOf(c)
	v := &cmdView{reads: WhereFields(where)}
	v.nwhere = len(v.reads)
	if eqs, ok := WhereEqualities(where); ok {
		v.eqs = slices.Clip(Pins(eqs))
	}
	switch x := c.(type) {
	case *Select:
		if !x.Star {
			for _, f := range x.Fields {
				v.reads = appendUnique(v.reads, f)
			}
		} else if v.schema = schema; schema != nil {
			for _, f := range schema.Fields {
				v.reads = appendUnique(v.reads, f.Name)
			}
		}
	case *Update:
		for _, s := range x.Sets {
			v.writes = appendUnique(v.writes, s.Field)
		}
	case *Insert:
		for _, s := range x.Values {
			v.writes = appendUnique(v.writes, s.Field)
		}
		v.writes = appendUnique(v.writes, AliveField)
	}
	v.reads, v.writes = slices.Clip(v.reads), slices.Clip(v.writes)
	return v
}

// CommandAccess returns the Access of a database command, from its view.
// schema may be nil when the command's table is unknown; SELECT * then
// yields no column reads (where-clause reads are still reported). The
// slices are shared: read-only.
func CommandAccess(c DBCommand, schema *Schema) Access {
	v := viewOf(c, schema, false)
	return Access{Table: c.TableName(), Reads: v.reads, Writes: v.writes}
}

// CommandEqualities returns WhereEqualities of c's where clause, from c's
// view; ok is false for an insert.
func CommandEqualities(c DBCommand) (Pins, bool) {
	eqs := viewOf(c, nil, true).eqs
	return eqs, eqs != nil
}

// CommandWhereFields returns WhereFields of c's where clause, from c's
// view.
func CommandWhereFields(c DBCommand) []string {
	v := viewOf(c, nil, true)
	return v.reads[:v.nwhere:v.nwhere]
}

// CommandWellFormed reports whether c's where clause φ is well-formed with
// respect to schema (§4.2.1): a conjunction of equality constraints that
// covers every primary-key field of the schema. It returns the clause's
// equalities, in clause order, from c's view.
func CommandWellFormed(c DBCommand, schema *Schema) (Pins, bool) {
	pins, ok := CommandEqualities(c)
	if !ok {
		return nil, false
	}
	for _, f := range schema.Fields {
		if f.PK && pins.Of(f.Name) == nil {
			return nil, false
		}
	}
	return pins, true
}

// txnView is a transaction's view: its database commands in program
// order, nested ones included, and their labels.
type txnView struct {
	cmds   []DBCommand
	labels []string
}

// viewed returns t's view.
func (t *Txn) viewed() *txnView {
	if v := t.view.Load(); v != nil {
		return v
	}
	n := 0
	WalkStmts(t.Body, func(s Stmt) bool {
		if _, ok := s.(DBCommand); ok {
			n++
		}
		return true
	})
	v := &txnView{cmds: make([]DBCommand, 0, n), labels: make([]string, 0, n)}
	WalkStmts(t.Body, func(s Stmt) bool {
		if c, ok := s.(DBCommand); ok {
			v.cmds, v.labels = append(v.cmds, c), append(v.labels, c.CmdLabel())
		}
		return true
	})
	t.view.Store(v)
	return v
}

// Commands returns Commands(t.Body), from t's view: shared, read-only.
func (t *Txn) Commands() []DBCommand { return t.viewed().cmds }

// FindCommand returns t's command labelled label, nil if none. Labels
// are unique within a transaction.
func FindCommand(t *Txn, label string) DBCommand {
	v := t.viewed()
	if i := slices.Index(v.labels, label); i >= 0 {
		return v.cmds[i]
	}
	return nil
}

// FindSelect returns the select in t binding variable v, nil if none.
func FindSelect(t *Txn, v string) *Select {
	for _, c := range t.Commands() {
		if sel, ok := c.(*Select); ok && sel.Var == v {
			return sel
		}
	}
	return nil
}

// schemaView is a schema's view.
type schemaView struct {
	hash        uint64
	key, nonKey []*Field
}

func (s *Schema) viewed() *schemaView {
	if v := s.view.Load(); v != nil {
		return v
	}
	v := &schemaView{hash: schemaHash(s)}
	for _, f := range s.Fields {
		if f.PK {
			v.key = append(v.key, f)
		} else {
			v.nonKey = append(v.nonKey, f)
		}
	}
	v.key, v.nonKey = slices.Clip(v.key), slices.Clip(v.nonKey)
	s.view.Store(v)
	return v
}

// PrimaryKey returns the fields marked as primary key, in declaration
// order, from s's view: shared, read-only.
func (s *Schema) PrimaryKey() []*Field { return s.viewed().key }

// NonKeyFields returns the declared fields that are not part of the key,
// from s's view: shared, read-only.
func (s *Schema) NonKeyFields() []*Field { return s.viewed().nonKey }

// HashSchema digests a schema declaration, from s's view.
func HashSchema(s *Schema) uint64 { return s.viewed().hash }
