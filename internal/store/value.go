// Package store holds the DSL's runtime values, record keys and rows: the
// rows a benchmark populates, schema migration maps and the containment
// check compares. Execution state — replicas, batches, last-writer-wins
// timestamps, local views — lives in the cluster simulator (internal/cluster).
package store

import (
	"fmt"
	"strconv"

	"atropos/internal/ast"
)

// Value is a runtime value of the DSL: int, bool, or string.
type Value struct {
	T ast.Type
	I int64
	B bool
	S string
}

// IntV makes an int value.
func IntV(i int64) Value { return Value{T: ast.TInt, I: i} }

// BoolV makes a bool value.
func BoolV(b bool) Value { return Value{T: ast.TBool, B: b} }

// StringV makes a string value.
func StringV(s string) Value { return Value{T: ast.TString, S: s} }

// Zero returns the zero value of a type.
func Zero(t ast.Type) Value { return Value{T: t} }

// Equal reports value equality (values of different types are unequal).
func (v Value) Equal(o Value) bool {
	if v.T != o.T {
		return false
	}
	switch v.T {
	case ast.TInt:
		return v.I == o.I
	case ast.TBool:
		return v.B == o.B
	case ast.TString:
		return v.S == o.S
	default:
		return true
	}
}

// Less orders two values of the same type (bools: false < true).
func (v Value) Less(o Value) bool {
	switch v.T {
	case ast.TInt:
		return v.I < o.I
	case ast.TBool:
		return !v.B && o.B
	case ast.TString:
		return v.S < o.S
	default:
		return false
	}
}

func (v Value) String() string {
	switch v.T {
	case ast.TInt:
		return fmt.Sprintf("%d", v.I)
	case ast.TBool:
		return fmt.Sprintf("%t", v.B)
	case ast.TString:
		return fmt.Sprintf("%q", v.S)
	default:
		return "<invalid>"
	}
}

// Key is an encoded primary-key value tuple identifying a record within a
// table (an element of R_id).
type Key string

// MakeKey encodes a tuple of primary-key values.
func MakeKey(vals ...Value) Key {
	return Key(AppendKey(nil, vals...))
}

// AppendKey appends the encoding MakeKey(vals...) produces to buf and
// returns it; hot paths (the cluster simulator's compiled executor) reuse
// the buffer to build keys and scan prefixes without a fresh allocation
// per statement.
func AppendKey(buf []byte, vals ...Value) []byte {
	for i, v := range vals {
		if i > 0 {
			buf = append(buf, '\x1f')
		}
		switch v.T {
		case ast.TInt:
			buf = append(buf, 'i')
			buf = strconv.AppendInt(buf, v.I, 10)
		case ast.TBool:
			buf = append(buf, 'b')
			buf = strconv.AppendBool(buf, v.B)
		case ast.TString:
			buf = append(buf, 's')
			buf = append(buf, v.S...)
		default:
			buf = append(buf, '?')
		}
	}
	return buf
}

// Row is a record's field valuation (including the implicit alive field).
type Row map[string]Value

// TableRow is one record of a table, as a population or a migration lists
// it.
type TableRow struct {
	Table string
	Row   Row
}

// Load completes row as a record of table s: every field of s, missing ones
// zero, and alive unless row says otherwise. It returns the record with its
// key, computed from the primary-key fields.
func Load(s *ast.Schema, row Row) (Row, Key, error) {
	full := make(Row, len(s.Fields)+1)
	for _, f := range s.Fields {
		v, ok := row[f.Name]
		if !ok {
			v = Zero(f.Type)
		} else if v.T != f.Type {
			return nil, "", fmt.Errorf("store: %s.%s: value %s has wrong type", s.Name, f.Name, v)
		}
		full[f.Name] = v
	}
	full[ast.AliveField] = BoolV(true)
	if v, ok := row[ast.AliveField]; ok {
		full[ast.AliveField] = v
	}
	var pk []Value
	for _, f := range s.PrimaryKey() {
		pk = append(pk, full[f.Name])
	}
	return full, MakeKey(pk...), nil
}

// ResultRow pairs a record key with the fields a query retrieved.
type ResultRow struct {
	Key    Key
	Fields Row
}

// ResultSet is an ordered query result bound to a local variable.
type ResultSet []ResultRow
