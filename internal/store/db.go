package store

import (
	"fmt"
	"sort"

	"atropos/internal/ast"
)

// DB is a loaded row set: per table of a program, the records installed by
// Load, read by name. It is what schema migration and the containment check
// work on; execution state lives in the cluster simulator's store.
type DB struct {
	schemas map[string]*ast.Schema
	rows    map[string]map[Key]Row
}

// NewDB creates an empty row set for the program's schemas.
func NewDB(p *ast.Program) *DB {
	db := &DB{schemas: map[string]*ast.Schema{}, rows: map[string]map[Key]Row{}}
	for _, s := range p.Schemas {
		db.schemas[s.Name] = s
		db.rows[s.Name] = map[Key]Row{}
	}
	return db
}

// Schema returns the schema of a table, or nil.
func (db *DB) Schema(table string) *ast.Schema { return db.schemas[table] }

// Load installs a record (alive unless the row says otherwise). The key is
// computed from the row's primary-key fields; missing fields get zero
// values.
func (db *DB) Load(table string, row Row) (Key, error) {
	s := db.schemas[table]
	if s == nil {
		return "", fmt.Errorf("store: unknown table %q", table)
	}
	full := Row{}
	for _, f := range s.Fields {
		if v, ok := row[f.Name]; ok {
			if v.T != f.Type {
				return "", fmt.Errorf("store: %s.%s: value %s has wrong type", table, f.Name, v)
			}
			full[f.Name] = v
		} else {
			full[f.Name] = Zero(f.Type)
		}
	}
	if v, ok := row[ast.AliveField]; ok {
		full[ast.AliveField] = v
	} else {
		full[ast.AliveField] = BoolV(true)
	}
	var pkVals []Value
	for _, pk := range s.PrimaryKey() {
		pkVals = append(pkVals, full[pk.Name])
	}
	k := MakeKey(pkVals...)
	db.rows[table][k] = full
	return k, nil
}

// Read returns one field of one record. A table conceptually contains a
// record for every primary key (§3): fields of a record never loaded read
// as zero values and its alive as false.
func (db *DB) Read(table string, rec Key, field string) Value {
	if val, ok := db.rows[table][rec][field]; ok {
		return val
	}
	if s := db.schemas[table]; s != nil {
		if f := s.Field(field); f != nil {
			return Zero(f.Type)
		}
	}
	return Value{}
}

// Keys returns the keys of the table's loaded records, sorted.
func (db *DB) Keys(table string) []Key {
	keys := make([]Key, 0, len(db.rows[table]))
	for k := range db.rows[table] {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	return keys
}

// Alive reports whether the record is present (alive = true).
func (db *DB) Alive(table string, rec Key) bool {
	val := db.Read(table, rec, ast.AliveField)
	return val.T == ast.TBool && val.B
}

// Row returns the record's declared fields (plus alive).
func (db *DB) Row(table string, rec Key) Row {
	s := db.schemas[table]
	if s == nil {
		return nil
	}
	row := Row{ast.AliveField: db.Read(table, rec, ast.AliveField)}
	for _, f := range s.Fields {
		row[f.Name] = db.Read(table, rec, f.Name)
	}
	return row
}
