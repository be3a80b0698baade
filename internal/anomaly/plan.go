package anomaly

import (
	"fmt"
	"slices"
	"strings"

	"atropos/internal/ast"
)

// This file is the plan of a (transaction, witness) pair (DESIGN.md §3):
// everything about the pair that follows from the two transactions'
// commands alone — table and field access sets and decided key equalities.
// The plan decides which command pairs can share a dependency edge and
// therefore which cycle queries the witness loop can ever ask; the small
// model (smallmodel.go) decides each of them.

// fieldSet is a set of field names, sorted (also used for table names).
type fieldSet []string

func (s fieldSet) has(f string) bool {
	_, ok := slices.BinarySearch(s, f)
	return ok
}

func (s fieldSet) overlaps(o fieldSet) bool {
	for i, j := 0, 0; i < len(s) && j < len(o); {
		switch c := strings.Compare(s[i], o[j]); {
		case c == 0:
			return true
		case c < 0:
			i++
		default:
			j++
		}
	}
	return false
}

// cmdFacts is what the encoding needs to know about one command,
// computed once per transaction per detection pass and shared by every
// pair encoding the transaction takes part in. Only the key terms depend
// on which instance the transaction plays (A = 0, the transaction under
// test; B = 1, the witness), so those come in both variants.
type cmdFacts struct {
	cmd           ast.DBCommand
	label, table  string
	reads, writes fieldSet
	key           [2]keyConstraint
}

func (c *cmdFacts) writer() bool { return len(c.writes) > 0 }

// conflicts reports whether some field is written by one of x, y and
// accessed by the other: the condition for any wr, ww or rw edge between
// them, in either direction (each of the three overlaps yields an edge
// x→y and, read the other way round, an edge y→x).
func conflicts(x, y *cmdFacts) bool {
	return x.writes.overlaps(y.reads) || x.writes.overlaps(y.writes) || x.reads.overlaps(y.writes)
}

type txnFacts struct {
	name string
	cmds []cmdFacts
	// hash and slice are the transaction's structural hash and schema-slice
	// digest (pass.hashes, pass.slices): with the model they determine
	// every fact above, and so the plans it takes part in.
	hash, slice uint64
}

// index returns the position of the command labelled label, -1 if none.
func (tf *txnFacts) index(label string) int {
	for i := range tf.cmds {
		if tf.cmds[i].label == label {
			return i
		}
	}
	return -1
}

// pass is the state shared by the detectors of one detection pass over one
// program. Facts and plans are computed on the goroutine that drives the
// pass (DetectContext's planning loop), never by its workers, which only
// read them.
type pass struct {
	prog  *ast.Program
	model Model
	// Per transaction: the tables it touches (sorted), its structural hash
	// (ast.HashTxn), the digest of those tables' names and schemas, and its
	// facts (nil until first needed).
	tables [][]string
	hashes []uint64
	slices []uint64
	facts  []*txnFacts
	// planned counts the pair plans computed.
	planned int
}

func newPass(prog *ast.Program, model Model) *pass {
	n := len(prog.Txns)
	p := &pass{prog: prog, model: model,
		tables: make([][]string, n),
		hashes: make([]uint64, n),
		slices: make([]uint64, n),
		facts:  make([]*txnFacts, n),
	}
	schemas := make([]uint64, len(prog.Schemas))
	for i, sch := range prog.Schemas {
		schemas[i] = ast.HashSchema(sch)
	}
	// The hashes are memoized on the transaction nodes, and the refactoring
	// engine is copy-on-write, so a transaction an edit or a refactoring
	// step did not touch keeps its node and hashes in one atomic load. This
	// runs on the goroutine driving the pass, so it also publishes every
	// memo before any worker starts.
	for i, t := range prog.Txns {
		p.hashes[i] = ast.HashTxn(t)
		p.tables[i] = txnTables(t)
		h := chainSeed
		for _, tb := range p.tables[i] {
			h = chainString(h, tb)
			if k := slices.IndexFunc(prog.Schemas, func(s *ast.Schema) bool { return s.Name == tb }); k >= 0 {
				h = chainUint64(h, schemas[k])
			}
		}
		p.slices[i] = h
	}
	return p
}

// txnTables lists the tables a transaction's commands touch, sorted.
func txnTables(t *ast.Txn) []string {
	var out []string
	for _, c := range ast.Commands(t.Body) {
		out = append(out, c.TableName())
	}
	slices.Sort(out)
	return slices.Compact(out)
}

// fingerprint digests everything transaction i's detection outcome can
// depend on: the model, its structural hash, and the hash of every
// potential witness (a transaction touching at least one common table, in
// program order — the first satisfiable witness is the one reported),
// each with the schema-slice digest of the tables it touches, which
// together cover every table either side can read a schema of.
// Transactions sharing no table with it cannot contribute a dependency
// edge and are excluded, so editing them does not invalidate i.
func (p *pass) fingerprint(i int) uint64 {
	h := chainString(chainSeed, p.model.String())
	h = chainUint64(chainUint64(h, p.hashes[i]), p.slices[i])
	for j := range p.prog.Txns {
		if sharesTable(p.tables[i], p.tables[j]) {
			h = chainUint64(chainUint64(h, p.hashes[j]), p.slices[j])
		}
	}
	return h
}

func (p *pass) txnFacts(ti int) (*txnFacts, error) {
	if tf := p.facts[ti]; tf != nil {
		return tf, nil
	}
	t := p.prog.Txns[ti]
	cmds := ast.Commands(t.Body)
	tf := &txnFacts{name: t.Name, cmds: make([]cmdFacts, len(cmds)), hash: p.hashes[ti], slice: p.slices[ti]}
	for ci, c := range cmds {
		schema := p.prog.Schema(c.TableName())
		if schema == nil {
			return nil, fmt.Errorf("anomaly: %s.%s: unknown table %q", t.Name, c.CmdLabel(), c.TableName())
		}
		acc := ast.CommandAccess(c, schema)
		reads := acc.Reads
		// Selects and updates implicitly read the presence field: they
		// filter on alive records, so inserts conflict with them (phantom
		// dependencies).
		switch c.(type) {
		case *ast.Select, *ast.Update:
			reads = append(reads, ast.AliveField)
		}
		slices.Sort(reads)
		slices.Sort(acc.Writes)
		f := &tf.cmds[ci]
		*f = cmdFacts{cmd: c, label: c.CmdLabel(), table: c.TableName(),
			reads: slices.Compact(reads), writes: slices.Compact(acc.Writes)}
		pkPins(c, schema, func(field string, e ast.Expr) {
			for inst := range f.key {
				tm := termOf(e, inst, ci)
				f.key[inst] = f.key[inst].pin(field, tm)
			}
		})
		for _, kc := range f.key {
			slices.SortFunc(kc, func(a, b keyTerm) int { return strings.Compare(a.field, b.field) })
		}
	}
	p.facts[ti] = tf
	return tf, nil
}

// witnessesOf plans transaction ti against every transaction sharing a
// table with it and returns, in program order, the plans that can be
// asked a cycle query at all. A witness with fewer than two of ti's
// commands in conflict with it has no candidate cycle for any command
// pair; it is dropped here, before it becomes a task (and a transaction of
// fewer than two commands is not planned at all).
// Results are unaffected: such a witness issues no queries.
func (p *pass) witnessesOf(ti int) ([]*pairPlan, error) {
	tf, err := p.txnFacts(ti)
	if err != nil || len(tf.cmds) < 2 {
		return nil, err
	}
	var witnesses []*pairPlan
	for wi := range p.prog.Txns {
		if !sharesTable(p.tables[ti], p.tables[wi]) {
			continue
		}
		wf, err := p.txnFacts(wi)
		if err != nil {
			return nil, err
		}
		p.planned++
		if pe := planPair(tf, wf); pe.askable() {
			witnesses = append(witnesses, pe)
		}
	}
	return witnesses, nil
}

// sharesTable reports whether two sorted table lists intersect.
func sharesTable(a, b []string) bool { return fieldSet(a).overlaps(b) }

// planPair computes the dependency plan of (t, w): cand[a] lists, in
// program order, the commands of w (as global item indices) that command a
// of t can share a dependency edge with — same table, keys not decided
// unequal, conflicting field access, exactly the condition under which some
// dependency edge a→b or b→a has a field.
func planPair(t, w *txnFacts) *pairPlan {
	nA, nB := len(t.cmds), len(w.cmds)
	flat := make([]int, 0, nA*nB)
	cand := make([][]int, nA)
	for a := range t.cmds {
		x := &t.cmds[a]
		lo := len(flat)
		for b := range w.cmds {
			y := &w.cmds[b]
			if x.table == y.table && !mustDiffer(x.key[0], y.key[1]) && conflicts(x, y) {
				flat = append(flat, nA+b)
			}
		}
		cand[a] = flat[lo:len(flat):len(flat)]
	}
	return &pairPlan{t: t, w: w, nA: nA, n: nA + nB, cand: cand}
}

// askable reports whether the witness loop can ask pe any cycle query: a
// cycle through commands i < j of A needs a candidate for each, so at
// least two of A's commands must have one.
func (pe *pairPlan) askable() bool {
	live := 0
	for _, row := range pe.cand {
		if len(row) > 0 {
			live++
		}
	}
	return live >= 2
}

// contentKey digests everything an answer on pe depends on — each item's
// table, read and written fields and key terms, in item order — and
// nothing it does not, such as the transactions' and commands' names, so
// identically shaped pairs share memoized answers. The session's model is
// fixed, so it is left out.
func (pe *pairPlan) contentKey() uint64 {
	if pe.content != 0 {
		return pe.content
	}
	h := chainUint64(chainSeed, uint64(pe.nA))
	for x := range pe.n {
		it := pe.item(x)
		h = chainString(chainUint64(h, uint64(x)), it.table)
		h = chainUint64(h, uint64(len(it.reads)))
		for _, f := range it.reads {
			h = chainString(h, f)
		}
		h = chainUint64(h, uint64(len(it.writes)))
		for _, f := range it.writes {
			h = chainString(h, f)
		}
		kc := pe.key(x)
		h = chainUint64(h, uint64(len(kc)))
		for _, k := range kc {
			h = chainString(chainString(h, k.field), k.term.id)
		}
	}
	pe.content = h
	return h
}

// FNV-1a chaining of identifier sequences, for fingerprints and memo keys.
const (
	chainSeed  uint64 = 14695981039346656037
	chainPrime uint64 = 1099511628211
)

// chainString folds s into h, terminated so "ab"+"c" and "a"+"bc" differ.
func chainString(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * chainPrime
	}
	return (h ^ 0xff) * chainPrime
}

// chainUint64 folds v into h, low byte first.
func chainUint64(h, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h = (h ^ uint64(byte(v>>(8*i)))) * chainPrime
	}
	return h
}
