package anomaly

import (
	"fmt"
	"slices"
	"strings"
	"sync/atomic"

	"atropos/internal/ast"
)

// This file is the plan half of a pair encoding (DESIGN.md §3): everything
// about a (transaction, witness) pair that follows from the two
// transactions' commands alone — table and field access sets and decided
// key equalities — computed in plain Go before any formula exists. The
// plan decides which dependency propositions the encoding would define and
// therefore which cycle queries the witness loop can ever ask; the SAT
// body (detect.go) is built only when the first of them is asked.

// fieldSet is a set of field names, sorted.
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
	// pins are the key constraints in source order with their pinning
	// expressions, which the replayer evaluates; kept only when the pass
	// records witness schedules (see witness.go).
	pins [2][]KeyPin
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
}

// pass is the state shared by the detectors of one detection pass over one
// program. Facts and plans are computed on the goroutine that drives the
// pass (the sequential loop, or the wavefront's seeding loop), never by
// its workers, which only read them.
type pass struct {
	prog   *ast.Program
	model  Model
	record bool
	tables []map[string]bool // per transaction: the tables it touches
	facts  []*txnFacts       // per transaction, nil until first needed
	// planned counts the pair plans computed, built the SAT bodies
	// constructed for them (workers build concurrently).
	planned int
	built   atomic.Int64
	// onPlan, when set, sees every planned encoder as its detector takes
	// it on. Only tests set it (to force bodies eagerly).
	onPlan func(*detector, *pairEncoder)
}

func newPass(prog *ast.Program, model Model, record bool) *pass {
	p := &pass{prog: prog, model: model, record: record,
		tables: make([]map[string]bool, len(prog.Txns)),
		facts:  make([]*txnFacts, len(prog.Txns)),
	}
	for i, t := range prog.Txns {
		p.tables[i] = txnTables(t)
	}
	return p
}

func (p *pass) txnFacts(ti int) (*txnFacts, error) {
	if tf := p.facts[ti]; tf != nil {
		return tf, nil
	}
	t := p.prog.Txns[ti]
	cmds := ast.Commands(t.Body)
	tf := &txnFacts{name: t.Name, cmds: make([]cmdFacts, len(cmds))}
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
				if p.record {
					f.pins[inst] = append(f.pins[inst], KeyPin{Field: field, Term: tm.id, Kind: tm.kind, Expr: e})
				}
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
// table with it and returns, in program order, the encoders that can be
// asked a cycle query at all. A witness with fewer than two of ti's
// commands in conflict with it has no candidate cycle for any command
// pair; it is dropped here, before it becomes a task or acquires a solver
// (and a transaction of fewer than two commands is not planned at all).
// Results are unaffected: such a witness issues no queries.
func (p *pass) witnessesOf(ti int) ([]*pairEncoder, error) {
	tf, err := p.txnFacts(ti)
	if err != nil || len(tf.cmds) < 2 {
		return nil, err
	}
	var witnesses []*pairEncoder
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

func sharesTable(a, b map[string]bool) bool {
	for tb := range a {
		if b[tb] {
			return true
		}
	}
	return false
}

// planPair computes the dependency plan of (t, w): cand[a] lists, in
// program order, the commands of w (as global item indices) that command a
// of t can share a dependency edge with — same table, keys not decided
// unequal, conflicting field access, exactly the condition under which the
// body defines dep(a→b) and dep(b→a).
func planPair(t, w *txnFacts) *pairEncoder {
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
	return &pairEncoder{t: t, w: w, nA: nA, n: nA + nB, cand: cand}
}

// askable reports whether the witness loop can ask pe any cycle query: a
// cycle through commands i < j of A needs a candidate for each, so at
// least two of A's commands must have one.
func (pe *pairEncoder) askable() bool {
	live := 0
	for _, row := range pe.cand {
		if len(row) > 0 {
			live++
		}
	}
	return live >= 2
}
