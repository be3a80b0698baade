package anomaly

import (
	"cmp"
	"fmt"
	"math/bits"
	"slices"
	"sync"

	"atropos/internal/ast"
)

// This file is the plan of a (transaction, witness) pair (DESIGN.md §3):
// everything about the pair that follows from the two transactions'
// commands alone — table and field access sets and decided key equalities.
// The plan decides which command pairs can share a dependency edge and
// therefore which cycle queries the witness loop can ever ask; the small
// model (smallmodel.go) decides each of them.
//
// A pass works over dense integers. Tables are indices into the program's
// schemas. A table's fields, alive included, get bit positions in name
// order (its layout), so a command's read and write sets are two words.
// Key terms are ids in the pass's term table (terms.go). Names are
// rendered only where a report or a schedule is built.

// layout lists one table's fields, alive included, in name order: field
// l[i] is bit i of a field set over the table. sema caps a schema at
// ast.MaxFields declared fields, so every bit fits a word.
type layout []string

// appendNames appends the names of field set m to dst.
func (l layout) appendNames(dst []string, m uint64) []string {
	for ; m != 0; m &= m - 1 {
		dst = append(dst, l[bits.TrailingZeros64(m)])
	}
	return dst
}

// cmdFacts is what the encoding needs to know about one command,
// computed once per transaction per detection pass and shared by every
// pair encoding the transaction takes part in. Only the key terms depend
// on which instance the transaction plays (A = 0, the transaction under
// test; B = 1, the witness), so those, and the digest of everything a
// memoized answer depends on, come in both variants.
type cmdFacts struct {
	cmd           ast.DBCommand
	label         string
	table         int
	reads, writes uint64
	key           [2]keyConstraint
	digest        [2]uint64
}

func (c *cmdFacts) writer() bool { return c.writes != 0 }

// conflicts reports whether some field is written by one of x, y and
// accessed by the other: the condition for any wr, ww or rw edge between
// them, in either direction (each of the three overlaps yields an edge
// x→y and, read the other way round, an edge y→x).
func conflicts(x, y *cmdFacts) bool {
	return x.writes&(y.reads|y.writes) != 0 || x.reads&y.writes != 0
}

type txnFacts struct {
	pass *pass
	name string
	cmds []cmdFacts
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
	// Per transaction: the tables it touches (schema indices), its
	// structural hash (ast.HashTxn), the digest of those tables' schemas,
	// and its facts (nil until first needed).
	tables [][]int32
	hashes []uint64
	slices []uint64
	facts  []*txnFacts
	// planned counts the pair plans computed.
	planned int
	// layouts[s] is schema s's layout, nil until first needed.
	layouts []layout
	*scratch
}

// scratch holds what a pass builds and drops with it: the arenas its
// tables and facts are carved from, its term table (pass.term), and the
// buffers of txnFacts, witnessesOf and detectTxn. Passes borrow it from
// scratchPool, so the passes of a fresh session do not grow it from
// nothing again. Nothing a pass returns points into it.
type scratch struct {
	tableIDs []int32
	txns     []txnFacts
	cmds     []cmdFacts
	keys     []keyTerm
	terms    []termEntry
	termIDs  map[uint64]int32
	pins     []pin
	cand     []int
	plans    []pairPlan
	found    []AccessPair
}

var scratchPool = sync.Pool{New: func() any { return &scratch{termIDs: map[uint64]int32{}} }}

// pin is one key field a command pins, before it becomes a keyTerm.
type pin struct {
	bit uint8
	e   ast.Expr
}

func newPass(prog *ast.Program, model Model) *pass {
	n := len(prog.Txns)
	words := make([]uint64, 2*n)
	p := &pass{prog: prog, model: model,
		tables:  make([][]int32, n),
		hashes:  words[:n:n],
		slices:  words[n:],
		facts:   make([]*txnFacts, n),
		layouts: make([]layout, len(prog.Schemas)),
		scratch: scratchPool.Get().(*scratch),
	}
	p.txns, p.cmds, p.keys, p.terms, p.tableIDs = p.txns[:0], p.cmds[:0], p.keys[:0], p.terms[:0], p.tableIDs[:0]
	clear(p.termIDs)
	// The hashes are memoized on the transaction nodes, and the refactoring
	// engine is copy-on-write, so a transaction an edit or a refactoring
	// step did not touch keeps its node and hashes in one atomic load. The
	// slice digest is a sum, so the order the tables are met in is not
	// part of it.
	for i, t := range prog.Txns {
		p.hashes[i] = ast.HashTxn(t)
		lo := len(p.tableIDs)
		ast.WalkStmts(t.Body, func(s ast.Stmt) bool {
			if c, ok := s.(ast.DBCommand); ok {
				if k := int32(p.schemaIndex(c.TableName())); k >= 0 && !slices.Contains(p.tableIDs[lo:], k) {
					p.tableIDs = append(p.tableIDs, k)
					p.slices[i] += ast.HashSchema(prog.Schemas[k])
				}
			}
			return true
		})
		p.tables[i] = p.tableIDs[lo:len(p.tableIDs):len(p.tableIDs)]
	}
	return p
}

// schemaIndex returns the index of the schema named table, -1 if none.
func (p *pass) schemaIndex(table string) int {
	return slices.IndexFunc(p.prog.Schemas, func(s *ast.Schema) bool { return s.Name == table })
}

// layout returns schema s's layout.
func (p *pass) layout(s int) layout {
	if p.layouts[s] == nil {
		l := layout{ast.AliveField}
		for _, f := range p.prog.Schemas[s].Fields {
			l = append(l, f.Name)
		}
		slices.Sort(l)
		p.layouts[s] = slices.Compact(l)
	}
	return p.layouts[s]
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
	h := ast.NewHasher().Uint(uint64(p.model)).Uint(p.hashes[i]).Uint(p.slices[i])
	for j := range p.prog.Txns {
		if sharesTable(p.tables[i], p.tables[j]) {
			h = h.Uint(p.hashes[j]).Uint(p.slices[j])
		}
	}
	return h.Sum()
}

func (p *pass) txnFacts(ti int) (*txnFacts, error) {
	if tf := p.facts[ti]; tf != nil {
		return tf, nil
	}
	t := p.prog.Txns[ti]
	// Facts are carved from the pass's arenas. An arena that grows leaves
	// what was carved before in its old array, which stays valid.
	lo := len(p.cmds)
	ast.WalkStmts(t.Body, func(s ast.Stmt) bool {
		if c, ok := s.(ast.DBCommand); ok {
			p.cmds = append(p.cmds, cmdFacts{cmd: c, label: c.CmdLabel()})
		}
		return true
	})
	cmds := p.cmds[lo:len(p.cmds):len(p.cmds)]
	for ci := range cmds {
		f := &cmds[ci]
		f.table = p.schemaIndex(f.cmd.TableName())
		if f.table < 0 {
			return nil, fmt.Errorf("anomaly: %s.%s: unknown table %q", t.Name, f.label, f.cmd.TableName())
		}
		schema := p.prog.Schemas[f.table]
		if len(schema.Fields) > ast.MaxFields {
			return nil, fmt.Errorf("anomaly: table %s has %d fields, more than %d", schema.Name, len(schema.Fields), ast.MaxFields)
		}
		l, unknown := p.layout(f.table), ""
		bit := func(name string) uint64 {
			if i, ok := slices.BinarySearch(l, name); ok {
				return 1 << i
			}
			unknown = cmp.Or(unknown, name)
			return 0
		}
		acc := ast.CommandAccess(f.cmd, schema)
		for _, n := range acc.Reads {
			f.reads |= bit(n)
		}
		for _, n := range acc.Writes {
			f.writes |= bit(n)
		}
		// Selects and updates implicitly read the presence field: they
		// filter on alive records, so inserts conflict with them (phantom
		// dependencies).
		if _, ins := f.cmd.(*ast.Insert); !ins {
			f.reads |= bit(ast.AliveField)
		}
		// A field pinned twice keeps its last pin.
		p.pins = p.pins[:0]
		pkPins(f.cmd, schema, func(field string, e ast.Expr) {
			b := uint8(bits.TrailingZeros64(bit(field)))
			if k := slices.IndexFunc(p.pins, func(pn pin) bool { return pn.bit == b }); k >= 0 {
				p.pins[k].e = e
			} else {
				p.pins = append(p.pins, pin{b, e})
			}
		})
		if unknown != "" {
			return nil, fmt.Errorf("anomaly: %s.%s: unknown field %q of table %s", t.Name, f.label, unknown, schema.Name)
		}
		slices.SortFunc(p.pins, func(a, b pin) int { return int(a.bit) - int(b.bit) })
		for inst := range f.key {
			lo := len(p.keys)
			for _, pn := range p.pins {
				kind, id := p.term(pn.e, inst, ci)
				p.keys = append(p.keys, keyTerm{bit: pn.bit, kind: kind, id: id})
			}
			f.key[inst] = p.keys[lo:len(p.keys):len(p.keys)]
			f.digest[inst] = p.digest(f, inst)
		}
	}
	p.txns = append(p.txns, txnFacts{pass: p, name: t.Name, cmds: cmds})
	p.facts[ti] = &p.txns[len(p.txns)-1]
	return p.facts[ti], nil
}

// digest folds what a memoized answer depends on about command f playing
// instance inst: its table's name, the names of the fields it reads and
// writes, and its key fields' names with their terms' digests. Names, not
// bit positions: the memo outlives the pass, and a later pass's layout of
// the same table may place its fields at other bits.
func (p *pass) digest(f *cmdFacts, inst int) uint64 {
	l := p.layouts[f.table]
	h := ast.NewHasher().Str(p.prog.Schemas[f.table].Name)
	for _, m := range [2]uint64{f.reads, f.writes} {
		h = h.Uint(uint64(bits.OnesCount64(m)))
		for ; m != 0; m &= m - 1 {
			h = h.Str(l[bits.TrailingZeros64(m)])
		}
	}
	h = h.Uint(uint64(len(f.key[inst])))
	for _, k := range f.key[inst] {
		h = h.Str(l[k.bit]).Uint(p.terms[k.id].digest)
	}
	return h.Sum()
}

// witnessesOf plans transaction ti against every transaction sharing a
// table with it and returns, in program order, the plans that can be
// asked a cycle query at all. A witness with fewer than two of ti's
// commands in conflict with it has no candidate cycle for any command
// pair; it is dropped here, before it becomes a task (and a transaction of
// fewer than two commands is not planned at all).
// Results are unaffected: such a witness issues no queries.
// The plans live in the pass's scratch: they are valid until the next
// call.
func (p *pass) witnessesOf(ti int) ([]pairPlan, error) {
	tf, err := p.txnFacts(ti)
	if err != nil || len(tf.cmds) < 2 {
		return nil, err
	}
	p.plans, p.cand = p.plans[:0], p.cand[:0]
	for wi := range p.prog.Txns {
		if !sharesTable(p.tables[ti], p.tables[wi]) {
			continue
		}
		wf, err := p.txnFacts(wi)
		if err != nil {
			return nil, err
		}
		p.planned++
		var pe pairPlan
		if p.cand = pe.plan(tf, wf, p.cand); pe.askable() {
			p.plans = append(p.plans, pe)
		}
	}
	return p.plans, nil
}

// sharesTable reports whether two table lists intersect.
func sharesTable(a, b []int32) bool {
	return slices.ContainsFunc(a, func(k int32) bool { return slices.Contains(b, k) })
}

// planPair computes the dependency plan of (t, w) (pairPlan.plan).
func planPair(t, w *txnFacts) *pairPlan {
	pe := new(pairPlan)
	pe.plan(t, w, nil)
	return pe
}

// plan fills pe with the dependency plan of (t, w), appending its
// candidate lists to buf and returning the extended buf: cands(a) lists,
// in program order, the commands of w (as global item indices) that
// command a of t can share a dependency edge with — same table, keys not
// decided unequal, conflicting field access, exactly the condition under
// which some dependency edge a→b or b→a has a field.
func (pe *pairPlan) plan(t, w *txnFacts, buf []int) []int {
	nA, nB := len(t.cmds), len(w.cmds)
	lo := len(buf)
	buf = append(buf, make([]int, nA+1)...)
	for a := range t.cmds {
		x := &t.cmds[a]
		buf[lo+a] = len(buf) - lo
		for b := range w.cmds {
			y := &w.cmds[b]
			if x.table == y.table && !mustDiffer(x.key[0], y.key[1]) && conflicts(x, y) {
				buf = append(buf, nA+b)
			}
		}
	}
	buf[lo+nA] = len(buf) - lo
	*pe = pairPlan{t: t, w: w, nA: nA, n: nA + nB, cand: buf[lo:len(buf):len(buf)]}
	return buf
}

// askable reports whether the witness loop can ask pe any cycle query: a
// cycle through commands i < j of A needs a candidate for each, so at
// least two of A's commands must have one.
func (pe *pairPlan) askable() bool {
	live := 0
	for a := range pe.nA {
		if pe.cand[a] < pe.cand[a+1] {
			live++
		}
	}
	return live >= 2
}

// contentKey digests everything an answer on pe depends on — each item's
// command digest (pass.digest), in item order — and nothing it does not,
// such as the transactions' and commands' names, so identically shaped
// pairs share memoized answers. The session's model is fixed, so it is
// left out.
func (pe *pairPlan) contentKey() uint64 {
	if pe.content != 0 {
		return pe.content
	}
	h := ast.NewHasher().Uint(uint64(pe.nA))
	for x := range pe.n {
		h = h.Uint(uint64(x)).Uint(pe.item(x).digest[pe.inst(x)])
	}
	pe.content = h.Sum()
	return pe.content
}
