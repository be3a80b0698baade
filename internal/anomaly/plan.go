package anomaly

import (
	"cmp"
	"fmt"
	"math/bits"
	"slices"
	"strings"
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
// Key terms are digests (terms.go). Names are rendered only where a
// report or a schedule is built.

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

// size is the heap l holds, for DetectSession.Size.
func (l layout) size() int {
	n := 24 + 16*cap(l)
	for _, name := range l {
		n += len(name)
	}
	return n
}

// cmdFacts is what the encoding needs to know about one command,
// computed once per transaction and shared by every pair encoding the
// transaction takes part in. Only the key terms depend on which instance
// the transaction plays (A = 0, the transaction under test; B = 1, the
// witness), so those, and the digest of everything a memoized answer
// depends on, come in both variants.
type cmdFacts struct {
	label         string
	reads, writes uint64
	digest        [2]uint64
	table         int32
	// key and nkey place the key constraints in the transaction's keys:
	// instance inst's nkey terms start at key + inst·nkey (txnFacts.key).
	key  uint32
	nkey uint8
	sel  bool // a select: all classify asks of the command
}

func (c *cmdFacts) writer() bool { return c.writes != 0 }

// conflicts reports whether some field is written by one of x, y and
// accessed by the other: the condition for any wr, ww or rw edge between
// them, in either direction (each of the three overlaps yields an edge
// x→y and, read the other way round, an edge y→x).
func conflicts(x, y *cmdFacts) bool {
	return x.writes&(y.reads|y.writes) != 0 || x.reads&y.writes != 0
}

// txnFacts are one transaction's command facts. They are a function of
// the transaction and the schemas of the tables it touches at their
// indices (pass.factsKey), so a session keeps them across passes
// (DESIGN.md §7): they hold no pass, no AST node and no name sliced from
// the source text.
type txnFacts struct {
	name string
	cmds []cmdFacts
	keys []keyTerm
}

// key returns command ci's key constraint as instance inst.
func (tf *txnFacts) key(ci, inst int) keyConstraint {
	c := &tf.cmds[ci]
	lo := int(c.key) + inst*int(c.nkey)
	return tf.keys[lo : lo+int(c.nkey) : lo+int(c.nkey)]
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

// size is the heap tf holds, for DetectSession.Size.
func (tf *txnFacts) size() int {
	n := txnFactsBytes + len(tf.name) + len(tf.cmds)*cmdFactsBytes + len(tf.keys)*keyTermBytes
	for i := range tf.cmds {
		n += len(tf.cmds[i].label)
	}
	return n
}

const txnFactsBytes, cmdFactsBytes, keyTermBytes = 80, 64, 16

// pass is the state shared by the detectors of one detection pass over one
// program. Facts and plans are computed by DetectContext's one loop over
// the transactions, on the calling goroutine.
type pass struct {
	prog  *ast.Program
	model Model
	// session keeps the facts and layouts the pass computes; nil for a
	// pass that keeps nothing.
	session *DetectSession
	// planned counts the pair plans computed.
	planned int
	*scratch
}

// scratch holds what a pass builds and drops with it: its per-transaction
// and per-schema tables and the buffers of buildFacts, witnessesOf and
// detectTxn. Passes borrow it from scratchPool, so the passes of a fresh
// session do not grow it from nothing again. Nothing a pass returns or
// stores points into it.
type scratch struct {
	// Per transaction: the tables it touches (schema indices, carved from
	// tableIDs), its structural hash (ast.HashTxn), and its facts (nil
	// until first needed).
	tables [][]int32
	hashes []uint64
	facts  []*txnFacts
	// Per schema: its ast.HashSchema, and its layout (nil until first
	// needed).
	schemas []uint64
	layouts []layout

	tableIDs []int32
	pins     []pin
	cand     []int
	plans    []pairPlan
	// found holds the pairs of every transaction the pass detected, in
	// the order it detected them.
	found []finding
	// queries holds the answers the pass decided, merged into its
	// session's memo when the pass ends (DetectSession.absorb).
	queries map[memoKey]cycleResult
}

// gather renders the pairs the pass found into one new array, in order
// (len = cap; nil if none), and their fields into one new block, and
// returns the array and the number of names in the block.
func (p *pass) gather() ([]AccessPair, int) {
	if len(p.found) == 0 {
		return nil, 0
	}
	n := 0
	for i := range p.found {
		n += bits.OnesCount64(p.found[i].r.Flds1) + bits.OnesCount64(p.found[i].r.Flds2)
	}
	arr := make([]AccessPair, len(p.found))
	blk := make([]string, 0, n)
	for i := range p.found {
		blk = p.render(&p.found[i], &arr[i], blk)
	}
	return arr, n
}

var scratchPool = sync.Pool{New: func() any { return &scratch{queries: map[memoKey]cycleResult{}} }}

// zeroed returns s resized to n elements, all zero.
func zeroed[T any](s []T, n int) []T {
	s = slices.Grow(s[:0], n)[:n]
	clear(s)
	return s
}

// done returns the pass's scratch to the pool, holding none of the
// session's facts and layouts.
func (p *pass) done() {
	clear(p.facts)
	clear(p.layouts)
	clear(p.queries)
	scratchPool.Put(p.scratch)
}

// pin is one key field a command pins, before it becomes a keyTerm.
type pin struct {
	bit uint8
	e   ast.Expr
}

func newPass(prog *ast.Program, model Model) *pass {
	n, ns := len(prog.Txns), len(prog.Schemas)
	p := &pass{prog: prog, model: model, scratch: scratchPool.Get().(*scratch)}
	p.tables, p.hashes, p.facts = zeroed(p.tables, n), zeroed(p.hashes, n), zeroed(p.facts, n)
	p.schemas, p.layouts = zeroed(p.schemas, ns), zeroed(p.layouts, ns)
	p.tableIDs, p.found = p.tableIDs[:0], p.found[:0]
	for s, schema := range prog.Schemas {
		p.schemas[s] = ast.HashSchema(schema)
	}
	// The hashes are memoized on the transaction nodes, and the refactoring
	// engine is copy-on-write, so a transaction an edit or a refactoring
	// step did not touch keeps its node and hashes in one atomic load.
	for i, t := range prog.Txns {
		p.hashes[i] = ast.HashTxn(t)
		lo := len(p.tableIDs)
		for _, c := range t.Commands() {
			if k := int32(p.schemaIndex(c.TableName())); k >= 0 && !slices.Contains(p.tableIDs[lo:], k) {
				p.tableIDs = append(p.tableIDs, k)
			}
		}
		p.tables[i] = p.tableIDs[lo:len(p.tableIDs):len(p.tableIDs)]
	}
	return p
}

// schemaIndex returns the index of the schema named table, -1 if none.
func (p *pass) schemaIndex(table string) int {
	return slices.IndexFunc(p.prog.Schemas, func(s *ast.Schema) bool { return s.Name == table })
}

// layout returns schema s's layout, the session's when it has one.
func (p *pass) layout(s int32) layout {
	if l := p.layouts[s]; l != nil {
		return l
	}
	l := p.session.lookupLayout(p.schemas[s])
	if l == nil {
		l = newLayout(p.prog.Schemas[s])
		p.session.storeLayout(p.schemas[s], l)
	}
	p.layouts[s] = l
	return l
}

// newLayout lays schema out. Its names are copies the layout owns, in
// one string, so a session keeping it pins no source text.
func newLayout(schema *ast.Schema) layout {
	n := len(ast.AliveField)
	for _, f := range schema.Fields {
		n += len(f.Name)
	}
	var b strings.Builder
	b.Grow(n)
	b.WriteString(ast.AliveField)
	for _, f := range schema.Fields {
		b.WriteString(f.Name)
	}
	all := b.String()
	l := make(layout, 1, len(schema.Fields)+1)
	l[0], all = all[:len(ast.AliveField)], all[len(ast.AliveField):]
	for _, f := range schema.Fields {
		l, all = append(l, all[:len(f.Name)]), all[len(f.Name):]
	}
	slices.Sort(l)
	return slices.Compact(l)
}

// factsKey digests everything transaction i's facts depend on: its
// structural hash and, for each table it touches, the table's schema
// index and schema hash. Facts name tables by index, and indices are per
// program, so the schema hashes alone are not enough.
func (p *pass) factsKey(i int) uint64 {
	h := ast.NewHasher().Uint(p.hashes[i])
	for _, k := range p.tables[i] {
		h = h.Uint(uint64(k)).Uint(p.schemas[k])
	}
	return h.Sum()
}

// txnFacts returns transaction ti's facts: the pass's, the session's, or
// built now.
func (p *pass) txnFacts(ti int) (*txnFacts, error) {
	if tf := p.facts[ti]; tf != nil {
		return tf, nil
	}
	key := p.factsKey(ti)
	tf := p.session.lookupFacts(key)
	if tf == nil {
		var err error
		if tf, err = p.buildFacts(ti); err != nil {
			return nil, err
		}
		p.session.storeFacts(key, tf)
	}
	p.facts[ti] = tf
	return tf, nil
}

// buildFacts computes transaction ti's facts into storage sized to fit:
// one block of command facts, one of key terms, and one string holding
// the transaction's name and its commands' labels.
func (p *pass) buildFacts(ti int) (*txnFacts, error) {
	t := p.prog.Txns[ti]
	cmds := t.Commands()
	p.pins = p.pins[:0]
	n := len(t.Name)
	for _, c := range cmds {
		n += len(c.CmdLabel())
	}
	var names strings.Builder
	names.Grow(n)
	names.WriteString(t.Name)
	for _, c := range cmds {
		names.WriteString(c.CmdLabel())
	}
	all := names.String()
	tf := &txnFacts{name: all[:len(t.Name)], cmds: make([]cmdFacts, len(cmds))}
	all = all[len(t.Name):]
	for ci, c := range cmds {
		f := &tf.cmds[ci]
		f.label, all = all[:len(c.CmdLabel())], all[len(c.CmdLabel()):]
		_, f.sel = c.(*ast.Select)
		table := p.schemaIndex(c.TableName())
		if table < 0 {
			return nil, fmt.Errorf("anomaly: %s.%s: unknown table %q", t.Name, f.label, c.TableName())
		}
		f.table = int32(table)
		schema := p.prog.Schemas[table]
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
		acc := ast.CommandAccess(c, schema)
		for _, n := range acc.Reads {
			f.reads |= bit(n)
		}
		for _, n := range acc.Writes {
			f.writes |= bit(n)
		}
		// Selects and updates implicitly read the presence field: they
		// filter on alive records, so inserts conflict with them (phantom
		// dependencies).
		if _, ins := c.(*ast.Insert); !ins {
			f.reads |= bit(ast.AliveField)
		}
		// A field pinned twice keeps its last pin.
		lo := len(p.pins)
		pkPins(c, schema, func(field string, e ast.Expr) {
			b := uint8(bits.TrailingZeros64(bit(field)))
			if k := slices.IndexFunc(p.pins[lo:], func(pn pin) bool { return pn.bit == b }); k >= 0 {
				p.pins[lo+k].e = e
			} else {
				p.pins = append(p.pins, pin{b, e})
			}
		})
		if unknown != "" {
			return nil, fmt.Errorf("anomaly: %s.%s: unknown field %q of table %s", t.Name, f.label, unknown, schema.Name)
		}
		slices.SortFunc(p.pins[lo:], func(a, b pin) int { return int(a.bit) - int(b.bit) })
		// Every pin before this command's has two terms.
		f.key, f.nkey = uint32(2*lo), uint8(len(p.pins)-lo)
	}
	tf.keys = make([]keyTerm, 2*len(p.pins))
	for ci := range tf.cmds {
		f := &tf.cmds[ci]
		pins := p.pins[f.key/2:][:f.nkey]
		prefix := p.digestPrefix(f, pins)
		for inst := range 2 {
			key, h := tf.key(ci, inst), prefix
			for j, pn := range pins {
				key[j] = keyTermOf(pn.bit, pn.e, inst, ci)
				h = h.Uint(key[j].digest)
			}
			f.digest[inst] = h.Sum()
		}
	}
	return tf, nil
}

// digestPrefix folds the instance-free part of command f's digest: its
// table's name, the names of the fields it reads and writes, and of its key
// fields, pinned by pins; buildFacts forks it per instance for the key
// terms' digests. Names, not bit positions: the memo outlives the pass, and
// a later pass's layout of a table may place its fields at other bits.
func (p *pass) digestPrefix(f *cmdFacts, pins []pin) ast.Hasher {
	l := p.layout(f.table)
	h := ast.NewHasher().Str(p.prog.Schemas[f.table].Name)
	for _, m := range [2]uint64{f.reads, f.writes} {
		h = h.Uint(uint64(bits.OnesCount64(m)))
		for ; m != 0; m &= m - 1 {
			h = h.Str(l[bits.TrailingZeros64(m)])
		}
	}
	h = h.Uint(uint64(len(pins)))
	for _, pn := range pins {
		h = h.Str(l[pn.bit])
	}
	return h
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
		if p.cand = pe.plan(p, tf, wf, p.cand); pe.askable() {
			pe.ti, pe.wi = int32(ti), int32(wi)
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
func (p *pass) planPair(t, w *txnFacts) *pairPlan {
	pe := new(pairPlan)
	pe.plan(p, t, w, nil)
	return pe
}

// plan fills pe with the dependency plan of (t, w) on pass p, appending its
// candidate lists to buf and returning the extended buf: cands(a) lists,
// in program order, the commands of w (as global item indices) that
// command a of t can share a dependency edge with — same table, keys not
// decided unequal, conflicting field access, exactly the condition under
// which some dependency edge a→b or b→a has a field.
func (pe *pairPlan) plan(p *pass, t, w *txnFacts, buf []int) []int {
	nA, nB := len(t.cmds), len(w.cmds)
	lo := len(buf)
	buf = append(buf, make([]int, nA+1)...)
	for a := range t.cmds {
		x, kx := &t.cmds[a], t.key(a, 0)
		buf[lo+a] = len(buf) - lo
		for b := range w.cmds {
			y := &w.cmds[b]
			if x.table == y.table && conflicts(x, y) && !mustDiffer(kx, w.key(b, 1)) {
				buf = append(buf, nA+b)
			}
		}
	}
	buf[lo+nA] = len(buf) - lo
	*pe = pairPlan{pass: p, t: t, w: w, nA: nA, n: nA + nB, cand: buf[lo:len(buf):len(buf)]}
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
// command digest (cmdFacts.digest), in item order — and nothing it does not,
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
