package cluster

import (
	"cmp"
	"fmt"
	"slices"
	"sort"

	"atropos/internal/ast"
	"atropos/internal/store"
)

// DBView is the read interface the AST-walking executor runs against: a
// replica's materialized state, optionally overlaid with a transaction's
// buffered writes (SC mode reads-your-writes before commit). The compiled
// executor bypasses it and addresses MatStore rows directly by table id,
// row slot, and field index (DESIGN.md §9).
type DBView interface {
	Schema(table string) *ast.Schema
	Read(table string, key store.Key, field string) store.Value
	Alive(table string, key store.Key) bool
	Keys(table string) []store.Key
}

// WriteOp is one field write in the interpreter's name-based form, applied
// by the caller (immediately under EC, at commit under SC) and shipped to
// the other replicas.
type WriteOp struct {
	Table string
	Key   store.Key
	Field string
	Val   store.Value
}

// cwrite is the compiled executor's write: table id, row slot and field
// index instead of names. The executor that produces the write resolves the
// slot once (tableDir); no replica it reaches hashes the key again.
type cwrite struct {
	tid  int32
	fid  int32
	slot int32
	val  store.Value
}

// tableDir is a table's slot space: key ↔ slot in arrival order and the
// slots in key order. One directory serves a store and all its clones — the
// three replicas of a run — so a record has the same slot everywhere and
// its key is hashed and sorted once, by whoever first names it. It only
// grows, and a key in it says nothing about which replica holds the row:
// that is mtable.pos.
type tableDir struct {
	index map[store.Key]int32
	keys  []store.Key // by slot (append-only)
	// idx orders by key the slots some replica holds (chunked — see
	// keyIndex); inIdx[slot] says the slot is in it. A slot enters when a
	// replica first admits it, so a key interned only to be locked — an SC
	// insert that aborted, or previewed a uuid another transaction took — is
	// in no scan's way.
	idx   keyIndex
	inIdx []bool
}

// intern returns key's slot, assigning the next one to a new key.
func (d *tableDir) intern(k store.Key) int32 {
	if slot, ok := d.index[k]; ok {
		return slot
	}
	return d.add(k)
}

// add assigns the next slot to k, a key the directory does not have.
func (d *tableDir) add(k store.Key) int32 {
	slot := int32(len(d.keys))
	d.keys = append(d.keys, k)
	d.inIdx = append(d.inIdx, false)
	d.index[k] = slot
	return slot
}

// MatStore is a replica's materialized state: per table, the rows it holds
// by field index in fixed-size pages with parallel last-writer-wins
// timestamps, addressed by the slots of a directory it shares with its
// clones, and equality indexes on the fields some compiled command looks
// rows up by (DESIGN.md §9). Every access path yields rows in key order.
type MatStore struct {
	cp    *Compiled
	tabs  []mtable
	scans Scans // counted by cframe.matching
}

// Rows per page. Pages never move once full: growing a table allocates a new
// page instead of recopying (and having the collector rescan) every row.
const (
	pageShift = 7
	pageRows  = 1 << pageShift
)

// page is pageRows rows of field values and their last-writer-wins
// timestamps.
type page struct {
	vals []store.Value
	ts   []int64
}

type mtable struct {
	ct  *ctable
	dir *tableDir // shared with clones
	// pos[slot] is 1 + the position of the slot's row in pages if this
	// replica holds it — a write for it has arrived (or Load installed it) —
	// and 0, or past the end, if not; n counts the rows. Rows sit in arrival
	// order at the replica, so a slot nobody wrote to takes no page space.
	pos []int32
	n   int32
	// pages[p] holds row positions [p*pageRows, (p+1)*pageRows), row r of
	// the page at r*nf. Page 0 grows by doubling so few-row stores
	// (certification seeds one per lowering) stay few-row; later pages are
	// allocated whole.
	pages []page
	// eq[fid], once the first eq-index query on the field has built it, maps
	// each value of the field to the slots holding it, in key order; set keeps
	// it current. The slice itself is nil until some index is built, so
	// stores no compiled query reads (interpreter runs, certification bases) pay
	// nothing.
	eq []map[store.Value][]int32
	// view is the sorted []store.Key the string-based DBView.Keys exposes
	// to the interpreter oracle, materialized lazily from the held slots.
	view   []store.Key
	viewOK bool
}

// NewMatStore creates an empty replica state for the program.
func NewMatStore(prog *ast.Program) *MatStore {
	return newMatStore(compileLayout(prog))
}

func newMatStore(cp *Compiled) *MatStore {
	ms := &MatStore{cp: cp, tabs: make([]mtable, len(cp.tables))}
	dirs := make([]tableDir, len(cp.tables))
	for i := range cp.tables {
		dirs[i].index = map[store.Key]int32{}
		ms.tabs[i] = mtable{ct: &cp.tables[i], dir: &dirs[i]}
	}
	return ms
}

func (t *mtable) held(slot int32) bool { return int(slot) < len(t.pos) && t.pos[slot] != 0 }

// admit makes the replica hold slot, as a zero row (alive=false) appended to
// its pages, on the first write it receives for it.
func (t *mtable) admit(slot int32) {
	if n := int(slot) + 1 - len(t.pos); n > 0 {
		t.pos = append(t.pos, make([]int32, n)...)
	}
	at := t.n
	t.n++
	t.pos[slot] = at + 1
	if at&(pageRows-1) == 0 {
		var pg page
		if at > 0 {
			pg = page{make([]store.Value, 0, pageRows*t.ct.nf), make([]int64, 0, pageRows*t.ct.nf)}
		}
		t.pages = append(t.pages, pg)
	}
	pg := &t.pages[at>>pageShift]
	pg.vals = append(pg.vals, t.ct.zeros...)
	pg.ts = append(pg.ts, t.ct.tszero...)
	if d := t.dir; !d.inIdx[slot] {
		d.inIdx[slot] = true
		d.idx.insert(d.keys, d.keys[slot], slot)
	}
	t.viewOK = false
	for fid, ix := range t.eq {
		if ix != nil {
			t.eqMove(ix, slot, nil, &t.ct.zeros[fid])
		}
	}
}

// at locates a held slot's row: its page and the row's offset there.
func (t *mtable) at(slot int32) (*page, int32) {
	p := t.pos[slot] - 1
	return &t.pages[p>>pageShift], (p & (pageRows - 1)) * t.ct.nf
}

// row returns a held slot's field values. The slice is valid until the next
// admit (page 0 may still be growing).
func (t *mtable) row(slot int32) []store.Value {
	pg, at := t.at(slot)
	return pg.vals[at : at+t.ct.nf]
}

// put stores one field value if the write's timestamp wins last-writer-wins,
// on a slot the replica admits here if this is the first write to reach it.
func (t *mtable) put(slot, fid int32, val store.Value, ts int64) {
	if !t.held(slot) {
		t.admit(slot)
	}
	if pg, at := t.at(slot); ts >= pg.ts[at+fid] {
		pg.ts[at+fid] = ts
		t.set(slot, fid, val)
	}
}

// set is the one place a field value changes, so the one place a built
// equality index on the field has to follow it.
func (t *mtable) set(slot, fid int32, val store.Value) {
	cell := &t.row(slot)[fid]
	if t.eq != nil && t.eq[fid] != nil && !cell.Equal(val) {
		t.eqMove(t.eq[fid], slot, cell, &val)
	}
	*cell = val
}

// eqKey is the map key of a field value: Value.Equal ignores the payload
// fields its type does not use, struct equality does not.
func eqKey(v *store.Value) store.Value {
	switch v.T {
	case ast.TInt:
		return store.IntV(v.I)
	case ast.TBool:
		return store.BoolV(v.B)
	case ast.TString:
		return store.StringV(v.S)
	}
	return store.Value{T: v.T}
}

// eqMove takes slot out of from's bucket (nil: a fresh row) and puts it into
// to's, at its key's position: buckets stay in key order, which is the
// order scans must emit in.
func (t *mtable) eqMove(ix map[store.Value][]int32, slot int32, from, to *store.Value) {
	keys := t.dir.keys
	k := keys[slot]
	byKey := func(s int32, k store.Key) int { return cmp.Compare(keys[s], k) }
	if from != nil {
		fk := eqKey(from)
		if b := ix[fk]; len(b) == 1 {
			delete(ix, fk)
		} else {
			i, _ := slices.BinarySearchFunc(b, k, byKey)
			ix[fk] = slices.Delete(b, i, i+1)
		}
	}
	tk := eqKey(to)
	i, _ := slices.BinarySearchFunc(ix[tk], k, byKey)
	ix[tk] = slices.Insert(ix[tk], i, slot)
}

// bucket returns the slots whose field fid equals v, in key order, building
// the field's index on first use.
func (t *mtable) bucket(fid int32, v store.Value) []int32 {
	if t.eq == nil {
		t.eq = make([]map[store.Value][]int32, t.ct.nf)
	}
	ix := t.eq[fid]
	if ix == nil {
		// Count, then carve every bucket out of one array and fill in key
		// order: a handful of allocations however many values there are.
		sizes := map[store.Value]int{}
		for slot, p := range t.pos {
			if p != 0 {
				sizes[eqKey(&t.row(int32(slot))[fid])]++
			}
		}
		ix = make(map[store.Value][]int32, len(sizes))
		all := make([]int32, t.n)
		for k, n := range sizes {
			ix[k], all = all[:0:n], all[n:]
		}
		idx := &t.dir.idx
		for p := idx.begin(); idx.valid(p); p = idx.next(p) {
			if slot := idx.at(p); t.held(slot) {
				k := eqKey(&t.row(slot)[fid])
				ix[k] = append(ix[k], slot)
			}
		}
		t.eq[fid] = ix
	}
	return ix[eqKey(&v)]
}

// sortedKeys materializes the sorted view of the keys held (interpreter
// oracle only — the compiled executor scans the chunked index directly). A
// fresh slice is built per mutation epoch so previously returned views stay
// stable.
func (t *mtable) sortedKeys() []store.Key {
	if !t.viewOK {
		t.view = make([]store.Key, 0, t.n)
		idx := &t.dir.idx
		for p := idx.begin(); idx.valid(p); p = idx.next(p) {
			if slot := idx.at(p); t.held(slot) {
				t.view = append(t.view, t.dir.keys[slot])
			}
		}
		t.viewOK = true
	}
	return t.view
}

// Load installs an initial record (alive, timestamp 0). Missing fields get
// zero values; the key derives from the schema's primary-key fields.
func (ms *MatStore) Load(table string, row store.Row) error {
	tid, ct := ms.cp.table(table)
	if ct == nil {
		return fmt.Errorf("cluster: unknown table %q", table)
	}
	t := &ms.tabs[tid]
	full := make([]store.Value, ct.nf)
	copy(full, ct.zeros)
	full[ct.alive] = store.BoolV(true)
	for f, v := range row {
		id, ok := ct.fieldID[f]
		if !ok {
			continue
		}
		full[id] = v
	}
	var kb []byte
	for _, pkID := range ct.pk {
		if len(kb) > 0 {
			kb = append(kb, '\x1f')
		}
		kb = store.AppendKey(kb, full[pkID])
	}
	slot := t.dir.intern(store.Key(kb))
	if !t.held(slot) {
		t.admit(slot)
	}
	for fid, v := range full {
		t.set(slot, int32(fid), v)
	}
	pg, at := t.at(slot)
	clear(pg.ts[at : at+ct.nf])
	return nil
}

// Clone copies the state (used to give each replica an identical start):
// the rows held, a slice copy per page sized to the rows present. The
// directory is shared, not copied — a key either side interns later gets one
// slot for both — so a store and its clones belong to one goroutine.
// Equality indexes are not copied; a clone that is queried builds its own.
func (ms *MatStore) Clone() *MatStore {
	out := &MatStore{cp: ms.cp, tabs: make([]mtable, len(ms.tabs))}
	for i := range ms.tabs {
		t := &ms.tabs[i]
		nt := mtable{ct: t.ct, dir: t.dir, pos: slices.Clone(t.pos), n: t.n, pages: make([]page, len(t.pages))}
		for p, pg := range t.pages {
			nt.pages[p] = page{append([]store.Value(nil), pg.vals...), append([]int64(nil), pg.ts...)}
		}
		out.tabs[i] = nt
	}
	return out
}

// Schema implements DBView.
func (ms *MatStore) Schema(table string) *ast.Schema { return ms.cp.prog.Schema(table) }

// Read implements DBView; unknown records read zero values.
func (ms *MatStore) Read(table string, key store.Key, field string) store.Value {
	tid, ct := ms.cp.table(table)
	if ct == nil {
		return store.Value{}
	}
	fid, ok := ct.fieldID[field]
	if !ok {
		return store.Value{}
	}
	t := &ms.tabs[tid]
	if slot, ok := t.dir.index[key]; ok && t.held(slot) {
		return t.row(slot)[fid]
	}
	return ct.zeros[fid]
}

// Alive implements DBView.
func (ms *MatStore) Alive(table string, key store.Key) bool {
	v := ms.Read(table, key, ast.AliveField)
	return v.T == ast.TBool && v.B
}

// Keys implements DBView (sorted).
func (ms *MatStore) Keys(table string) []store.Key {
	tid, ct := ms.cp.table(table)
	if ct == nil {
		return nil
	}
	return ms.tabs[tid].sortedKeys()
}

// Apply merges one write with last-writer-wins semantics at the given
// timestamp (timestamps must be unique across the run; the driver issues a
// strictly monotone sequence).
func (ms *MatStore) Apply(w WriteOp, ts int64) {
	tid, ct := ms.cp.table(w.Table)
	if ct == nil {
		return
	}
	fid, ok := ct.fieldID[w.Field]
	if !ok {
		return
	}
	t := &ms.tabs[tid]
	t.put(t.dir.intern(w.Key), fid, w.Val, ts)
}

// applyC merges a compiled write batch.
func (ms *MatStore) applyC(ws []cwrite, ts int64) {
	for i := range ws {
		w := &ws[i]
		ms.tabs[w.tid].put(w.slot, w.fid, w.val, ts)
	}
}

// Overlay is a DBView layering a transaction's buffered writes over a
// base state (the interpreter's SC transactions read their own uncommitted
// writes through it; the compiled executor uses coverlay).
type Overlay struct {
	Base   DBView
	writes map[string]map[store.Key]store.Row
}

// NewOverlay creates an empty overlay over base.
func NewOverlay(base DBView) *Overlay {
	return &Overlay{Base: base, writes: map[string]map[store.Key]store.Row{}}
}

// Buffer records a pending write.
func (o *Overlay) Buffer(w WriteOp) {
	t := o.writes[w.Table]
	if t == nil {
		t = map[store.Key]store.Row{}
		o.writes[w.Table] = t
	}
	r := t[w.Key]
	if r == nil {
		r = store.Row{}
		t[w.Key] = r
	}
	r[w.Field] = w.Val
}

// Writes returns the buffered writes in deterministic order.
func (o *Overlay) Writes() []WriteOp {
	var tables []string
	for t := range o.writes {
		tables = append(tables, t)
	}
	sort.Strings(tables)
	var out []WriteOp
	for _, tn := range tables {
		var keys []store.Key
		for k := range o.writes[tn] {
			keys = append(keys, k)
		}
		sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
		for _, k := range keys {
			row := o.writes[tn][k]
			var fields []string
			for f := range row {
				fields = append(fields, f)
			}
			sort.Strings(fields)
			for _, f := range fields {
				out = append(out, WriteOp{Table: tn, Key: k, Field: f, Val: row[f]})
			}
		}
	}
	return out
}

// Schema implements DBView.
func (o *Overlay) Schema(table string) *ast.Schema { return o.Base.Schema(table) }

// Read implements DBView.
func (o *Overlay) Read(table string, key store.Key, field string) store.Value {
	if t, ok := o.writes[table]; ok {
		if r, ok := t[key]; ok {
			if v, ok := r[field]; ok {
				return v
			}
		}
	}
	return o.Base.Read(table, key, field)
}

// Alive implements DBView.
func (o *Overlay) Alive(table string, key store.Key) bool {
	v := o.Read(table, key, ast.AliveField)
	return v.T == ast.TBool && v.B
}

// Keys implements DBView: base keys plus overlay-created keys.
func (o *Overlay) Keys(table string) []store.Key {
	base := o.Base.Keys(table)
	t, ok := o.writes[table]
	if !ok {
		return base
	}
	seen := map[store.Key]bool{}
	for _, k := range base {
		seen[k] = true
	}
	extra := false
	for k := range t {
		if !seen[k] {
			extra = true
		}
	}
	if !extra {
		return base
	}
	out := append([]store.Key(nil), base...)
	for k := range t {
		if !seen[k] {
			out = append(out, k)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
