package cluster

import (
	"cmp"
	"fmt"
	"slices"

	"atropos/internal/ast"
	"atropos/internal/store"
)

// WriteOp is one field write in name-based form: what observation records
// and traces carry, rendered from the executor's cwrites.
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
	// stores no eq-index command reads (most certification bases) pay nothing.
	eq []map[store.Value][]int32
	// view is the sorted []store.Key the name-based Keys exposes to state
	// inspection and the tests' AST reference, materialized lazily from the
	// held slots.
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

// sortedKeys materializes the sorted view of the keys held (inspection only
// — the executor scans the chunked index directly). A
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

// Schema returns the named table's schema. With Read, Alive and Keys it is
// the store's name-based inspection surface.
func (ms *MatStore) Schema(table string) *ast.Schema { return ms.cp.prog.Schema(table) }

// Read returns one field of one record; unknown records read zero values.
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

// Alive reports whether the record is present.
func (ms *MatStore) Alive(table string, key store.Key) bool {
	v := ms.Read(table, key, ast.AliveField)
	return v.T == ast.TBool && v.B
}

// Keys returns the keys of the rows held, sorted.
func (ms *MatStore) Keys(table string) []store.Key {
	tid, ct := ms.cp.table(table)
	if ct == nil {
		return nil
	}
	return ms.tabs[tid].sortedKeys()
}

// clock returns the greatest timestamp the store holds; a writer that is to
// win last-writer-wins over all of it stamps from clock()+1.
func (ms *MatStore) clock() int64 {
	var hi int64
	for i := range ms.tabs {
		for _, pg := range ms.tabs[i].pages {
			for _, ts := range pg.ts {
				hi = max(hi, ts)
			}
		}
	}
	return hi
}

// applyC merges a compiled write batch.
func (ms *MatStore) applyC(ws []cwrite, ts int64) {
	for i := range ws {
		w := &ws[i]
		ms.tabs[w.tid].put(w.slot, w.fid, w.val, ts)
	}
}
