package cluster

import (
	"bytes"
	"hash/maphash"
	"slices"
	"sort"
	"unsafe"

	"atropos/internal/store"
)

// tableDir is a table's slot space: key ↔ slot in arrival order and the
// slots in key order. One directory serves a store and all its clones — the
// three replicas of a run — so a record has the same slot everywhere and
// its key is hashed and sorted once, by whoever first names it. It only
// grows, and a key in it says nothing about which replica holds the row:
// that is mtable.pos.
//
// It holds no pointer per slot. Slot s's key is arena[end[s-1]:end[s]]
// (from 0 for slot 0), bytes the arena never rewrites: it is only appended
// to. slots finds a key's slot by linear probing over the key's hash.
type tableDir struct {
	arena []byte
	end   []int32 // by slot: where its key ends in arena
	slots []int32 // 1 + a slot, 0 empty; a power of two long, at most half full
	// idx orders by key the slots some replica holds (chunked — see
	// keyIndex); inIdx[slot] says the slot is in it. A slot enters when a
	// replica first admits it, so a key interned only to be locked — an SC
	// insert that aborted, or previewed a uuid another transaction took — is
	// in no scan's way.
	idx   keyIndex
	inIdx []bool
}

// dirSeed hashes every directory's keys; nothing observes where a key
// lands in slots.
var dirSeed = maphash.MakeSeed()

// key returns slot's key bytes, which the caller must not modify.
func (d *tableDir) key(slot int32) []byte {
	var lo int32
	if slot > 0 {
		lo = d.end[slot-1]
	}
	return d.arena[lo:d.end[slot]:d.end[slot]]
}

// name returns slot's key as a store.Key, without copying: the string
// shares the arena's bytes, which never change, and keeps the array alive.
func (d *tableDir) name(slot int32) store.Key {
	k := d.key(slot)
	if len(k) == 0 {
		return ""
	}
	return store.Key(unsafe.String(&k[0], len(k)))
}

// probe returns k's slot if the directory has it, and otherwise the empty
// entry of slots where it goes. slots must have an empty entry.
func (d *tableDir) probe(k []byte) (slot int32, at int, ok bool) {
	mask := len(d.slots) - 1
	for i := int(maphash.Bytes(dirSeed, k)) & mask; ; i = (i + 1) & mask {
		s := d.slots[i]
		if s == 0 {
			return 0, i, false
		}
		if bytes.Equal(d.key(s-1), k) {
			return s - 1, i, true
		}
	}
}

// lookup returns k's slot, if k has one.
func (d *tableDir) lookup(k []byte) (int32, bool) {
	if len(d.slots) == 0 {
		return 0, false
	}
	slot, _, ok := d.probe(k)
	return slot, ok
}

// intern returns k's slot, assigning the next one to a new key. k is
// copied, so a reused buffer may be passed.
func (d *tableDir) intern(k []byte) int32 {
	if n := len(d.end) + 1; 2*n > len(d.slots) {
		d.rehash(max(8, 2*len(d.slots)))
	}
	slot, at, ok := d.probe(k)
	if ok {
		return slot
	}
	slot = int32(len(d.end))
	d.slots[at] = slot + 1
	d.arena = append(grown(d.arena, len(k)), k...)
	d.end = append(grown(d.end, 1), int32(len(d.arena)))
	d.inIdx = append(grown(d.inIdx, 1), false)
	return slot
}

// rehash rebuilds slots at size n, a power of two.
func (d *tableDir) rehash(n int) {
	d.slots = make([]int32, n)
	mask := n - 1
	for s := range int32(len(d.end)) {
		i := int(maphash.Bytes(dirSeed, d.key(s))) & mask
		for d.slots[i] != 0 {
			i = (i + 1) & mask
		}
		d.slots[i] = s + 1
	}
}

// grown returns s with room for n more elements, doubling its capacity when
// it must grow. append grows a long slice by as little as a quarter, so an
// array that only ever grows allocates up to five times its final size
// through append and twice through grown.
func grown[S ~[]E, E any](s S, n int) S {
	if n <= cap(s)-len(s) {
		return s
	}
	return slices.Grow(s, max(n, 2*cap(s)-len(s)))
}

// keyIndex keeps a table directory's slots ordered by key as a sequence of
// sorted chunks (an indexed-sequential structure). A flat sorted array
// pays an O(n) middle insertion per new row — quadratic over a run for
// workloads whose fresh keys interleave (TPC-C's uuid-derived order ids) —
// where a chunked index bounds the shift to idxChunk slots plus an
// occasional split, while scans stay sequential and prefix narrowing a
// pair of binary searches. Rows are never deleted (the DSL retires them
// via alive=false), so chunks only grow and split; a chunk is never empty,
// and its first key is its least.
type keyIndex struct {
	chunks [][]int32 // row slots, each chunk sorted by key
}

const idxChunk = 512

// idxPos is an iteration position: chunk index and offset.
type idxPos struct{ ci, i int }

func (ix *keyIndex) valid(p idxPos) bool { return p.ci < len(ix.chunks) }

func (ix *keyIndex) at(p idxPos) int32 { return ix.chunks[p.ci][p.i] }

// norm advances past exhausted chunks (only the tail can be exhausted:
// interior chunks are never empty).
func (ix *keyIndex) norm(p idxPos) idxPos {
	for p.ci < len(ix.chunks) && p.i >= len(ix.chunks[p.ci]) {
		p.ci++
		p.i = 0
	}
	return p
}

func (ix *keyIndex) begin() idxPos { return ix.norm(idxPos{}) }

func (ix *keyIndex) next(p idxPos) idxPos {
	p.i++
	return ix.norm(p)
}

// find returns where k belongs: the last chunk whose least key is less
// than k (the first chunk if none is), and the position in it of its first
// key >= k, which may be its end. The index must not be empty.
func (ix *keyIndex) find(d *tableDir, k []byte) (ci, i int) {
	ci = max(0, sort.Search(len(ix.chunks), func(c int) bool { return bytes.Compare(d.key(ix.chunks[c][0]), k) >= 0 })-1)
	ch := ix.chunks[ci]
	return ci, sort.Search(len(ch), func(j int) bool { return bytes.Compare(d.key(ch[j]), k) >= 0 })
}

// seek returns the position of the first key >= prefix.
func (ix *keyIndex) seek(d *tableDir, prefix []byte) idxPos {
	if len(ix.chunks) == 0 {
		return idxPos{}
	}
	ci, i := ix.find(d, prefix)
	return ix.norm(idxPos{ci, i})
}

// insert adds slot, whose key is not in the index yet.
func (ix *keyIndex) insert(d *tableDir, slot int32) {
	if len(ix.chunks) == 0 {
		ch := make([]int32, 1, 64)
		ch[0] = slot
		ix.chunks = append(ix.chunks, ch)
		return
	}
	ci, i := ix.find(d, d.key(slot))
	ix.chunks[ci] = slices.Insert(ix.chunks[ci], i, slot)
	if len(ix.chunks[ci]) >= idxChunk {
		ix.split(ci)
	}
}

func (ix *keyIndex) split(ci int) {
	ch := ix.chunks[ci]
	mid := len(ch) / 2
	right := make([]int32, len(ch)-mid, idxChunk)
	copy(right, ch[mid:])
	ix.chunks[ci] = ch[:mid]
	ix.chunks = slices.Insert(ix.chunks, ci+1, right)
}
