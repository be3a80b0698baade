package cluster

import (
	"sort"

	"atropos/internal/store"
)

// keyIndex keeps a table directory's slots ordered by key as a sequence of
// sorted chunks (an indexed-sequential structure). A flat sorted array
// pays an O(n) middle insertion per new row — quadratic over a run for
// workloads whose fresh keys interleave (TPC-C's uuid-derived order ids) —
// where a chunked index bounds the shift to idxChunk slots plus an
// occasional split, while scans stay sequential and prefix narrowing a
// pair of binary searches. Rows are never deleted (the DSL retires them
// via alive=false), so chunks only grow and split.
type keyIndex struct {
	mins   []store.Key // first key of each chunk
	chunks [][]int32   // row slots, each chunk sorted by key
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

// seek returns the position of the first key >= prefix.
func (ix *keyIndex) seek(keys []store.Key, prefix []byte) idxPos {
	if len(ix.chunks) == 0 {
		return idxPos{}
	}
	ci := sort.Search(len(ix.mins), func(i int) bool { return keyCmp(ix.mins[i], prefix) >= 0 }) - 1
	if ci < 0 {
		ci = 0
	}
	ch := ix.chunks[ci]
	i := sort.Search(len(ch), func(j int) bool { return keyCmp(keys[ch[j]], prefix) >= 0 })
	return ix.norm(idxPos{ci, i})
}

// insert adds a slot for key k (keys[slot] == k; k is not already present).
func (ix *keyIndex) insert(keys []store.Key, k store.Key, slot int32) {
	if len(ix.chunks) == 0 {
		ch := make([]int32, 1, 64)
		ch[0] = slot
		ix.chunks = append(ix.chunks, ch)
		ix.mins = append(ix.mins, k)
		return
	}
	ci := sort.Search(len(ix.mins), func(i int) bool { return ix.mins[i] > k }) - 1
	if ci < 0 {
		ci = 0
	}
	ch := ix.chunks[ci]
	i := sort.Search(len(ch), func(j int) bool { return keys[ch[j]] >= k })
	ch = append(ch, 0)
	copy(ch[i+1:], ch[i:])
	ch[i] = slot
	ix.chunks[ci] = ch
	if i == 0 {
		ix.mins[ci] = k
	}
	if len(ch) >= idxChunk {
		ix.split(keys, ci)
	}
}

func (ix *keyIndex) split(keys []store.Key, ci int) {
	ch := ix.chunks[ci]
	mid := len(ch) / 2
	right := make([]int32, len(ch)-mid, idxChunk)
	copy(right, ch[mid:])
	ix.chunks[ci] = ch[:mid]
	ix.chunks = append(ix.chunks, nil)
	copy(ix.chunks[ci+2:], ix.chunks[ci+1:])
	ix.chunks[ci+1] = right
	ix.mins = append(ix.mins, "")
	copy(ix.mins[ci+2:], ix.mins[ci+1:])
	ix.mins[ci+1] = keys[right[0]]
}
