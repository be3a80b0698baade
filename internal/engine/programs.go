package engine

import (
	"container/list"
	"sync"

	"atropos/internal/ast"
)

// maxProgramBytes bounds the program memo by the source text it holds;
// DESIGN.md §12 gives the heap that retains.
const maxProgramBytes = 4 << 20

// programMemo is an LRU of checked programs keyed by their exact source
// text. A hit hands out the stored program itself, so it is read-only to
// every caller, as benchmarks.Program() results are.
type programMemo struct {
	mu    sync.Mutex
	lru   *list.List // of *program; front = most recently used
	bySrc map[string]*list.Element
	bytes int

	hits, misses int64
}

type program struct {
	src  string
	prog *ast.Program
}

func newProgramMemo() *programMemo {
	return &programMemo{lru: list.New(), bySrc: map[string]*list.Element{}}
}

// get returns the program checked from src and marks it most recently used.
func (m *programMemo) get(src string) (*ast.Program, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	el, ok := m.bySrc[src]
	if !ok {
		m.misses++
		return nil, false
	}
	m.hits++
	m.lru.MoveToFront(el)
	return el.Value.(*program).prog, true
}

// put stores a checked program and evicts least recently used ones past
// maxProgramBytes of source; a source past the bound on its own is not
// stored. Of two identical misses the first fill wins.
func (m *programMemo) put(src string, prog *ast.Program) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.bySrc[src]; ok || len(src) > maxProgramBytes {
		return
	}
	m.bySrc[src] = m.lru.PushFront(&program{src, prog})
	for m.bytes += len(src); m.bytes > maxProgramBytes; {
		p := m.lru.Remove(m.lru.Back()).(*program)
		delete(m.bySrc, p.src)
		m.bytes -= len(p.src)
	}
}

// counters snapshots the memo's statistics into st.
func (m *programMemo) counters(st *Stats) {
	m.mu.Lock()
	defer m.mu.Unlock()
	st.ProgramHits, st.ProgramMisses, st.CachedPrograms, st.CachedSourceBytes = m.hits, m.misses, m.lru.Len(), m.bytes
}
