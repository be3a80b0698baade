package engine

import (
	"container/list"
	"sync"
	"time"

	"atropos/internal/anomaly"
	"atropos/internal/repair"
	"atropos/internal/replay"
)

// maxAnswers bounds the answer memo. The largest answer (TPC-C under RR
// with certify) is measured in DESIGN.md §12, which states the worst-case
// footprint of a full memo.
const maxAnswers = 256

// answerKey is what determines a finished answer: the verb, the program's
// structural hash (ast.HashProgram), the model and, for repair, whether it
// certifies. It never names the client, and it leaves out the detection
// width (answers are identical at every width) and the deadline (only
// complete answers are stored).
type answerKey struct {
	verb    string
	prog    uint64
	model   anomaly.Model
	certify bool
}

// answer is one memoized result: a repair's, or a certify's certificate
// and report.
type answer struct {
	key  answerKey
	res  *repair.Result
	cert *replay.Certificate
	rep  *anomaly.Report
}

// answerMemo is an LRU of complete answers, shared by every client. A hit
// hands out the stored values themselves, so they are read-only to every
// caller (see Engine.Repair and Engine.Certify).
type answerMemo struct {
	mu    sync.Mutex
	lru   *list.List // of *answer; front = most recently used
	byKey map[answerKey]*list.Element

	hits, misses, evictions int64
}

func newAnswerMemo() *answerMemo {
	return &answerMemo{lru: list.New(), byKey: map[answerKey]*list.Element{}}
}

// get returns the answer stored under k and marks it most recently used.
func (m *answerMemo) get(k answerKey) (*answer, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	el, ok := m.byKey[k]
	if !ok {
		m.misses++
		return nil, false
	}
	m.hits++
	m.lru.MoveToFront(el)
	return el.Value.(*answer), true
}

// put stores a complete answer, evicting the least recently used one past
// maxAnswers. Two identical misses may both compute; the first fill wins.
func (m *answerMemo) put(a *answer) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.byKey[a.key]; ok {
		return
	}
	m.byKey[a.key] = m.lru.PushFront(a)
	if m.lru.Len() > maxAnswers {
		el := m.lru.Back()
		m.lru.Remove(el)
		delete(m.byKey, el.Value.(*answer).key)
		m.evictions++
	}
}

// counters snapshots the memo's statistics into st.
func (m *answerMemo) counters(st *Stats) {
	m.mu.Lock()
	defer m.mu.Unlock()
	st.AnswerHits, st.AnswerMisses, st.AnswerEvictions = m.hits, m.misses, m.evictions
	st.CachedAnswers = m.lru.Len()
}

// repairHit is what a memoized repair returns: a shallow copy of the stored
// result that reports no solver work of its own — Queries is kept, so the
// cache hit rate reads 1 — and the hit's own wall time.
func repairHit(stored *repair.Result, elapsed time.Duration) *repair.Result {
	res := *stored
	res.Stats = anomaly.SessionStats{Queries: stored.Stats.Queries}
	res.Elapsed = elapsed
	return &res
}
