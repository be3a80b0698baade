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
// certifies. It never names the client, and it leaves out the deadline
// (only complete answers are stored).
type answerKey struct {
	verb    string
	prog    uint64
	model   anomaly.Model
	certify bool
}

// answer is one memoized result: a repair's, or a certify's certificate
// and report, and the response a hit renders from it (see Reply).
type answer struct {
	key   answerKey
	res   *repair.Result
	cert  *replay.Certificate
	rep   *anomaly.Report
	reply []byte // written once, under the memo's mu
}

// answerMemo is an LRU of complete answers, shared by every client. A hit
// hands out the stored values themselves, so they are read-only to every
// caller (see Engine.Repair and Engine.Certify).
type answerMemo struct {
	mu    sync.Mutex
	lru   *list.List // of *answer; front = most recently used
	byKey map[answerKey]*list.Element

	hits, misses, evictions int64
	replyBytes              int
}

func newAnswerMemo() *answerMemo {
	return &answerMemo{lru: list.New(), byKey: map[answerKey]*list.Element{}}
}

// get returns the answer stored under k and a Reply on its entry, and
// marks it most recently used.
func (m *answerMemo) get(k answerKey) (*answer, *Reply) {
	m.mu.Lock()
	defer m.mu.Unlock()
	el, ok := m.byKey[k]
	if !ok {
		m.misses++
		return nil, nil
	}
	m.hits++
	m.lru.MoveToFront(el)
	a := el.Value.(*answer)
	return a, &Reply{Bytes: a.reply, memo: m, a: a}
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
		old := m.lru.Remove(m.lru.Back()).(*answer)
		delete(m.byKey, old.key)
		m.replyBytes -= len(old.reply)
		m.evictions++
	}
}

// Reply is an answer-memo hit's handle on the response rendered from its
// entry, for a caller that sends the same bytes on every hit (the service
// stores a body up to its elapsed time). Bytes is nil until the first Fill.
type Reply struct {
	Bytes []byte
	memo  *answerMemo
	a     *answer
}

// Fill stores b as the entry's reply. Only the first Fill stores, and none
// does once the entry has left the memo; b must not change afterwards.
func (r *Reply) Fill(b []byte) {
	m := r.memo
	m.mu.Lock()
	defer m.mu.Unlock()
	if el, ok := m.byKey[r.a.key]; ok && el.Value == r.a && r.a.reply == nil {
		r.a.reply = b
		m.replyBytes += len(b)
	}
}

// counters snapshots the memo's statistics into st.
func (m *answerMemo) counters(st *Stats) {
	m.mu.Lock()
	defer m.mu.Unlock()
	st.AnswerHits, st.AnswerMisses, st.AnswerEvictions = m.hits, m.misses, m.evictions
	st.CachedAnswers, st.AnswerReplyBytes = m.lru.Len(), m.replyBytes
}

// repairHit is what a memoized repair returns: a shallow copy of the stored
// result that reports no detection work of its own — Queries is kept, so the
// cache hit rate reads 1 — and the hit's own wall time.
func repairHit(stored *repair.Result, elapsed time.Duration) *repair.Result {
	res := *stored
	res.Stats = anomaly.SessionStats{Queries: stored.Stats.Queries}
	res.Elapsed = elapsed
	return &res
}
