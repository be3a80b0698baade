package engine

import (
	"reflect"
	"time"
	"unsafe"

	"atropos/internal/anomaly"
	"atropos/internal/ast"
	"atropos/internal/repair"
	"atropos/internal/replay"
)

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
// and report, and the response a hit renders from it (see Reply). A stored
// answer never changes; Fill swaps in a copy that carries the reply.
type answer struct {
	key   answerKey
	res   *repair.Result
	cert  *replay.Certificate
	rep   *anomaly.Report
	reply []byte
}

// storeAnswer puts a complete answer in the memo, charged the heap it
// reaches that prog, the request's program, does not.
func (e *Engine) storeAnswer(prog *ast.Program, a *answer) {
	z := sizer{}
	z.add(reflect.ValueOf(prog))
	e.answers.put(a.key, a, z.add(reflect.ValueOf(a)))
}

// getAnswer returns the answer stored under k and a Reply on its entry.
func (e *Engine) getAnswer(k answerKey) (*answer, *Reply) {
	a, ok := e.answers.get(k)
	if !ok {
		return nil, nil
	}
	return a, &Reply{Bytes: a.reply, answers: e.answers, a: a}
}

// Reply is an answer-memo hit's handle on the response rendered from its
// entry, for a caller that sends the same bytes on every hit (the service
// stores a body up to its elapsed time). Bytes is nil until the first Fill.
type Reply struct {
	Bytes   []byte
	answers *lru[answerKey, *answer]
	a       *answer
}

// Fill stores b as the entry's reply and adds its bytes to the entry's
// charge. Only the first Fill stores, and none does once the entry has left
// the memo; b must not change afterwards.
func (r *Reply) Fill(b []byte) {
	if r.a.reply != nil {
		return
	}
	filled := *r.a
	filled.reply = b
	r.answers.swap(r.a.key, r.a, &filled, len(b))
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

// sizer estimates heap bytes by walking pointers, slices, strings, maps
// and interfaces, counting each object once: what it has seen, from this
// walk or an earlier one on the same sizer, it never counts again.
type sizer map[uintptr]bool

func (z sizer) seen(p uintptr) bool {
	seen := z[p]
	z[p] = true
	return seen
}

// add returns the bytes reachable from v, v's own bytes excluded, that
// the sizer has not seen.
func (z sizer) add(v reflect.Value) int {
	n := 0
	switch v.Kind() {
	case reflect.Pointer:
		if !v.IsNil() && !z.seen(v.Pointer()) {
			n = int(v.Type().Elem().Size()) + z.add(v.Elem())
		}
	case reflect.Interface:
		n = z.add(v.Elem())
	case reflect.Slice:
		if v.Cap() > 0 && !z.seen(v.Pointer()) {
			n = v.Cap() * int(v.Type().Elem().Size())
			for i := range v.Len() {
				n += z.add(v.Index(i))
			}
		}
	case reflect.String:
		if v.Len() > 0 && !z.seen(uintptr(unsafe.Pointer(unsafe.StringData(v.String())))) {
			n = v.Len()
		}
	case reflect.Map:
		if !v.IsNil() && !z.seen(v.Pointer()) {
			// A map is a header and groups of 8 slots, each holding a key,
			// a value and a control byte; past one group, tables run up
			// to 7/8 full in power-of-two sizes.
			slots := 8
			for v.Len() > slots*7/8 && v.Len() > 8 {
				slots *= 2
			}
			n = 48 + slots*int(v.Type().Key().Size()+v.Type().Elem().Size()+1)
			for it := v.MapRange(); it.Next(); {
				n += z.add(it.Key()) + z.add(it.Value())
			}
		}
	case reflect.Struct:
		for i := range v.NumField() {
			n += z.add(v.Field(i))
		}
	case reflect.Array:
		for i := range v.Len() {
			n += z.add(v.Index(i))
		}
	}
	return n
}
