package anomaly

import (
	"context"
	"sync"

	"atropos/internal/pool"
)

// Parallel detection: the session's wavefront fan-out (DESIGN.md §15).
//
// The unit of work is one (transaction, witness) task — one plan plus
// all of its cycle queries — not one transaction: wide programs have few
// transactions but many witnesses, and the txn-granular split left cores
// idle whenever one transaction dominated the pass.
//
// The fan-out must reproduce the sequential oracle byte-for-byte, and the
// obstacle is the witness loop's early exit: sequentially, pair p of
// transaction t consults witnesses in program order and stops at the first
// satisfiable one, so whether witness w runs any queries for p depends on
// the verdicts of witnesses 0..w-1 at p. Those verdicts are deterministic,
// which admits a wavefront: witness w's task walks pairs in order, and at
// each pair waits for witness w-1 to publish the cumulative found bit (did
// any witness ≤ w-1 find p?). Found → skip, exactly as the sequential loop
// never reaches w; not found → run checkPairWitness verbatim on the task's
// own plan. Every plan therefore sees exactly the queries the sequential
// oracle would ask of it, so the query counts and the reported pairs are
// unchanged by parallelism.
//
// A task that cannot proceed registers itself as its predecessor's waiter
// (under the wave mutex, re-checking the published count so a concurrent
// publish cannot strand it) and returns TaskSuspended; the predecessor's
// next publish re-pushes it. Workers never block on wave state, so the
// scheduling is deadlock-free regardless of worker count.

// txnOut is one transaction's detection outcome, merged into the report in
// transaction order (shared by the sequential and wavefront paths).
type txnOut struct {
	pairs          []AccessPair
	issued, solved int
}

// wavefrontRun is the per-Detect-call shared state of the fan-out: the
// first-error slot.
type wavefrontRun struct {
	mu  sync.Mutex
	err error
	// errPos orders concurrent errors by the sequential iteration position
	// (txn, pair, witness) so the reported error is the one the sequential
	// oracle would have hit first.
	errPos [3]int
	abort  bool
}

func (r *wavefrontRun) fail(txn, pair, wit int, err error) {
	pos := [3]int{txn, pair, wit}
	r.mu.Lock()
	if r.err == nil || lessPos(pos, r.errPos) {
		r.err, r.errPos = err, pos
	}
	r.abort = true
	r.mu.Unlock()
}

func (r *wavefrontRun) aborted() bool {
	r.mu.Lock()
	a := r.abort
	r.mu.Unlock()
	return a
}

func lessPos(a, b [3]int) bool {
	if a[0] != b[0] {
		return a[0] < b[0]
	}
	if a[1] != b[1] {
		return a[1] < b[1]
	}
	return a[2] < b[2]
}

// txnWave is one transaction's wavefront: W witness tasks advancing over P
// command pairs, coupled only through the cumulative found bits.
type txnWave struct {
	run       *wavefrontRun
	txn       *txnFacts
	txnIdx    int
	fp        uint64
	witnesses []*pairPlan
	pairs     [][2]int    // (i, j) command pairs in sequential order
	dets      []*detector // one per witness task; read only after Run

	mu        sync.Mutex
	cum       [][]bool // cum[w][p]: some witness ≤ w found pair p
	published []int    // published[w]: pairs witness w has decided
	waiter    []*witnessTask
	results   []AccessPair // first finder's pair, per pair index
	foundAny  []bool
}

// witnessTask is the resumable unit of work: witness w of one transaction,
// suspended at pair boundary p. All mutable fields are owned by whichever
// worker is running the task; ownership hands off through wave.mu (waiter
// registration) and the stealer's deque mutex (re-push).
type witnessTask struct {
	wave *txnWave
	w    int
	p    int
	d    *detector
}

func (t *witnessTask) Run(s *pool.Stealer, worker int) pool.TaskStatus {
	wv := t.wave
	for t.p < len(wv.pairs) {
		if wv.run.aborted() {
			t.drain(s, worker)
			return pool.TaskDone
		}
		p := t.p
		predFound := false
		if t.w > 0 {
			wv.mu.Lock()
			if wv.published[t.w-1] <= p {
				wv.waiter[t.w-1] = t
				wv.mu.Unlock()
				// The predecessor may already have re-pushed this task onto
				// another worker; touch nothing of t past this point.
				return pool.TaskSuspended
			}
			predFound = wv.cum[t.w-1][p]
			wv.mu.Unlock()
		}
		var pair AccessPair
		selfFound := false
		if !predFound {
			var err error
			pair, selfFound, err = t.d.checkPairWitness(wv.witnesses[t.w], wv.pairs[p][0], wv.pairs[p][1])
			if err != nil {
				wv.run.fail(wv.txnIdx, p, t.w, err)
				t.drain(s, worker)
				return pool.TaskDone
			}
		}
		t.p = p + 1
		t.publish(s, worker, p, predFound || selfFound, selfFound && !predFound, pair)
	}
	return pool.TaskDone
}

// publish records pair p's cumulative decision and wakes the successor if
// it suspended on it.
func (t *witnessTask) publish(s *pool.Stealer, worker, p int, found, first bool, pair AccessPair) {
	wv := t.wave
	wv.mu.Lock()
	wv.cum[t.w][p] = found
	wv.published[t.w] = p + 1
	if first {
		wv.results[p] = pair
		wv.foundAny[p] = true
	}
	wake := wv.waiter[t.w]
	wv.waiter[t.w] = nil
	wv.mu.Unlock()
	if wake != nil {
		s.Push(worker, wake)
	}
}

// drain unblocks the successor chain after an abort: the remaining pairs
// are published as found (successors skip their queries and drain in
// turn), the wave's report is discarded with the error anyway.
func (t *witnessTask) drain(s *pool.Stealer, worker int) {
	wv := t.wave
	wv.mu.Lock()
	for p := t.p; p < len(wv.pairs); p++ {
		wv.cum[t.w][p] = true
	}
	wv.published[t.w] = len(wv.pairs)
	wake := wv.waiter[t.w]
	wv.waiter[t.w] = nil
	wv.mu.Unlock()
	if wake != nil {
		s.Push(worker, wake)
	}
}

// finalize assembles the transaction's outcome once every witness task has
// completed (called after Stealer.Run, so all wave state is quiescent).
// Pair order and the first-finder rule reproduce detectTxn exactly.
func (wv *txnWave) finalize() txnOut {
	var out txnOut
	for p := range wv.pairs {
		if wv.foundAny[p] {
			out.pairs = append(out.pairs, wv.results[p])
		}
	}
	for _, d := range wv.dets {
		out.issued += d.issued
		out.solved += d.solved
	}
	return out
}

// detectWavefront is DetectContext's parallel path: seed one witness task
// per (cache-missing transaction, witness) into a work-stealing pool and
// reassemble per-transaction outcomes afterwards.
//
// Duplicate fingerprints within one pass are deferred rather than raced:
// the first occurrence detects, the rest resolve from the fingerprint
// cache after the fan-out (counting the TxnHit a sequential pass would).
func (s *DetectSession) detectWavefront(ctx context.Context, ps *pass, workers int, fps []uint64) ([]txnOut, error) {
	outs := make([]txnOut, len(fps))
	run := &wavefrontRun{}
	scheduled := map[uint64]bool{}
	var deferred []int
	var waves []*txnWave
	var seed []pool.Task
	for i, fp := range fps {
		if scheduled[fp] {
			deferred = append(deferred, i)
			continue
		}
		if e, ok := s.lookupTxn(fp); ok {
			outs[i] = txnOut{pairs: e.pairs, issued: e.issued}
			continue
		}
		scheduled[fp] = true
		witnesses, err := ps.witnessesOf(i)
		if err != nil {
			return nil, err
		}
		if len(witnesses) == 0 {
			// No queries to issue; a fresh detection reports nothing and is
			// complete, so it enters the fingerprint cache immediately.
			s.storeTxn(fp, txnEntry{})
			continue
		}
		var pairs [][2]int
		for a := 0; a < witnesses[0].nA; a++ {
			for b := a + 1; b < witnesses[0].nA; b++ {
				pairs = append(pairs, [2]int{a, b})
			}
		}
		wv := &txnWave{
			run: run, txn: witnesses[0].t, txnIdx: i, fp: fp,
			witnesses: witnesses, pairs: pairs,
			dets:      make([]*detector, len(witnesses)),
			cum:       make([][]bool, len(witnesses)),
			published: make([]int, len(witnesses)),
			waiter:    make([]*witnessTask, len(witnesses)),
			results:   make([]AccessPair, len(pairs)),
			foundAny:  make([]bool, len(pairs)),
		}
		for w := range witnesses {
			wv.cum[w] = make([]bool, len(pairs))
			d := s.newDetector(ctx, ps)
			wv.dets[w] = d
			seed = append(seed, &witnessTask{wave: wv, w: w, d: d})
		}
		waves = append(waves, wv)
	}
	if len(seed) > 0 {
		// One deque and goroutine per worker: never more of them than there
		// are tasks to run.
		pool.NewStealer(min(workers, len(seed)), len(seed)).Run(seed)
	}
	run.mu.Lock()
	err := run.err
	run.mu.Unlock()
	if err != nil {
		return nil, err
	}
	for _, wv := range waves {
		out := wv.finalize()
		s.storeTxn(wv.fp, txnEntry{pairs: out.pairs, issued: out.issued})
		outs[wv.txnIdx] = out
	}
	for _, i := range deferred {
		e, _ := s.lookupTxn(fps[i])
		outs[i] = txnOut{pairs: e.pairs, issued: e.issued}
	}
	return outs, nil
}
