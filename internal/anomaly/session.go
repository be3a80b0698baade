package anomaly

import (
	"context"
	"sync"

	"atropos/internal/ast"
)

// DetectSession is the anomaly detector: the small-model oracle plus the
// memory of what it has already decided. A one-shot detection is a new
// session's first Detect call; the repair pipeline keeps one session across
// its three detection passes, which run over programs that differ only
// where a refactoring touched them. What a session reports never depends on
// what it remembers — every report equals a cache-free detector's (the
// reference kept in this package's tests).
//
// Two memo layers (see DESIGN.md §7):
//
//   - Transaction level: each transaction's detection outcome is keyed by a
//     fingerprint of everything it can depend on — the transaction's own
//     text, the text of every witness transaction touching an overlapping
//     table, the schemas of every table either side touches, and the
//     consistency model. A re-detection after a refactoring therefore only
//     re-examines transactions whose code or relevant schema slice changed.
//   - Query level: each cycle query's answer is keyed by its plan's content
//     (pairPlan.contentKey) and the query's four item indices. An answer
//     is a function of exactly that, so identically shaped pairs — across
//     detection passes or within one — share it.
//
// Detection is one loop over the program's transactions on the calling
// goroutine (DESIGN.md §7): a cycle query costs microseconds, so callers
// that want more throughput run whole repairs side by side instead.
//
// The memo is guarded by a mutex; callers should issue Detect calls
// sequentially.
type DetectSession struct {
	model Model

	mu      sync.Mutex
	txns    map[uint64]txnEntry
	queries map[memoKey]cycleResult
	stats   SessionStats
}

type txnEntry struct {
	pairs []AccessPair
	// issued is the number of cycle queries the transaction's detection
	// asked; replayed into the stats on a hit so Queries always reflects
	// the work a fresh detector would have done.
	issued int
}

// memoKey identifies one cycle query by its plan's content and the item
// indices (from1, to1, from2, to2) of its two assumed dependencies.
type memoKey struct {
	content uint64
	q       [4]int32
}

// SessionStats aggregates a session's cache effectiveness across all of
// its Detect calls.
type SessionStats struct {
	// Queries counts cycle-satisfiability queries a fresh (uncached)
	// detection of the same call sequence would have decided.
	Queries int
	// Solved counts queries decided by the small model (memo misses).
	Solved int
	// Replayed is always 0. It counted the queries a stateful solver re-ran
	// to restore its state, and stays so that readers of the counters keep
	// working.
	Replayed int
	// QueryHits counts queries answered from the query memo.
	QueryHits int
	// TxnHits / TxnMisses count transaction-level fingerprint outcomes.
	TxnHits   int
	TxnMisses int
	// EncodersPlanned counts the (txn, witness) pair plans computed for
	// cache-missing transactions.
	EncodersPlanned int
}

// CacheHitRate is the fraction of fresh-equivalent queries the session
// answered from memory: 1 - Solved/Queries.
func (s SessionStats) CacheHitRate() float64 {
	if s.Queries == 0 {
		return 0
	}
	return 1 - float64(s.Solved+s.Replayed)/float64(s.Queries)
}

// NewSession creates a detection session for one consistency model.
func NewSession(model Model) *DetectSession {
	return &DetectSession{
		model:   model,
		txns:    map[uint64]txnEntry{},
		queries: map[memoKey]cycleResult{},
	}
}

// Model returns the session's consistency model.
func (s *DetectSession) Model() Model { return s.model }

// SetParallelism does nothing: detection has no width.
//
// Deprecated: bench/probes.go is its last caller; it goes with the next
// change to the benchmark.
func (s *DetectSession) SetParallelism(int) {}

// Stats returns a snapshot of the session's aggregate cache statistics.
func (s *DetectSession) Stats() SessionStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// Reset drops all cached detection work (statistics are kept). Long-lived
// sessions — an editing loop detecting after every change — grow a cache
// entry per unique transaction fingerprint and decided query; call Reset
// periodically to bound memory at the cost of re-deciding afterwards.
func (s *DetectSession) Reset() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.txns = map[uint64]txnEntry{}
	s.queries = map[memoKey]cycleResult{}
}

// Detect runs the oracle over every transaction of the program, reusing
// all applicable cached work.
func (s *DetectSession) Detect(prog *ast.Program) (*Report, error) {
	return s.DetectContext(context.Background(), prog)
}

// DetectContext is Detect with cancellation: the context aborts the
// detection between cycle queries, returning ctx.Err(). Work memoized
// before the abort remains valid — a cancelled transaction's outcome is
// never stored, and every stored query answer is complete.
func (s *DetectSession) DetectContext(ctx context.Context, prog *ast.Program) (*Report, error) {
	p := newPass(prog, s.model)
	d := &detector{pass: p, session: s, ctx: ctx}
	entries := make([]txnEntry, len(prog.Txns))
	nPairs := 0
	for i := range entries {
		fp := p.fingerprint(i)
		e, ok := s.lookupTxn(fp)
		if !ok {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			plans, err := p.witnessesOf(i)
			if err != nil {
				return nil, err
			}
			issued := d.issued
			pairs, err := d.detectTxn(plans)
			if err != nil {
				return nil, err
			}
			e = txnEntry{pairs: pairs, issued: d.issued - issued}
			s.storeTxn(fp, e)
		}
		entries[i] = e
		nPairs += len(e.pairs)
	}
	report := &Report{Model: s.model, EncodersPlanned: p.planned, Solved: d.solved}
	// One allocation: on a pass of fingerprint hits, growing this by append
	// was most of the bytes the pass allocated.
	if nPairs > 0 {
		report.Pairs = make([]AccessPair, 0, nPairs)
	}
	for _, e := range entries {
		report.Pairs = append(report.Pairs, e.pairs...)
		report.Queries += e.issued
	}
	s.mu.Lock()
	s.stats.Queries += report.Queries
	s.stats.Solved += report.Solved
	s.stats.EncodersPlanned += report.EncodersPlanned
	s.mu.Unlock()
	return report, nil
}

func (s *DetectSession) lookupTxn(fp uint64) (txnEntry, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.txns[fp]
	if ok {
		s.stats.TxnHits++
	} else {
		s.stats.TxnMisses++
	}
	return e, ok
}

func (s *DetectSession) storeTxn(fp uint64, e txnEntry) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.txns[fp] = e
}

// lookupQuery returns a memoized answer, counting the hit.
func (s *DetectSession) lookupQuery(k memoKey) (cycleResult, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	r, ok := s.queries[k]
	if ok {
		s.stats.QueryHits++
	}
	return r, ok
}

// storeQuery memoizes an answer.
func (s *DetectSession) storeQuery(k memoKey, r cycleResult) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.queries[k] = r
}
