package anomaly

import (
	"context"
	"slices"
	"sync"
	"unsafe"

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
// Memo layers, over facts that outlive a pass (see DESIGN.md §7):
//
//   - Program level: each detected program's report pairs and query
//     count, keyed by ast.HashProgram, so a program seen before costs one
//     hash and one lookup.
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
//   - Below both, each transaction's command facts are kept under its
//     structural hash and its tables' schemas and indices (pass.factsKey),
//     and each table's layout under its schema hash, so a pass plans an
//     unchanged transaction without rebuilding either.
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
	reports map[uint64]txnEntry // by ast.HashProgram
	queries map[memoKey]cycleResult
	facts   map[uint64]*txnFacts
	layouts map[uint64]layout
	pairs   int // stored in txns
	held    int // bytes of the facts, layouts, reports and pair arrays
	stats   SessionStats
}

// txnEntry is a stored outcome: one transaction's, or a whole program's
// report. Its pairs are a capacity-clipped part of a pass's one array
// (pass.gather), shared with the reports that pass returned: read-only.
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
		reports: map[uint64]txnEntry{},
		queries: map[memoKey]cycleResult{},
		facts:   map[uint64]*txnFacts{},
		layouts: map[uint64]layout{},
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

// Size estimates the heap the session's memo holds, in O(1), from its
// entry counts and the bytes of its facts, layouts, reports and pair
// arrays. A stored pair is charged its field names; its place in a pass's
// array is charged with the array. DESIGN.md §12, "Retained memory",
// gives the measured sizes.
func (s *DetectSession) Size() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return sessionBytes + len(s.txns)*txnEntryBytes + s.pairs*pairBytes + len(s.queries)*queryBytes + s.held
}

const (
	sessionBytes, txnEntryBytes, pairBytes, queryBytes, factsEntryBytes = 512, 64, 64, 80, 48
	accessPairBytes                                                     = int(unsafe.Sizeof(AccessPair{}))
)

// Detect runs the oracle over every transaction of the program, reusing
// all applicable cached work.
func (s *DetectSession) Detect(prog *ast.Program) (*Report, error) {
	return s.DetectContext(context.Background(), prog)
}

// DetectContext is Detect with cancellation: the context aborts the
// detection between cycle queries, returning ctx.Err(). Work memoized
// before the abort remains valid — the transactions the pass completed
// are stored, the one it cut short and the report are not, and every
// stored query answer is complete.
//
// A program the session has detected before, by ast.HashProgram, is
// answered from the report memo: its stored pairs and query count, with
// nothing planned or solved. The session fixes the model, so the hash is
// the whole key.
func (s *DetectSession) DetectContext(ctx context.Context, prog *ast.Program) (*Report, error) {
	key := ast.HashProgram(prog)
	if r := s.lookupReport(key, len(prog.Txns)); r != nil {
		return r, nil
	}
	p := newPass(prog, s.model)
	p.session = s
	d := &detector{pass: p, session: s, ctx: ctx}
	defer p.done()
	p.outcomes = zeroed(p.outcomes, len(prog.Txns))
	hits := 0
	for i := range p.outcomes {
		o := &p.outcomes[i]
		o.fp = p.fingerprint(i)
		if j := slices.IndexFunc(p.outcomes[:i], func(e outcome) bool { return e.fp == o.fp }); j >= 0 {
			*o = p.outcomes[j] // a repeated transaction: its first occurrence's outcome
			hits++
		} else if e, ok := s.lookupTxn(o.fp); ok {
			o.pairs, o.issued = e.pairs, e.issued
			hits++
		} else if err := d.detect(i, o); err != nil {
			// Keep what the pass completed: the transactions before i.
			completed := p.outcomes[:i]
			s.keep(key, nil, p.gather(completed), completed, hits, i+1-hits)
			return nil, err
		}
	}
	report := &Report{Model: s.model, EncodersPlanned: p.planned, Solved: d.solved}
	report.Pairs = p.gather(p.outcomes)
	for i := range p.outcomes {
		report.Queries += p.outcomes[i].issued
	}
	s.keep(key, report, report.Pairs, p.outcomes, hits, len(p.outcomes)-hits)
	return report, nil
}

// lookupReport returns the report stored for the program hashing to key,
// nil if none, adding to the stats what a pass of transaction hits over
// its txns transactions would.
func (s *DetectSession) lookupReport(key uint64, txns int) *Report {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.reports[key]
	if !ok {
		return nil
	}
	s.stats.TxnHits += txns
	s.stats.Queries += e.issued
	return &Report{Model: s.model, Pairs: e.pairs, Queries: e.issued}
}

// lookupTxn returns the entry stored under fingerprint fp.
func (s *DetectSession) lookupTxn(fp uint64) (txnEntry, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.txns[fp]
	return e, ok
}

// keep stores what a pass found: each outcome it detected, the first
// writer of a fingerprint winning, and rep, if not nil, under the
// program's hash. arr is the array holding the outcomes' pairs
// (pass.gather), charged to Size if the session keeps an entry in it. A
// stored pair's names are the facts' and layouts' own copies, so they pin
// no source text.
func (s *DetectSession) keep(prog uint64, rep *Report, arr []AccessPair, outs []outcome, hits, misses int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.stats.TxnHits += hits
	s.stats.TxnMisses += misses
	kept := false
	for i := range outs {
		o := &outs[i]
		if _, ok := s.txns[o.fp]; o.detected && !ok {
			s.txns[o.fp] = txnEntry{pairs: o.pairs, issued: o.issued}
			s.pairs += len(o.pairs)
			kept = true
		}
	}
	if rep != nil {
		s.stats.Queries += rep.Queries
		s.stats.Solved += rep.Solved
		s.stats.EncodersPlanned += rep.EncodersPlanned
		if _, ok := s.reports[prog]; !ok {
			s.reports[prog] = txnEntry{pairs: rep.Pairs, issued: rep.Queries}
			s.held += txnEntryBytes
			kept = true
		}
	}
	if kept {
		s.held += len(arr) * accessPairBytes
	}
}

// lookupFacts returns the facts stored under key, nil if none or if s is
// nil.
func (s *DetectSession) lookupFacts(key uint64) *txnFacts {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.facts[key]
}

// storeFacts keeps tf under key, if s is not nil.
func (s *DetectSession) storeFacts(key uint64, tf *txnFacts) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.facts[key]; !ok {
		s.facts[key] = tf
		s.held += factsEntryBytes + tf.size()
	}
}

// lookupLayout returns the layout of the schema hashing to h, nil if none
// or if s is nil.
func (s *DetectSession) lookupLayout(h uint64) layout {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.layouts[h]
}

// storeLayout keeps l as the layout of the schema hashing to h, if s is
// not nil.
func (s *DetectSession) storeLayout(h uint64, l layout) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.layouts[h]; !ok {
		s.layouts[h] = l
		s.held += factsEntryBytes + l.size()
	}
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
