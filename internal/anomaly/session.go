package anomaly

import (
	"context"
	"maps"
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
//   - Query level: each cycle query's answer is keyed by its plan's content
//     (pairPlan.contentKey) and the query's four item indices. An answer
//     is a function of exactly that, so identically shaped pairs — across
//     detection passes or within one — share it, and a re-detection after
//     a refactoring decides only the queries the refactoring changed.
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
	reports map[uint64]reportEntry // by ast.HashProgram
	queries map[memoKey]cycleResult
	facts   map[uint64]*txnFacts
	layouts map[uint64]layout
	held    int // bytes of the facts, layouts, reports and pair arrays
	stats   SessionStats
}

// reportEntry is a stored report. Its pairs are the array of the pass that
// detected the program (pass.gather), shared with the report that pass
// returned: read-only.
type reportEntry struct {
	pairs []AccessPair
	// issued is the number of cycle queries the detection asked; replayed
	// into the stats on a hit so Queries always reflects the work a fresh
	// detector would have done.
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
	// TxnHits and TxnMisses are always 0. They counted the hits and misses
	// of a per-transaction memo; bench/layers.go is their last reader, and
	// they go with the next change to the benchmark.
	TxnHits   int
	TxnMisses int
	// EncodersPlanned counts the (txn, witness) pair plans computed by
	// passes the report memo did not answer.
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
		reports: map[uint64]reportEntry{},
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
// query count and the bytes of its facts, layouts, reports and pair
// arrays. DESIGN.md §12, "Retained memory", gives the measured sizes.
func (s *DetectSession) Size() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return sessionBytes + len(s.queries)*queryBytes + s.held
}

const (
	sessionBytes, reportEntryBytes, queryBytes, factsEntryBytes = 512, 64, 80, 48
	accessPairBytes                                             = int(unsafe.Sizeof(AccessPair{}))
)

// Detect runs the oracle over every transaction of the program, reusing
// all applicable cached work.
func (s *DetectSession) Detect(prog *ast.Program) (*Report, error) {
	return s.DetectContext(context.Background(), prog)
}

// DetectContext is Detect with cancellation: the context aborts the
// detection between cycle queries, returning ctx.Err(). Work memoized
// before the abort remains valid — the query answers the pass decided,
// and the facts and layouts it built, are stored, the report is not, and
// every stored answer is complete.
//
// A program the session has detected before, by ast.HashProgram, is
// answered from the report memo: its stored pairs and query count, with
// nothing planned or solved. The session fixes the model, so the hash is
// the whole key.
func (s *DetectSession) DetectContext(ctx context.Context, prog *ast.Program) (*Report, error) {
	key := ast.HashProgram(prog)
	if r := s.lookupReport(key); r != nil {
		return r, nil
	}
	p := newPass(prog, s.model)
	p.session = s
	d := &detector{pass: p, session: s, ctx: ctx}
	defer p.done()
	defer s.absorb(d) // before done clears the pass's answers
	for i := range prog.Txns {
		if err := d.detect(i); err != nil {
			return nil, err
		}
	}
	report := &Report{Model: s.model, Pairs: p.gather(), Queries: d.issued, Solved: d.solved, EncodersPlanned: p.planned}
	s.keep(key, report)
	return report, nil
}

// lookupReport returns the report stored for the program hashing to key,
// nil if none, adding its query count to the stats.
func (s *DetectSession) lookupReport(key uint64) *Report {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.reports[key]
	if !ok {
		return nil
	}
	s.stats.Queries += e.issued
	return &Report{Model: s.model, Pairs: e.pairs, Queries: e.issued}
}

// keep adds rep's counts to the stats and stores rep under the program's
// hash, the first writer winning, charging its pair array to Size. A
// stored pair's names are the facts' and layouts' own copies, so they pin
// no source text.
func (s *DetectSession) keep(prog uint64, rep *Report) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.stats.Queries += rep.Queries
	s.stats.Solved += rep.Solved
	s.stats.EncodersPlanned += rep.EncodersPlanned
	if _, ok := s.reports[prog]; !ok {
		s.reports[prog] = reportEntry{pairs: rep.Pairs, issued: rep.Queries}
		s.held += reportEntryBytes + len(rep.Pairs)*accessPairBytes
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

// lookupQuery returns a memoized answer.
func (s *DetectSession) lookupQuery(k memoKey) (cycleResult, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	r, ok := s.queries[k]
	return r, ok
}

// absorb merges the answers d's pass decided into the query memo, which
// the first merge creates at their number, and counts d's memo hits. A
// pass merges when it ends, cancelled or not: every answer is complete.
func (s *DetectSession) absorb(d *detector) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.stats.QueryHits += d.hits
	if len(d.pass.queries) == 0 {
		return
	}
	if s.queries == nil {
		s.queries = make(map[memoKey]cycleResult, len(d.pass.queries))
	}
	maps.Copy(s.queries, d.pass.queries)
}
