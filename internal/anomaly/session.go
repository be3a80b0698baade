package anomaly

import (
	"context"
	"maps"
	"runtime"
	"slices"
	"sync"

	"atropos/internal/ast"
	"atropos/internal/logic"
	"atropos/internal/pool"
	"atropos/internal/sat"
)

// DetectSession is the anomaly detector: the bounded SAT oracle plus the
// memory of what it has already solved. A one-shot detection is a new
// session's first Detect call; the repair pipeline keeps one session across
// its three detection passes, which run over programs that differ only
// where a refactoring touched them. What a session reports never depends on
// what it remembers — every report equals a cache-free detector's (the
// reference kept in this package's tests).
//
// Two cache layers (see DESIGN.md §7 for the invalidation contract):
//
//   - Transaction level: each transaction's detection outcome is keyed by a
//     fingerprint of everything it can depend on — the transaction's own
//     text, the text of every witness transaction touching an overlapping
//     table, the schemas of every table either side touches, and the
//     consistency model. A re-detection after a refactoring therefore only
//     re-examines transactions whose code or relevant schema slice changed.
//   - Query level: each cycle-satisfiability query is keyed by the
//     canonical hash of its encoder's asserted formulas (logic.FormulaHash),
//     the encoder's prior query sequence (the CDCL solver is stateful, so
//     the sequence pins which model a satisfiable query returns — see
//     detector.solveCycle), and the two assumed dependency propositions.
//     Identically encoded (txn, witness) pairs running identical query
//     sequences — across detection passes or within one — share solved
//     verdicts and witness-edge data; a sequence divergence falls back to
//     solving, after replaying the skipped prefix for state parity.
//
// Detection work fans out over a work-stealing pool at (txn, witness)
// granularity (SetParallelism; see parallel.go): witness tasks advance in
// a wavefront that reproduces the sequential witness loop's early exits,
// so per-encoder query order — and with it every reported witness and
// field — matches the sequential oracle exactly.
//
// A session is safe for concurrent use by its own workers; callers should
// issue Detect calls sequentially.
type DetectSession struct {
	model       Model
	parallelism int
	// record opts every detection into witness-schedule extraction. It must
	// be set before the first Detect call: recording changes no encoding,
	// no solve, and no cache key, but cached cycle results only carry a
	// Schedule if their first (cache-missing) asker recorded one.
	record bool
	// budget, when limited, bounds every SAT solve the session's detectors
	// issue (see SetSolveBudget). Degraded per-transaction results are
	// never stored in the fingerprint cache, and unknown verdicts are never
	// stored in the query cache, so a later unbudgeted (or more generously
	// budgeted) detection re-solves exactly the work that was cut short.
	budget sat.Budget

	// onPlan is handed to every pass (see pass.onPlan); only tests set it.
	onPlan func(*detector, *pairEncoder)

	mu      sync.Mutex
	txns    map[uint64]txnEntry
	queries map[queryKey]*queryFuture
	stats   SessionStats
}

type txnEntry struct {
	pairs []AccessPair
	// issued is the number of cycle queries the transaction's detection
	// asked; replayed into the stats on a hit so Queries always reflects
	// the work a fresh detector would have done.
	issued int
}

// queryKey identifies one cycle-satisfiability query up to logical
// equivalence of its encoder and its solver's query history.
type queryKey struct {
	enc    uint64 // canonical formula hash of the (txn, witness) encoder
	hist   uint64 // chained hash of the encoder's prior queries
	a1, a2 uint64 // identities of the assumed dependency propositions
}

// queryFuture is a once-per-key slot: the first asker solves, concurrent
// askers wait, later askers hit. First-write-wins keeps parallel runs as
// deterministic as sequential ones. A producer whose solve aborts
// (cancelled context) sets err, removes the key, and closes done; waiters
// observe err and retry as producers under their own contexts, so a
// cancelled request never publishes a bogus verdict or strands other
// requests' queries.
type queryFuture struct {
	done   chan struct{}
	result cycleResult
	err    error
}

// SessionStats aggregates a session's cache effectiveness across all of
// its Detect calls.
type SessionStats struct {
	// Queries counts cycle-satisfiability queries a fresh (uncached)
	// detection of the same call sequence would have solved.
	Queries int
	// Solved counts cache-miss queries solved on a SAT solver.
	Solved int
	// Replayed counts cache-hit queries re-run on their own encoder's
	// solver to restore state parity before a subsequent miss (see
	// detector.solveCycle); they cost solver time without issuing new
	// answers.
	Replayed int
	// QueryHits counts queries answered from the formula-hash cache.
	QueryHits int
	// TxnHits / TxnMisses count transaction-level fingerprint outcomes.
	TxnHits   int
	TxnMisses int
	// EncodersPlanned counts the (txn, witness) pair plans computed for
	// cache-missing transactions; EncodersBuilt the SAT encodings actually
	// constructed for them — a plan builds its body on its first cycle
	// query, and most are never asked one.
	EncodersPlanned int
	EncodersBuilt   int
}

// CacheHitRate is the fraction of fresh-equivalent queries the session
// saved the solver: 1 - (Solved+Replayed)/Queries.
func (s SessionStats) CacheHitRate() float64 {
	if s.Queries == 0 {
		return 0
	}
	return 1 - float64(s.Solved+s.Replayed)/float64(s.Queries)
}

// defaultParallelismCap bounds the detection workers an unset width
// selects. Detection's parallel efficiency flattens past a handful of
// workers on typical benchmark programs (the wavefront couples witness
// tasks through the found bits, and the session cache serializes identical
// queries), while callers like the experiment grid fan whole repairs out
// and want the remaining cores for that outer level — so the default claims
// at most four.
const defaultParallelismCap = 4

// DefaultParallelism is the detection width an unset (zero or negative)
// SetParallelism resolves to: min(GOMAXPROCS, 4). It is the one rule for
// width 0; every layer above passes its zero through to the session.
func DefaultParallelism() int {
	return min(runtime.GOMAXPROCS(0), defaultParallelismCap)
}

// NewSession creates a detection session for one consistency model.
func NewSession(model Model) *DetectSession {
	return &DetectSession{
		model:   model,
		txns:    map[uint64]txnEntry{},
		queries: map[queryKey]*queryFuture{},
	}
}

// Model returns the session's consistency model.
func (s *DetectSession) Model() Model { return s.model }

// SetParallelism bounds the worker goroutines Detect fans (txn, witness)
// tasks out on; n <= 0 selects DefaultParallelism, 1 forces sequential
// detection.
// Reported pairs are identical at every setting — the wavefront reproduces
// each encoder's sequential query order (parallel.go), and cached values
// are pinned to the producer's solver state by the history-keyed cache, so
// they do not depend on which worker populates a key first. Only the
// Solved/Replayed/QueryHits stats can shift under concurrency.
func (s *DetectSession) SetParallelism(n int) { s.parallelism = n }

// RecordWitnesses opts every subsequent detection into witness-schedule
// extraction (see witness.go): reported pairs carry Witness.Schedule.
// Call it before the session's first Detect — cycle results cached by a
// non-recording detection have no schedule to share. Cache keys, reports,
// and statistics are unaffected.
func (s *DetectSession) RecordWitnesses() { s.record = true }

// Recording reports whether witness-schedule extraction is enabled. Callers
// injecting a shared session into a certifying pipeline must check this:
// cached results from a non-recording session carry no schedules.
func (s *DetectSession) Recording() bool { return s.record }

// SetSolveBudget bounds every SAT solve of subsequent Detect calls by b
// (sat.Budget semantics; the zero budget removes the bound). Budgeted
// detections may return Degraded reports; their partial results never
// enter the session's caches, so flipping the budget between calls is
// always sound. Set it between Detect calls, not during one.
func (s *DetectSession) SetSolveBudget(b sat.Budget) { s.budget = b }

// Stats returns a snapshot of the session's aggregate cache statistics.
func (s *DetectSession) Stats() SessionStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// Reset drops all cached detection work (statistics are kept). Long-lived
// sessions — an editing loop detecting after every change — grow a cache
// entry per unique transaction fingerprint and solved query; call Reset
// periodically to bound memory at the cost of re-solving afterwards.
func (s *DetectSession) Reset() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.txns = map[uint64]txnEntry{}
	s.queries = map[queryKey]*queryFuture{}
}

// Detect runs the oracle over every transaction of the program, reusing
// all applicable cached work.
func (s *DetectSession) Detect(prog *ast.Program) (*Report, error) {
	return s.DetectContext(context.Background(), prog)
}

// DetectContext is Detect with cancellation: the context aborts in-flight
// SAT solves and the transaction fan-out, returning ctx.Err(). Work cached
// before the abort remains valid — a cancelled call never stores partial or
// interrupted results (see query).
func (s *DetectSession) DetectContext(ctx context.Context, prog *ast.Program) (*Report, error) {
	n := len(prog.Txns)
	// Precompute each transaction's structural hash and table set (the
	// pass's) once; fingerprinting consults every (txn, witness)
	// combination. The hashes are memoized on the transaction nodes
	// (ast.HashTxn), and the refactoring engine is copy-on-write, so a
	// transaction the previous refactoring step did not touch keeps its
	// node — hashing it again here is one atomic load, where the
	// pre-hash-consing engine re-printed every transaction on each of the
	// pipeline's three detection passes. This sequential prepass also
	// publishes every memo before the workers fan out below.
	p := newPass(prog, s.model, s.record)
	p.onPlan = s.onPlan
	hashes := make([]uint64, n)
	for i, t := range prog.Txns {
		hashes[i] = ast.HashTxn(t)
	}
	schemaHash := make(map[string]uint64, len(prog.Schemas))
	for _, sch := range prog.Schemas {
		schemaHash[sch.Name] = ast.HashSchema(sch)
	}
	fps := make([]uint64, n)
	for i := range prog.Txns {
		fps[i] = fingerprintTxn(prog, i, hashes, p.tables, schemaHash, s.model)
	}
	var outs []txnOut
	var err error
	workers := s.parallelism
	if workers <= 0 {
		workers = DefaultParallelism()
	}
	if workers > 1 {
		// Wavefront fan-out over (txn, witness) tasks — see parallel.go for
		// why the reports stay byte-identical to the sequential oracle.
		outs, err = s.detectWavefront(ctx, p, workers, fps)
	} else {
		outs = make([]txnOut, n)
		err = pool.ForEach(1, n, func(i int) error {
			if err := ctx.Err(); err != nil {
				return err
			}
			if e, ok := s.lookupTxn(fps[i]); ok {
				outs[i] = txnOut{pairs: e.pairs, issued: e.issued}
				return nil
			}
			out, err := s.detectTxn(ctx, p, i, fps[i])
			outs[i] = out
			return err
		})
	}
	if err != nil {
		return nil, err
	}
	report := &Report{Model: s.model, EncodersPlanned: p.planned, EncodersBuilt: int(p.built.Load())}
	replayed, nPairs, nUnknown := 0, 0, 0
	for _, o := range outs {
		nPairs += len(o.pairs)
		nUnknown += len(o.unknown)
	}
	// One allocation each: on a pass of fingerprint hits, growing these by
	// append was most of the bytes the pass allocated.
	if nPairs > 0 {
		report.Pairs = make([]AccessPair, 0, nPairs)
	}
	if nUnknown > 0 {
		report.UnknownPairs = make([]UnknownPair, 0, nUnknown)
	}
	for _, o := range outs {
		report.Pairs = append(report.Pairs, o.pairs...)
		report.UnknownPairs = append(report.UnknownPairs, o.unknown...)
		report.Queries += o.issued
		report.Solved += o.solved
		report.Exhausted += o.exhausted
		replayed += o.replayed
	}
	report.Unknown = len(report.UnknownPairs)
	report.Degraded = report.Exhausted > 0
	s.mu.Lock()
	s.stats.Queries += report.Queries
	s.stats.Solved += report.Solved
	s.stats.Replayed += replayed
	s.stats.EncodersPlanned += report.EncodersPlanned
	s.stats.EncodersBuilt += report.EncodersBuilt
	s.mu.Unlock()
	return report, nil
}

// newDetector makes a detector of pass p wired to the session's cache and
// settings.
func (s *DetectSession) newDetector(ctx context.Context, p *pass) *detector {
	d := &detector{pass: p, session: s, budget: s.budget}
	d.setContext(ctx)
	return d
}

// detectTxn detects one fingerprint-missing transaction on a detector of
// its own and stores the outcome if it is complete.
func (s *DetectSession) detectTxn(ctx context.Context, p *pass, i int, fp uint64) (txnOut, error) {
	d := s.newDetector(ctx, p)
	pairs, err := d.detectTxn(i)
	d.releaseEncoders()
	if err != nil {
		return txnOut{}, err
	}
	// Degraded results are partial, so only complete detections enter the
	// fingerprint cache: a cached entry must equal what a fresh unbudgeted
	// oracle would report.
	if d.exhausted == 0 {
		s.storeTxn(fp, txnEntry{pairs: pairs, issued: d.issued})
	}
	return txnOut{pairs: pairs, unknown: d.unknownPairs, issued: d.issued, solved: d.solved, replayed: d.replayed, exhausted: d.exhausted}, nil
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
	if _, ok := s.txns[fp]; !ok {
		s.txns[fp] = e
	}
}

// query answers one cycle query through the cache: the first asker of a key
// runs solve() and publishes the result, concurrent askers of the same key
// wait for it, and later askers hit. hit reports whether solve was skipped.
//
// Cancellation never poisons the cache: a producer whose solve errors
// removes its future before publishing the error, so only real verdicts are
// ever stored, and a waiter whose producer aborted loops back to become the
// producer itself (under its own context).
func (s *DetectSession) query(ctx context.Context, key queryKey, solve func() (cycleResult, error)) (r cycleResult, hit bool, err error) {
	for {
		s.mu.Lock()
		if f, ok := s.queries[key]; ok {
			s.stats.QueryHits++
			s.mu.Unlock()
			select {
			case <-f.done:
			case <-ctx.Done():
				return cycleResult{}, false, ctx.Err()
			}
			if f.err != nil {
				// The producer aborted without an answer; un-count the hit
				// and retry (the key was removed, so this asker produces).
				s.mu.Lock()
				s.stats.QueryHits--
				s.mu.Unlock()
				continue
			}
			return f.result, true, nil
		}
		f := &queryFuture{done: make(chan struct{})}
		s.queries[key] = f
		s.mu.Unlock()
		r, err = solve()
		if err != nil {
			s.mu.Lock()
			delete(s.queries, key)
			s.mu.Unlock()
			f.err = err
			close(f.done)
			return cycleResult{}, false, err
		}
		f.result = r
		close(f.done)
		return r, false, nil
	}
}

// fingerprintTxn digests everything transaction i's detection outcome can
// depend on: its own structural hash, the hash of every potential witness
// (a transaction touching at least one common table, in program order —
// the first satisfiable witness is the one reported), the schemas of every
// table it or those witnesses touch, and the consistency model.
// Transactions sharing no table with it cannot contribute a dependency
// edge and are excluded, so refactoring them does not invalidate i.
// hashes, tables, and schemaHash are the per-pass precomputations of
// Detect: structural hashes (ast.HashTxn / ast.HashSchema) replaced the
// printed-text digests the session used before hash-consing, so a pass
// over a mostly-shared program prints nothing at all.
func fingerprintTxn(prog *ast.Program, i int, hashes []uint64, tables []map[string]bool, schemaHash map[string]uint64, model Model) uint64 {
	h := logic.ChainString(logic.ChainSeed, model.String())
	h = logic.ChainUint64(h, hashes[i])
	relevant := tables[i]
	var merged map[string]bool
	for j := range prog.Txns {
		if !sharesTable(tables[i], tables[j]) {
			continue
		}
		h = logic.ChainString(h, "\x00witness\x00")
		h = logic.ChainUint64(h, hashes[j])
		if j != i {
			if merged == nil {
				merged = make(map[string]bool, len(relevant)+len(tables[j]))
				for tb := range relevant {
					merged[tb] = true
				}
				relevant = merged
			}
			for tb := range tables[j] {
				merged[tb] = true
			}
		}
	}
	for _, name := range slices.Sorted(maps.Keys(relevant)) {
		if sh, ok := schemaHash[name]; ok {
			h = logic.ChainString(h, "\x00schema\x00")
			h = logic.ChainUint64(h, sh)
		}
	}
	return h
}

// txnTables is the set of tables a transaction's commands touch.
func txnTables(t *ast.Txn) map[string]bool {
	out := map[string]bool{}
	for _, c := range ast.Commands(t.Body) {
		out[c.TableName()] = true
	}
	return out
}
