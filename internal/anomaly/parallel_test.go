package anomaly_test

import (
	"reflect"
	"testing"

	"atropos/internal/anomaly"
	"atropos/internal/benchmarks"
	"atropos/internal/progen"
	"atropos/internal/sat"
)

// TestWavefrontEquivalentOnBenchmarks is the parallel fast path's core
// contract on the full evaluation corpus: a wavefront detection must
// report byte-identical pairs — and issue the same number of queries —
// as the sequential fresh oracle, under every weak model, cold and warm.
func TestWavefrontEquivalentOnBenchmarks(t *testing.T) {
	if testing.Short() {
		t.Skip("full-corpus equivalence; skipped with -short")
	}
	par := anomaly.ForcedWidth()
	for _, b := range benchmarks.All() {
		prog, err := b.Program()
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range sessionModels {
			fresh, err := anomaly.FreshDetect(prog, m)
			if err != nil {
				t.Fatalf("%s %v: Detect: %v", b.Name, m, err)
			}
			s := anomaly.NewSession(m)
			s.SetParallelism(par)
			cold, err := s.Detect(prog)
			if err != nil {
				t.Fatalf("%s %v: wavefront Detect: %v", b.Name, m, err)
			}
			if !reflect.DeepEqual(fresh.Pairs, cold.Pairs) {
				t.Fatalf("%s %v: wavefront diverges from fresh Detect:\nfresh %v\ngot   %v",
					b.Name, m, fresh.Pairs, cold.Pairs)
			}
			if cold.Queries != fresh.Queries {
				t.Errorf("%s %v: wavefront issued %d queries, fresh %d", b.Name, m, cold.Queries, fresh.Queries)
			}
			warm, err := s.Detect(prog)
			if err != nil {
				t.Fatalf("%s %v: warm wavefront Detect: %v", b.Name, m, err)
			}
			if !reflect.DeepEqual(fresh.Pairs, warm.Pairs) {
				t.Fatalf("%s %v: warm wavefront diverges", b.Name, m)
			}
			if warm.Solved != 0 {
				t.Errorf("%s %v: warm wavefront solved %d queries, want 0", b.Name, m, warm.Solved)
			}
		}
	}
}

// TestWavefrontEquivalentOnRandomPrograms pins the same contract over
// generator-derived programs, whose witness structure is adversarial in
// ways the benchmarks are not (empty transactions, single-table
// programs, dense overlap).
func TestWavefrontEquivalentOnRandomPrograms(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	par := anomaly.ForcedWidth()
	for seed := int64(0); seed < 20; seed++ {
		p := progen.Program(seed)
		for _, m := range sessionModels {
			fresh, err := anomaly.FreshDetect(p, m)
			if err != nil {
				t.Fatalf("seed %d %v: Detect: %v", seed, m, err)
			}
			s := anomaly.NewSession(m)
			s.SetParallelism(par)
			got, err := s.Detect(p)
			if err != nil {
				t.Fatalf("seed %d %v: wavefront Detect: %v", seed, m, err)
			}
			if !reflect.DeepEqual(fresh.Pairs, got.Pairs) {
				t.Fatalf("seed %d %v: wavefront diverges:\nfresh %v\ngot   %v", seed, m, fresh.Pairs, got.Pairs)
			}
			if got.Queries != fresh.Queries {
				t.Errorf("seed %d %v: wavefront issued %d queries, fresh %d", seed, m, got.Queries, fresh.Queries)
			}
		}
	}
}

// TestWavefrontDuplicateFingerprints exercises the deferral path: a
// program listing the same transaction node twice gives both copies one
// fingerprint, so the wavefront schedules the first and answers the
// second from the first's cached entry — counting exactly the
// transaction-cache hit the sequential order would.
func TestWavefrontDuplicateFingerprints(t *testing.T) {
	prog := mustProgT(t, `
table account { id: int key, bal: int, }
txn Deposit(a: int, v: int) {
  x := select bal from account where id = a;
  update account set bal = x.bal + v where id = a;
}
txn Audit(a: int) {
  x := select bal from account where id = a;
  update account set bal = x.bal where id = a;
}
`)
	prog.Txns = append(prog.Txns, prog.Txns[0])
	fresh, err := anomaly.FreshDetect(prog, anomaly.EC)
	if err != nil {
		t.Fatalf("Detect: %v", err)
	}

	seq := anomaly.NewSession(anomaly.EC)
	seq.SetParallelism(1)
	sq, err := seq.Detect(prog)
	if err != nil {
		t.Fatalf("sequential session: %v", err)
	}
	wav := anomaly.NewSession(anomaly.EC)
	wav.SetParallelism(anomaly.ForcedWidth())
	wv, err := wav.Detect(prog)
	if err != nil {
		t.Fatalf("wavefront session: %v", err)
	}
	if !reflect.DeepEqual(fresh.Pairs, sq.Pairs) || !reflect.DeepEqual(fresh.Pairs, wv.Pairs) {
		t.Fatalf("duplicate-txn reports diverge:\nfresh %v\nseq   %v\nwave  %v", fresh.Pairs, sq.Pairs, wv.Pairs)
	}
	if sq.Queries != fresh.Queries || wv.Queries != fresh.Queries {
		t.Errorf("queries diverge: fresh %d, seq %d, wave %d", fresh.Queries, sq.Queries, wv.Queries)
	}
	if sh, wh := seq.Stats().TxnHits, wav.Stats().TxnHits; sh != wh {
		t.Errorf("txn-cache hits diverge: seq %d, wave %d", sh, wh)
	}
}

// TestWavefrontBudgetedEquivalence checks that a starved solve budget
// degrades the wavefront exactly as it degrades the sequential session:
// same pairs, same unknowns, same query count. Budget exhaustion is a
// deterministic function of each solve's position in its encoder's query
// sequence, which the wavefront reproduces.
func TestWavefrontBudgetedEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	starved := sat.Budget{Propagations: 1}
	for seed := int64(0); seed < 10; seed++ {
		p := progen.Program(seed)
		// Duplicate the first transaction so exhaustion also exercises the
		// deferral fallback: a degraded first copy stores no cache entry,
		// and the deferred copy must re-detect directly.
		if len(p.Txns) > 0 {
			p.Txns = append(p.Txns, p.Txns[0])
		}
		seq := anomaly.NewSession(anomaly.EC)
		seq.SetParallelism(1)
		seq.SetSolveBudget(starved)
		sq, err := seq.Detect(p)
		if err != nil {
			t.Fatalf("seed %d: sequential budgeted Detect: %v", seed, err)
		}
		wav := anomaly.NewSession(anomaly.EC)
		wav.SetParallelism(anomaly.ForcedWidth())
		wav.SetSolveBudget(starved)
		wv, err := wav.Detect(p)
		if err != nil {
			t.Fatalf("seed %d: wavefront budgeted Detect: %v", seed, err)
		}
		if !reflect.DeepEqual(sq.Pairs, wv.Pairs) {
			t.Fatalf("seed %d: budgeted pairs diverge:\nseq  %v\nwave %v", seed, sq.Pairs, wv.Pairs)
		}
		if !reflect.DeepEqual(sq.UnknownPairs, wv.UnknownPairs) {
			t.Fatalf("seed %d: unknown pairs diverge:\nseq  %v\nwave %v", seed, sq.UnknownPairs, wv.UnknownPairs)
		}
		if sq.Queries != wv.Queries || sq.Degraded != wv.Degraded {
			t.Errorf("seed %d: queries %d/%d degraded %t/%t (seq/wave)",
				seed, sq.Queries, wv.Queries, sq.Degraded, wv.Degraded)
		}
	}
}
