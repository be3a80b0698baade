package anomaly_test

import (
	"fmt"
	"reflect"
	"testing"

	"atropos/internal/anomaly"
	"atropos/internal/ast"
	"atropos/internal/benchmarks"
	"atropos/internal/progen"
)

// TestWavefrontEquivalentOnBenchmarks is the transaction fan-out's core
// contract on the full evaluation corpus: a fanned-out detection must
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
				t.Fatalf("%s %v: fan-out Detect: %v", b.Name, m, err)
			}
			if !reflect.DeepEqual(fresh.Pairs, cold.Pairs) {
				t.Fatalf("%s %v: fan-out diverges from fresh Detect:\nfresh %v\ngot   %v",
					b.Name, m, fresh.Pairs, cold.Pairs)
			}
			if cold.Queries != fresh.Queries {
				t.Errorf("%s %v: fan-out issued %d queries, fresh %d", b.Name, m, cold.Queries, fresh.Queries)
			}
			warm, err := s.Detect(prog)
			if err != nil {
				t.Fatalf("%s %v: warm fan-out Detect: %v", b.Name, m, err)
			}
			if !reflect.DeepEqual(fresh.Pairs, warm.Pairs) {
				t.Fatalf("%s %v: warm fan-out diverges", b.Name, m)
			}
			if warm.Solved != 0 {
				t.Errorf("%s %v: warm fan-out solved %d queries, want 0", b.Name, m, warm.Solved)
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
				t.Fatalf("seed %d %v: fan-out Detect: %v", seed, m, err)
			}
			if !reflect.DeepEqual(fresh.Pairs, got.Pairs) {
				t.Fatalf("seed %d %v: fan-out diverges:\nfresh %v\ngot   %v", seed, m, fresh.Pairs, got.Pairs)
			}
			if got.Queries != fresh.Queries {
				t.Errorf("seed %d %v: fan-out issued %d queries, fresh %d", seed, m, got.Queries, fresh.Queries)
			}
		}
	}
}

// TestWavefrontDuplicateFingerprints exercises the fan-out's deferral
// path: a program listing the same transaction node twice gives both
// copies one fingerprint, so the fan-out decides the first and answers the
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
	fan := anomaly.NewSession(anomaly.EC)
	fan.SetParallelism(anomaly.ForcedWidth())
	fo, err := fan.Detect(prog)
	if err != nil {
		t.Fatalf("fan-out session: %v", err)
	}
	if !reflect.DeepEqual(fresh.Pairs, sq.Pairs) || !reflect.DeepEqual(fresh.Pairs, fo.Pairs) {
		t.Fatalf("duplicate-txn reports diverge:\nfresh %v\nseq   %v\nfan   %v", fresh.Pairs, sq.Pairs, fo.Pairs)
	}
	if sq.Queries != fresh.Queries || fo.Queries != fresh.Queries {
		t.Errorf("queries diverge: fresh %d, seq %d, fan-out %d", fresh.Queries, sq.Queries, fo.Queries)
	}
	if sh, fh := seq.Stats().TxnHits, fan.Stats().TxnHits; sh != fh || sh != 1 {
		t.Errorf("txn-cache hits: seq %d, fan-out %d, want 1 each", sh, fh)
	}
	if sm, fm := seq.Stats().TxnMisses, fan.Stats().TxnMisses; sm != fm {
		t.Errorf("txn-cache misses diverge: seq %d, fan-out %d", sm, fm)
	}
}

// TestDetectWidthEquivalence pins what the fan-out width may change:
// nothing a caller sees. Over the nine benchmarks and progen 0–95, under
// EC, CC and RR, a new recording session reports the same pairs — witness
// schedules included — and the same Queries at widths 1, 2 and 8, and so
// does its second, fully cached pass.
func TestDetectWidthEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("full-corpus width sweep; skipped with -short")
	}
	type named struct {
		name string
		prog *ast.Program
	}
	var progs []named
	for _, b := range benchmarks.All() {
		progs = append(progs, named{b.Name, b.MustProgram()})
	}
	for seed := int64(0); seed < 96; seed++ {
		progs = append(progs, named{fmt.Sprintf("seed %d", seed), progen.Program(seed)})
	}
	for _, p := range progs {
		for _, m := range sessionModels {
			var want [2]*anomaly.Report
			for _, width := range []int{1, 2, 8} {
				s := anomaly.NewSession(m)
				s.RecordWitnesses()
				s.SetParallelism(width)
				for pass := range want {
					got, err := s.Detect(p.prog)
					if err != nil {
						t.Fatalf("%s %v width %d pass %d: %v", p.name, m, width, pass, err)
					}
					if want[pass] == nil {
						want[pass] = got
						continue
					}
					if !reflect.DeepEqual(got.Pairs, want[pass].Pairs) || got.Queries != want[pass].Queries {
						t.Fatalf("%s %v width %d pass %d: %d pairs / %d queries, width 1 %d / %d",
							p.name, m, width, pass, len(got.Pairs), got.Queries, len(want[pass].Pairs), want[pass].Queries)
					}
				}
			}
		}
	}
}
