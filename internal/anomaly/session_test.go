package anomaly_test

import (
	"reflect"
	"testing"

	"atropos/internal/anomaly"
	"atropos/internal/ast"
	"atropos/internal/benchmarks"
	"atropos/internal/parser"
	"atropos/internal/progen"
	"atropos/internal/sema"
)

func mustProgT(t *testing.T, src string) *ast.Program {
	t.Helper()
	p, err := parser.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if err := sema.Check(p); err != nil {
		t.Fatalf("sema: %v", err)
	}
	return p
}

// sessionModels are the weak models the incremental engine is exercised
// under (SC is uninteresting: every query is unsatisfiable).
var sessionModels = []anomaly.Model{anomaly.EC, anomaly.CC, anomaly.RR}

// TestSessionEquivalentOnRandomPrograms is the incremental engine's core
// contract, validated over randomized programs: a DetectSession must
// report byte-identical pairs to a fresh Detect — on a cold cache, on a
// warm cache (second call over the same program), and with transaction
// fan-out enabled.
func TestSessionEquivalentOnRandomPrograms(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	for seed := int64(0); seed < 30; seed++ {
		p := progen.Program(seed)
		for _, m := range sessionModels {
			fresh, err := anomaly.FreshDetect(p, m)
			if err != nil {
				t.Fatalf("seed %d %v: Detect: %v", seed, m, err)
			}
			s := anomaly.NewSession(m)
			s.SetParallelism(1)
			cold, err := s.Detect(p)
			if err != nil {
				t.Fatalf("seed %d %v: session Detect: %v", seed, m, err)
			}
			if !reflect.DeepEqual(fresh.Pairs, cold.Pairs) {
				t.Fatalf("seed %d %v: cold session diverges:\nfresh %v\ncold  %v", seed, m, fresh.Pairs, cold.Pairs)
			}
			if cold.Queries != fresh.Queries {
				t.Errorf("seed %d %v: cold session issued %d queries, fresh %d", seed, m, cold.Queries, fresh.Queries)
			}
			warm, err := s.Detect(p)
			if err != nil {
				t.Fatalf("seed %d %v: warm Detect: %v", seed, m, err)
			}
			if !reflect.DeepEqual(fresh.Pairs, warm.Pairs) {
				t.Fatalf("seed %d %v: warm session diverges", seed, m)
			}
			if warm.Solved != 0 {
				t.Errorf("seed %d %v: warm re-detection solved %d queries, want 0 (txn cache should absorb the call)", seed, m, warm.Solved)
			}

			par := anomaly.NewSession(m)
			par.SetParallelism(4)
			pr, err := par.Detect(p)
			if err != nil {
				t.Fatalf("seed %d %v: parallel session Detect: %v", seed, m, err)
			}
			if !reflect.DeepEqual(fresh.Pairs, pr.Pairs) {
				t.Fatalf("seed %d %v: parallel session diverges:\nfresh %v\npar   %v", seed, m, fresh.Pairs, pr.Pairs)
			}
		}
	}
}

// TestSessionEquivalentOnBenchmarks pins the contract on the full
// evaluation corpus: every benchmark under EC, CC, and RR.
func TestSessionEquivalentOnBenchmarks(t *testing.T) {
	if testing.Short() {
		t.Skip("full-corpus equivalence; skipped with -short")
	}
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
			got, err := s.Detect(prog)
			if err != nil {
				t.Fatalf("%s %v: session Detect: %v", b.Name, m, err)
			}
			if !reflect.DeepEqual(fresh.Pairs, got.Pairs) {
				t.Errorf("%s %v: session diverges from fresh Detect", b.Name, m)
			}
			if got.Queries != fresh.Queries || got.Solved > fresh.Solved {
				t.Errorf("%s %v: queries %d/%d solved %d/%d (session/fresh)",
					b.Name, m, got.Queries, fresh.Queries, got.Solved, fresh.Solved)
			}
		}
	}
}

// TestSessionInvalidation verifies the fingerprint contract: after editing
// one transaction, re-detection reuses every unrelated transaction's
// result and re-solves only what the edit could affect — and still matches
// a fresh detection of the edited program.
func TestSessionInvalidation(t *testing.T) {
	const before = `
table A { a_id: int key, a_n: int, }
table B { b_id: int key, b_n: int, }
txn incA(k: int) {
  x := select a_n from A where a_id = k;
  update A set a_n = x.a_n + 1 where a_id = k;
}
txn incB(k: int) {
  x := select b_n from B where b_id = k;
  update B set b_n = x.b_n + 1 where b_id = k;
}
`
	// incB gains a second bump; incA and its witnesses are untouched.
	const after = `
table A { a_id: int key, a_n: int, }
table B { b_id: int key, b_n: int, }
txn incA(k: int) {
  x := select a_n from A where a_id = k;
  update A set a_n = x.a_n + 1 where a_id = k;
}
txn incB(k: int) {
  x := select b_n from B where b_id = k;
  update B set b_n = x.b_n + 2 where b_id = k;
  update B set b_n = x.b_n + 3 where b_id = k;
}
`
	p1 := mustProgT(t, before)
	p2 := mustProgT(t, after)
	s := anomaly.NewSession(anomaly.EC)
	if _, err := s.Detect(p1); err != nil {
		t.Fatal(err)
	}
	base := s.Stats()
	got, err := s.Detect(p2)
	if err != nil {
		t.Fatal(err)
	}
	delta := s.Stats()
	if hits := delta.TxnHits - base.TxnHits; hits != 1 {
		t.Errorf("txn cache hits on re-detection = %d, want 1 (incA untouched)", hits)
	}
	fresh, err := anomaly.FreshDetect(p2, anomaly.EC)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fresh.Pairs, got.Pairs) {
		t.Errorf("re-detection after edit diverges from fresh Detect:\nfresh %v\ngot   %v", fresh.Pairs, got.Pairs)
	}
}

// TestSessionReset: dropping the caches forces re-solving but never
// changes results.
func TestSessionReset(t *testing.T) {
	p := progen.Program(7)
	s := anomaly.NewSession(anomaly.EC)
	first, err := s.Detect(p)
	if err != nil {
		t.Fatal(err)
	}
	s.Reset()
	again, err := s.Detect(p)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first.Pairs, again.Pairs) {
		t.Error("detection after Reset diverges")
	}
	if first.Queries > 0 && again.Solved != first.Solved {
		t.Errorf("post-Reset detection solved %d queries, want %d (cold-cache behavior)", again.Solved, first.Solved)
	}
}

// TestSessionSchemaSliceInvalidation: editing a schema invalidates exactly
// the transactions touching it.
func TestSessionSchemaSliceInvalidation(t *testing.T) {
	const before = `
table A { a_id: int key, a_n: int, }
table B { b_id: int key, b_n: int, }
txn incA(k: int) {
  x := select a_n from A where a_id = k;
  update A set a_n = x.a_n + 1 where a_id = k;
}
txn incB(k: int) {
  x := select b_n from B where b_id = k;
  update B set b_n = x.b_n + 1 where b_id = k;
}
`
	// B grows a field; incA's relevant schema slice is unchanged.
	const after = `
table A { a_id: int key, a_n: int, }
table B { b_id: int key, b_n: int, b_extra: int, }
txn incA(k: int) {
  x := select a_n from A where a_id = k;
  update A set a_n = x.a_n + 1 where a_id = k;
}
txn incB(k: int) {
  x := select b_n from B where b_id = k;
  update B set b_n = x.b_n + 1 where b_id = k;
}
`
	s := anomaly.NewSession(anomaly.EC)
	if _, err := s.Detect(mustProgT(t, before)); err != nil {
		t.Fatal(err)
	}
	base := s.Stats()
	if _, err := s.Detect(mustProgT(t, after)); err != nil {
		t.Fatal(err)
	}
	delta := s.Stats()
	if hits := delta.TxnHits - base.TxnHits; hits != 1 {
		t.Errorf("txn cache hits = %d, want 1 (only incA's slice is unchanged)", hits)
	}
}
