package anomaly_test

import (
	"fmt"
	"reflect"
	"testing"

	"atropos/internal/anomaly"
	"atropos/internal/ast"
	"atropos/internal/corpus"
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
// report byte-identical pairs to a fresh Detect — on a cold cache, and on a
// warm cache (second call over the same program).
func TestSessionEquivalentOnRandomPrograms(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	for _, c := range corpus.Progen(0, 30) {
		p, name := c.Prog, c.Name
		for _, m := range sessionModels {
			fresh, err := anomaly.FreshDetect(p, m)
			if err != nil {
				t.Fatalf("%s %v: Detect: %v", name, m, err)
			}
			s := anomaly.NewSession(m)
			cold, err := s.Detect(p)
			if err != nil {
				t.Fatalf("%s %v: session Detect: %v", name, m, err)
			}
			if !reflect.DeepEqual(fresh.Pairs, cold.Pairs) {
				t.Fatalf("%s %v: cold session diverges:\nfresh %v\ncold  %v", name, m, fresh.Pairs, cold.Pairs)
			}
			if cold.Queries != fresh.Queries {
				t.Errorf("%s %v: cold session issued %d queries, fresh %d", name, m, cold.Queries, fresh.Queries)
			}
			warm, err := s.Detect(p)
			if err != nil {
				t.Fatalf("%s %v: warm Detect: %v", name, m, err)
			}
			if !reflect.DeepEqual(fresh.Pairs, warm.Pairs) {
				t.Fatalf("%s %v: warm session diverges", name, m)
			}
			if warm.Solved != 0 {
				t.Errorf("%s %v: warm re-detection solved %d queries, want 0 (txn cache should absorb the call)", name, m, warm.Solved)
			}
		}
	}
}

// TestDuplicateFingerprints: a program listing the same transaction node
// twice gives both copies one fingerprint, so detection decides the first
// and answers the second from the first's cached entry — one
// transaction-cache hit, and the fresh oracle's pairs and queries.
func TestDuplicateFingerprints(t *testing.T) {
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

	s := anomaly.NewSession(anomaly.EC)
	got, err := s.Detect(prog)
	if err != nil {
		t.Fatalf("session: %v", err)
	}
	if !reflect.DeepEqual(fresh.Pairs, got.Pairs) {
		t.Fatalf("duplicate-txn reports diverge:\nfresh %v\ngot   %v", fresh.Pairs, got.Pairs)
	}
	if got.Queries != fresh.Queries {
		t.Errorf("queries diverge: fresh %d, session %d", fresh.Queries, got.Queries)
	}
	if st := s.Stats(); st.TxnHits != 1 || st.TxnMisses != len(prog.Txns)-1 {
		t.Errorf("txn-cache hits %d, misses %d; want 1 and %d", st.TxnHits, st.TxnMisses, len(prog.Txns)-1)
	}
}

// without returns prog with transaction k dropped: an edit.
func without(prog *ast.Program, k int) *ast.Program {
	rest := append(append([]*ast.Txn{}, prog.Txns[:k]...), prog.Txns[k+1:]...)
	return &ast.Program{Schemas: prog.Schemas, Txns: rest}
}

// reordered returns prog with its schemas in reverse order after a new,
// untouched table: almost every table gets another index, and every
// transaction keeps its node.
func reordered(prog *ast.Program) *ast.Program {
	schemas := []*ast.Schema{{Name: "inserted_first", Fields: []*ast.Field{{Name: "id", Type: ast.TInt, PK: true}}}}
	for i := len(prog.Schemas) - 1; i >= 0; i-- {
		schemas = append(schemas, prog.Schemas[i])
	}
	return ast.WithSchemas(prog, schemas)
}

// sameAsFresh requires a session report to equal the cache-free reference
// detection of prog — pairs and queries — and to have solved no more
// queries than it did.
func sameAsFresh(t *testing.T, what string, prog *ast.Program, m anomaly.Model, got *anomaly.Report) {
	t.Helper()
	fresh, err := anomaly.FreshDetect(prog, m)
	if err != nil {
		t.Fatalf("%s: fresh Detect: %v", what, err)
	}
	if !reflect.DeepEqual(fresh.Pairs, got.Pairs) || got.Queries != fresh.Queries || got.Solved > fresh.Solved {
		t.Fatalf("%s: session diverges from fresh Detect (queries %d/%d, solved %d/%d, session/fresh):\nfresh %v\ngot   %v",
			what, got.Queries, fresh.Queries, got.Solved, fresh.Solved, fresh.Pairs, got.Pairs)
	}
}

// TestSessionEquivalentOnBenchmarks pins the contract on the full
// evaluation corpus under an editing loop: per benchmark and model, one
// session detects the program, then for each transaction the program without it and the
// program restored, and every report equals a fresh detection's. A memo
// key that missed something an answer depends on would answer a query
// from the wrong pair here. Under EC the loop's counts are pinned: of its 1 368 queries, 317 are decided and 1 051 answered from the
// memo (a memo keyed by the solver's query history decided 384 and re-ran
// 65 more to restore solver state).
func TestSessionEquivalentOnBenchmarks(t *testing.T) {
	if testing.Short() {
		t.Skip("full-corpus equivalence; skipped with -short")
	}
	for _, m := range sessionModels {
		editLoop(t, m)
	}
}

// editLoop runs TestSessionEquivalentOnBenchmarks' loop for one model.
func editLoop(t *testing.T, m anomaly.Model) {
	t.Helper()
	var sum anomaly.SessionStats
	for _, b := range corpus.Benchmarks() {
		prog := b.Prog
		s := anomaly.NewSession(m)
		detect := func(what string, p *ast.Program) {
			got, err := s.Detect(p)
			if err != nil {
				t.Fatalf("%s %v %s: session Detect: %v", b.Name, m, what, err)
			}
			sameAsFresh(t, fmt.Sprintf("%s %v %s", b.Name, m, what), p, m, got)
		}
		detect("original", prog)
		for k, txn := range prog.Txns {
			detect("without "+txn.Name, without(prog, k))
			detect("restored "+txn.Name, prog)
		}
		st := s.Stats()
		sum.Solved += st.Solved
		sum.Replayed += st.Replayed
		sum.QueryHits += st.QueryHits
	}
	if m == anomaly.EC && (sum.Solved != 317 || sum.Replayed != 0 || sum.QueryHits != 1051) {
		t.Errorf("EC edit loop: solved %d replayed %d hits %d, want solved 317, replayed 0, hits 1051",
			sum.Solved, sum.Replayed, sum.QueryHits)
	}
}

// TestFactsSurviveASchemaReorder: a session that detects P and then P′,
// P's schemas reordered behind a new first table, reports for P′, and for
// P′ without each of its transactions, what a fresh detection does. The
// edits miss the fingerprints, so their plans read facts back from the
// session; facts name tables by index, so a facts key that left the
// indices out would hand P′ facts that point at the wrong schemas.
func TestFactsSurviveASchemaReorder(t *testing.T) {
	for _, c := range corpus.Programs(16) {
		for _, m := range sessionModels {
			s := anomaly.NewSession(m)
			if _, err := s.Detect(c.Prog); err != nil {
				t.Fatal(err)
			}
			p := reordered(c.Prog)
			progs := []*ast.Program{p}
			for k := range p.Txns {
				progs = append(progs, without(p, k))
			}
			for i, q := range progs {
				got, err := s.Detect(q)
				if err != nil {
					t.Fatalf("%s %v reordered, step %d: %v", c.Name, m, i, err)
				}
				sameAsFresh(t, fmt.Sprintf("%s %v reordered, step %d", c.Name, m, i), q, m, got)
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

// TestSessionSize: a session's size grows with what it stores and not
// with what it answers from memory: repeating a program, as the same
// nodes or re-parsed, adds nothing, and a new program adds its report.
func TestSessionSize(t *testing.T) {
	s := anomaly.NewSession(anomaly.EC)
	empty := s.Size()
	if _, err := s.Detect(progen.Program(7)); err != nil {
		t.Fatal(err)
	}
	grown := s.Size()
	for _, p := range []*ast.Program{progen.Program(7), mustProgT(t, ast.Format(progen.Program(7)))} {
		if _, err := s.Detect(p); err != nil {
			t.Fatal(err)
		}
	}
	if again := s.Size(); empty <= 0 || grown <= empty || again != grown {
		t.Fatalf("size empty %d, after a detection %d, after repeating it %d; want 0 < empty < after = repeated", empty, grown, again)
	}
	if _, err := s.Detect(progen.Program(8)); err != nil {
		t.Fatal(err)
	}
	if more := s.Size(); more <= grown {
		t.Fatalf("size %d after a new program, %d before; want more", more, grown)
	}
}

// TestReportMemo: a session answers a program it detected before, as the
// same nodes or as a re-parse of its text, from its report memo: what a
// fresh detection reports, nothing solved or planned, and to the stats
// exactly what a pass of transaction hits adds. A caller appending to a
// returned report changes no later one.
func TestReportMemo(t *testing.T) {
	for _, c := range corpus.Programs(8) {
		for _, m := range sessionModels {
			s := anomaly.NewSession(m)
			if _, err := s.Detect(c.Prog); err != nil {
				t.Fatal(err)
			}
			reparsed := mustProgT(t, ast.Format(c.Prog))
			for i, p := range []*ast.Program{c.Prog, reparsed, c.Prog} {
				what := fmt.Sprintf("%s %v repeat %d", c.Name, m, i)
				want := s.Stats()
				got, err := s.Detect(p)
				if err != nil {
					t.Fatalf("%s: %v", what, err)
				}
				sameAsFresh(t, what, p, m, got)
				if got.Solved != 0 || got.EncodersPlanned != 0 {
					t.Errorf("%s: solved %d, planned %d; want 0 and 0", what, got.Solved, got.EncodersPlanned)
				}
				want.TxnHits += len(p.Txns)
				want.Queries += got.Queries
				if st := s.Stats(); st != want {
					t.Errorf("%s: stats %+v, want %+v", what, st, want)
				}
				got.Pairs = append(got.Pairs, anomaly.AccessPair{Txn: "appended"})
			}
			// Its schemas reordered behind a new table, the program is
			// another: every transaction hits, the report does not.
			want := s.Stats()
			p := reordered(c.Prog)
			got, err := s.Detect(p)
			if err != nil {
				t.Fatal(err)
			}
			sameAsFresh(t, fmt.Sprintf("%s %v reordered", c.Name, m), p, m, got)
			want.TxnHits += len(p.Txns)
			want.Queries += got.Queries
			if st := s.Stats(); st != want || got.Solved != 0 {
				t.Errorf("%s %v reordered: stats %+v, solved %d; want %+v, 0", c.Name, m, st, got.Solved, want)
			}
		}
	}
}

// TestReportMemoKeysSchemas: two programs differing only in a schema do
// not share a report. P′ moves table A's key off the field both
// transactions' where clauses pin, so reads of id 1 and an update of id 2
// may now alias: P reports nothing, P′ a non-repeatable read.
func TestReportMemoKeysSchemas(t *testing.T) {
	const txns = `
txn read() {
  x := select n from A where id = 1;
  y := select n from A where id = 1;
}
txn write() {
  update A set n = 7 where id = 2;
}
`
	p := mustProgT(t, "table A { id: int key, n: int, }\n"+txns)
	q := mustProgT(t, "table A { k: int key, id: int, n: int, }\n"+txns)
	fp, err := anomaly.FreshDetect(p, anomaly.EC)
	if err != nil {
		t.Fatal(err)
	}
	fq, err := anomaly.FreshDetect(q, anomaly.EC)
	if err != nil {
		t.Fatal(err)
	}
	if len(fp.Pairs) != 0 || len(fq.Pairs) == 0 {
		t.Fatalf("fresh detections report %d and %d pairs; want 0 and some", len(fp.Pairs), len(fq.Pairs))
	}
	s := anomaly.NewSession(anomaly.EC)
	if _, err := s.Detect(p); err != nil {
		t.Fatal(err)
	}
	got, err := s.Detect(q)
	if err != nil {
		t.Fatal(err)
	}
	sameAsFresh(t, "P′ after P", q, anomaly.EC, got)
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
