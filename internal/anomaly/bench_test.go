package anomaly

import (
	"context"
	"testing"

	"atropos/internal/ast"
	"atropos/internal/benchmarks"
	"atropos/internal/parser"
	"atropos/internal/sema"
)

// Allocation-reporting microbenchmarks for the plan→decide hot path
// (allocs/op and B/op of the gated ones are checked by `make bench`).

func benchProg(b *testing.B, src string) *ast.Program {
	b.Helper()
	p, err := parser.Parse(src)
	if err != nil {
		b.Fatal(err)
	}
	if err := sema.Check(p); err != nil {
		b.Fatal(err)
	}
	return p
}

// planOf plans transaction ti of prog against witness wi on a pass of its
// own.
func planOf(tb testing.TB, prog *ast.Program, ti, wi int, model Model) *pairPlan {
	tb.Helper()
	p := newPass(prog, model)
	t, err := p.txnFacts(ti)
	if err != nil {
		tb.Fatal(err)
	}
	w, err := p.txnFacts(wi)
	if err != nil {
		tb.Fatal(err)
	}
	return p.planPair(t, w)
}

// BenchmarkPlanAndDecide measures the two halves of detecting one (txn,
// witness) pair. plan is the pure-Go half, from the program to the
// candidate lists (the command facts included, which production computes
// once per transaction per session, not per pair); decide is every query the
// plan admits on the small model, and reports the query count.
func BenchmarkPlanAndDecide(b *testing.B) {
	prog := benchProg(b, courseware)
	const regSt = 2 // the widest pair of the running example
	b.Run("plan", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			planOf(b, prog, regSt, regSt, EC)
		}
	})
	b.Run("decide", func(b *testing.B) {
		plan := planOf(b, prog, regSt, regSt, EC)
		var qs [][4]int
		for c1 := range plan.nA {
			for c2 := c1 + 1; c2 < plan.nA; c2++ {
				for _, d1 := range plan.cands(c1) {
					for _, d2 := range plan.cands(c2) {
						qs = append(qs, [4]int{c1, d1, d2, c2}, [4]int{d1, c1, c2, d2})
					}
				}
			}
		}
		var sm smallModel
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, q := range qs {
				sm.decide(plan, EC, q)
			}
		}
		b.ReportMetric(float64(len(qs)), "queries/op")
	})
}

// TestPairEncoderSizeIsQuadratic pins the SAT oracle's asymptotics with a
// count instead of a timing: the widest TPC-C (txn, witness) body must
// stay within c·n² variables and clauses over its n commands. The
// constants are the measured sizes plus 25% (EC 1.44·n² vars, 2.39·n²
// clauses; CC 2.40·n², 5.43·n²); one cubic axiom family — the generic
// order axioms cost 44·n² variables and 152·n² clauses at this n — fails
// it by an order of magnitude.
func TestPairEncoderSizeIsQuadratic(t *testing.T) {
	prog, err := benchmarks.TPCC.Program()
	if err != nil {
		t.Fatal(err)
	}
	widest := 0
	for i, txn := range prog.Txns {
		if len(ast.Commands(txn.Body)) > len(ast.Commands(prog.Txns[widest].Body)) {
			widest = i
		}
	}
	for _, tc := range []struct {
		model         Model
		vars, clauses float64 // per n²
	}{
		{EC, 1.8, 3.0},
		{CC, 3.0, 6.8},
	} {
		pe := newBody(planOf(t, prog, widest, widest, tc.model), tc.model, mergeOrder)
		n2 := float64(pe.n * pe.n)
		if got := float64(pe.enc.S.NumVars()); got > tc.vars*n2 {
			t.Errorf("%v %s×%s: %.0f variables over n=%d commands, want <= %.1f·n² = %.0f",
				tc.model, pe.t.name, pe.w.name, got, pe.n, tc.vars, tc.vars*n2)
		}
		if got := float64(pe.enc.S.NumClauses()); got > tc.clauses*n2 {
			t.Errorf("%v %s×%s: %.0f clauses over n=%d commands, want <= %.1f·n² = %.0f",
				tc.model, pe.t.name, pe.w.name, got, pe.n, tc.clauses, tc.clauses*n2)
		}
	}
}

// BenchmarkDetectCourseware measures a cold sequential detection (a new
// session: every plan plus every cycle query) of the paper's running
// example.
func BenchmarkDetectCourseware(b *testing.B) {
	prog := benchProg(b, courseware)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := coldDetect(context.Background(), prog, EC); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDetectSmallBank measures cold sequential detection on a real
// benchmark translation (the detect column of Table 1).
func BenchmarkDetectSmallBank(b *testing.B) {
	prog, err := benchmarks.SmallBank.Program()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := coldDetect(context.Background(), prog, EC); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDetect_TPCC measures a cold detection of the largest
// benchmark: planning and the small model. A fresh session per iteration
// keeps allocs/op deterministic, so the allocgate can gate it (see
// cmd/allocgate).
func BenchmarkDetect_TPCC(b *testing.B) {
	prog, err := benchmarks.TPCC.Program()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := NewSession(EC).Detect(prog); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSessionWarmDetect measures a fully warm incremental pass: the
// report memo answers it, so this is the session's bookkeeping floor.
func BenchmarkSessionWarmDetect(b *testing.B) {
	prog, err := benchmarks.SmallBank.Program()
	if err != nil {
		b.Fatal(err)
	}
	s := NewSession(EC)
	if _, err := s.Detect(prog); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Detect(prog); err != nil {
			b.Fatal(err)
		}
	}
}
