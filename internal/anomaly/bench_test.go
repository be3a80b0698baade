package anomaly

import (
	"context"
	"testing"

	"atropos/internal/ast"
	"atropos/internal/benchmarks"
	"atropos/internal/logic"
	"atropos/internal/parser"
	"atropos/internal/sat"
	"atropos/internal/sema"
)

// Allocation-reporting microbenchmarks for the detect→encode→solve hot
// path (the regression surface of the interned-atom encoding; compare
// with `make bench-compare`, see EXPERIMENTS.md §Baselines).

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
func planOf(tb testing.TB, prog *ast.Program, ti, wi int, model Model) *pairEncoder {
	tb.Helper()
	p := newPass(prog, model, false)
	t, err := p.txnFacts(ti)
	if err != nil {
		tb.Fatal(err)
	}
	w, err := p.txnFacts(wi)
	if err != nil {
		tb.Fatal(err)
	}
	return planPair(t, w)
}

// BenchmarkPairEncoderBuild measures the two halves of encoding one (txn,
// witness) pair. plan is the pure-Go half, from the program to the
// candidate lists (the command facts included, which production computes
// once per transaction per pass, not per pair); body is the SAT half on a
// pooled encoder, as the first cycle query pays it: proposition
// allocation, axiom assertion, Tseitin conversion, formula hashing. body
// also reports the encoding's size, the count the wall clock follows.
func BenchmarkPairEncoderBuild(b *testing.B) {
	prog := benchProg(b, courseware)
	const regSt = 2 // the widest encoder of the running example
	b.Run("plan", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			planOf(b, prog, regSt, regSt, EC)
		}
	})
	b.Run("body", func(b *testing.B) {
		plan := planOf(b, prog, regSt, regSt, EC)
		var vars, clauses int
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			pe := *plan
			le := logic.AcquireEncoder()
			le.RecordFormulaHashes()
			pe.build(le, EC, false, mergeOrder)
			vars, clauses = le.S.NumVars(), le.S.NumClauses()
			le.Release()
		}
		b.ReportMetric(float64(vars), "vars/encoder")
		b.ReportMetric(float64(clauses), "clauses/encoder")
	})
}

// TestPairEncoderSizeIsQuadratic pins the encoding's asymptotics with a
// count instead of a timing: the widest TPC-C (txn, witness) encoder must
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
		pe := planOf(t, prog, widest, widest, tc.model)
		le := logic.NewEncoder()
		le.RecordFormulaHashes()
		pe.build(le, tc.model, false, mergeOrder)
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
// session: every encoder plus every cycle query) of the paper's running
// example.
func BenchmarkDetectCourseware(b *testing.B) {
	prog := benchProg(b, courseware)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := coldDetect(context.Background(), prog, EC, 1, false, sat.Budget{}); err != nil {
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
		if _, err := coldDetect(context.Background(), prog, EC, 1, false, sat.Budget{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDetectParallel_TPCC measures a cold wavefront detection of the
// largest benchmark at a fixed fan-out of 4 workers — the parallel fast
// path end to end: sharded interning, per-worker encoder caches, the
// (txn, witness) wavefront scheduler. A fresh session per iteration keeps
// allocs/op deterministic (the fixed width keeps it machine-independent,
// so the allocgate can gate it; see cmd/allocgate).
func BenchmarkDetectParallel_TPCC(b *testing.B) {
	prog, err := benchmarks.TPCC.Program()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := NewSession(EC)
		s.SetParallelism(4)
		if _, err := s.Detect(prog); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSessionWarmDetect measures a fully warm incremental pass: every
// transaction fingerprint hits, so this is the session's bookkeeping
// floor.
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
