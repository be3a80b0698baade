package anomaly

import (
	"testing"

	"atropos/internal/ast"
	"atropos/internal/benchmarks"
	"atropos/internal/logic"
	"atropos/internal/parser"
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

// BenchmarkPairEncoderBuild measures encoding one (txn, witness) pair into
// a fresh solver: interning, axiom assertion, Tseitin conversion. It also
// reports the encoding's size, the count the wall clock follows.
func BenchmarkPairEncoderBuild(b *testing.B) {
	prog := benchProg(b, courseware)
	t := prog.Txns[2] // regSt: the widest encoder of the running example
	var pe *pairEncoder
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		if pe, err = newPairEncoder(logic.AcquireEncoder(), prog, t, t, EC, true, false, mergeOrder); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(pe.enc.S.NumVars()), "vars/encoder")
	b.ReportMetric(float64(pe.enc.S.NumClauses()), "clauses/encoder")
}

// TestPairEncoderSizeIsQuadratic pins the encoding's asymptotics with a
// count instead of a timing: the widest TPC-C (txn, witness) encoder must
// stay within c·n² variables and clauses over its n commands. The
// constants are the measured sizes plus 25% (EC 1.83·n² vars, 3.34·n²
// clauses; CC 2.79·n², 6.38·n²); one cubic axiom family — the generic
// order axioms cost 44·n² variables and 152·n² clauses at this n — fails
// it by an order of magnitude.
func TestPairEncoderSizeIsQuadratic(t *testing.T) {
	prog, err := benchmarks.TPCC.Program()
	if err != nil {
		t.Fatal(err)
	}
	var widest *ast.Txn
	for _, txn := range prog.Txns {
		if widest == nil || len(ast.Commands(txn.Body)) > len(ast.Commands(widest.Body)) {
			widest = txn
		}
	}
	for _, tc := range []struct {
		model         Model
		vars, clauses float64 // per n²
	}{
		{EC, 2.3, 4.2},
		{CC, 3.5, 8.0},
	} {
		pe, err := newPairEncoder(logic.NewEncoder(), prog, widest, widest, tc.model, true, false, mergeOrder)
		if err != nil {
			t.Fatal(err)
		}
		n2 := float64(len(pe.items) * len(pe.items))
		if got := float64(pe.enc.S.NumVars()); got > tc.vars*n2 {
			t.Errorf("%v %s×%s: %.0f variables over n=%d commands, want <= %.1f·n² = %.0f",
				tc.model, widest.Name, widest.Name, got, len(pe.items), tc.vars, tc.vars*n2)
		}
		if got := float64(pe.enc.S.NumClauses()); got > tc.clauses*n2 {
			t.Errorf("%v %s×%s: %.0f clauses over n=%d commands, want <= %.1f·n² = %.0f",
				tc.model, widest.Name, widest.Name, got, len(pe.items), tc.clauses, tc.clauses*n2)
		}
	}
}

// BenchmarkDetectCourseware measures a full fresh detection (every encoder
// plus every cycle query) of the paper's running example.
func BenchmarkDetectCourseware(b *testing.B) {
	prog := benchProg(b, courseware)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Detect(prog, EC); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDetectSmallBank measures fresh detection on a real benchmark
// translation (the detect column of Table 1).
func BenchmarkDetectSmallBank(b *testing.B) {
	prog, err := benchmarks.SmallBank.Program()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Detect(prog, EC); err != nil {
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
