package anomaly

import (
	"context"
	"fmt"
	"os"
	"reflect"
	"strconv"
	"testing"

	"atropos/internal/ast"
	"atropos/internal/benchmarks"
	"atropos/internal/progen"
	"atropos/internal/sat"
)

// The cache-free reference detector. Production has one detector, the
// session; what the session's caches, replay protocol and wavefront must
// never change is what a detector with no session attached reports: every
// encoder built and every cycle query solved from scratch, transactions in
// program order. It lives here, in test code, and every differential in
// this package compares against it.

// runFresh drives a session-less detector over every transaction.
func runFresh(d *detector) (*Report, error) {
	defer d.releaseEncoders()
	report := &Report{Model: d.pass.model}
	for ti := range d.pass.prog.Txns {
		pairs, err := d.detectTxn(ti)
		if err != nil {
			return nil, err
		}
		report.Pairs = append(report.Pairs, pairs...)
	}
	report.Queries = d.issued
	report.Solved = d.solved
	report.UnknownPairs = d.unknownPairs
	report.Unknown = len(d.unknownPairs)
	report.Exhausted = d.exhausted
	report.Degraded = d.exhausted > 0
	report.EncodersPlanned = d.pass.planned
	report.EncodersBuilt = int(d.pass.built.Load())
	return report, nil
}

// freshDetect is the reference detection of prog under model, optionally
// recording witness schedules and bounding every solve by b.
func freshDetect(ctx context.Context, prog *ast.Program, model Model, record bool, b sat.Budget) (*Report, error) {
	d := &detector{pass: newPass(prog, model, record), budget: b}
	d.setContext(ctx)
	return runFresh(d)
}

// FreshDetect is the plain reference detection, for the package's external
// tests.
func FreshDetect(prog *ast.Program, model Model) (*Report, error) {
	return freshDetect(context.Background(), prog, model, false, sat.Budget{})
}

// testParallelism is the fan-out width the differential tests force. It is
// wider than any default so the wavefront scheduler is exercised even where
// min(GOMAXPROCS, 4) would stay low; `make race-par` overrides it through
// ATROPOS_TEST_PARALLELISM to pin the width explicitly.
func testParallelism() int {
	if v := os.Getenv("ATROPOS_TEST_PARALLELISM"); v != "" {
		if n, err := strconv.Atoi(v); err == nil && n > 0 {
			return n
		}
	}
	return 8
}

// ForcedWidth is testParallelism, for the package's external tests.
func ForcedWidth() int { return testParallelism() }

// coldDetect is what a one-shot detection is in production: a new
// session's first pass.
func coldDetect(ctx context.Context, prog *ast.Program, model Model, width int, record bool, b sat.Budget) (*Report, error) {
	s := NewSession(model)
	s.SetParallelism(width)
	if record {
		s.RecordWitnesses()
	}
	s.SetSolveBudget(b)
	return s.DetectContext(ctx, prog)
}

// sameVerdict requires got to report what the reference report want does:
// the pairs (witness schedules included, when recorded), the unknown
// pairs, and the query and exhaustion counts. Solved is left out — a
// session answers repeated queries of one pass from its cache.
func sameVerdict(t *testing.T, what string, got, want *Report) {
	t.Helper()
	if !reflect.DeepEqual(got.Pairs, want.Pairs) {
		t.Errorf("%s: pairs diverge from the fresh oracle:\ngot  %v\nwant %v", what, got.Pairs, want.Pairs)
	}
	if !reflect.DeepEqual(got.UnknownPairs, want.UnknownPairs) {
		t.Errorf("%s: unknown pairs diverge from the fresh oracle:\ngot  %v\nwant %v", what, got.UnknownPairs, want.UnknownPairs)
	}
	if got.Queries != want.Queries || got.Exhausted != want.Exhausted || got.Degraded != want.Degraded {
		t.Errorf("%s: %d queries / %d exhausted / degraded=%t, fresh oracle %d / %d / %t",
			what, got.Queries, got.Exhausted, got.Degraded, want.Queries, want.Exhausted, want.Degraded)
	}
}

// TestColdSessionEqualsFreshOracle pins the equivalence the single detector
// rests on: a new session's first pass — sequential and at the test width —
// reports exactly what the cache-free reference does, over the nine
// benchmarks and the generated corpus, under every weak model, plain, with
// witness recording, and under a starvation budget.
func TestColdSessionEqualsFreshOracle(t *testing.T) {
	if testing.Short() {
		t.Skip("full-corpus differential; skipped with -short")
	}
	type named struct {
		name string
		prog *ast.Program
	}
	var progs []named
	for _, b := range benchmarks.All() {
		progs = append(progs, named{b.Name, b.MustProgram()})
	}
	for seed := int64(0); seed < 32; seed++ {
		progs = append(progs, named{fmt.Sprintf("seed %d", seed), progen.Program(seed)})
	}
	flavors := []struct {
		name   string
		record bool
		budget sat.Budget
	}{
		{"plain", false, sat.Budget{}},
		{"recording", true, sat.Budget{}},
		{"starved", false, sat.Budget{Propagations: 1}},
	}
	ctx := context.Background()
	for _, p := range progs {
		for _, m := range []Model{EC, CC, RR} {
			for _, fl := range flavors {
				want, err := freshDetect(ctx, p.prog, m, fl.record, fl.budget)
				if err != nil {
					t.Fatalf("%s %v %s: fresh oracle: %v", p.name, m, fl.name, err)
				}
				for _, width := range []int{1, testParallelism()} {
					got, err := coldDetect(ctx, p.prog, m, width, fl.record, fl.budget)
					if err != nil {
						t.Fatalf("%s %v %s width %d: cold session: %v", p.name, m, fl.name, width, err)
					}
					sameVerdict(t, fmt.Sprintf("%s %v %s width %d", p.name, m, fl.name, width), got, want)
				}
			}
		}
	}
}
