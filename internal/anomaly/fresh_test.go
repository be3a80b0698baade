package anomaly

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"atropos/internal/ast"
	"atropos/internal/corpus"
)

// The cache-free reference detector. Production has one detector, the
// session; what the session's memos must never change is what
// a detector with no session attached reports: every cycle query decided
// from scratch, transactions in program order. It lives here, in test code,
// and every differential in this package compares against it.

// runFresh drives a session-less detector over every transaction and
// reads the pairs it found off its pass.
func runFresh(d *detector) (*Report, error) {
	for ti := range d.pass.prog.Txns {
		witnesses, err := d.pass.witnessesOf(ti)
		if err != nil {
			return nil, err
		}
		if err := d.detectTxn(witnesses); err != nil {
			return nil, err
		}
	}
	pairs, _ := d.pass.gather()
	return &Report{Model: d.pass.model, Pairs: pairs, Queries: d.issued, Solved: d.solved, EncodersPlanned: d.pass.planned}, nil
}

// freshDetect is the reference detection of prog under model.
func freshDetect(ctx context.Context, prog *ast.Program, model Model) (*Report, error) {
	return runFresh(&detector{pass: newPass(prog, model), ctx: ctx})
}

// FreshDetect is the reference detection, for the package's external
// tests.
func FreshDetect(prog *ast.Program, model Model) (*Report, error) {
	return freshDetect(context.Background(), prog, model)
}

// coldDetect is what a one-shot detection is in production: a new
// session's first pass.
func coldDetect(ctx context.Context, prog *ast.Program, model Model) (*Report, error) {
	return NewSession(model).DetectContext(ctx, prog)
}

// sameVerdict requires got to report what the reference report want does:
// the pairs and the query
// count. Solved is left out — a session answers repeated queries of one
// pass from its memo.
func sameVerdict(t *testing.T, what string, got, want *Report) {
	t.Helper()
	if !reflect.DeepEqual(got.Pairs, want.Pairs) {
		t.Errorf("%s: pairs diverge from the fresh oracle:\ngot  %v\nwant %v", what, got.Pairs, want.Pairs)
	}
	if got.Queries != want.Queries {
		t.Errorf("%s: %d queries, fresh oracle %d", what, got.Queries, want.Queries)
	}
}

// TestColdSessionEqualsFreshOracle pins the equivalence the single detector
// rests on: a new session's first pass reports exactly what the cache-free
// reference does, over the nine benchmarks and the generated corpus, under
// every weak model — and so does its
// second pass, answered wholly from the report memo (Solved 0).
func TestColdSessionEqualsFreshOracle(t *testing.T) {
	if testing.Short() {
		t.Skip("full-corpus differential; skipped with -short")
	}
	ctx := context.Background()
	for _, p := range corpus.Programs(32) {
		for _, m := range []Model{EC, CC, RR} {
			want, err := freshDetect(ctx, p.Prog, m)
			if err != nil {
				t.Fatalf("%s %v: fresh oracle: %v", p.Name, m, err)
			}
			s := NewSession(m)
			for _, pass := range []string{"cold", "warm"} {
				got, err := s.DetectContext(ctx, p.Prog)
				if err != nil {
					t.Fatalf("%s %v: %s session: %v", p.Name, m, pass, err)
				}
				what := fmt.Sprintf("%s %v %s", p.Name, m, pass)
				sameVerdict(t, what, got, want)
				if pass == "warm" && got.Solved != 0 {
					t.Errorf("%s: solved %d queries, want 0", what, got.Solved)
				}
			}
		}
	}
}
