package anomaly

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"slices"
	"sync/atomic"
	"testing"

	"atropos/internal/ast"
	"atropos/internal/benchmarks"
	"atropos/internal/logic"
	"atropos/internal/progen"
	"atropos/internal/sat"
)

// Tests for the plan/body split of the pair encoding (DESIGN.md §3): the
// plan decides exactly what the body defines, building bodies lazily
// changes nothing a report shows, a witness without candidates costs no
// solver, and an abort on the query that triggers a build is still an
// abort.

// corpus runs fn over the nine benchmarks and 32 generated programs.
func corpus(t *testing.T, fn func(name string, prog *ast.Program)) {
	t.Helper()
	for _, b := range benchmarks.All() {
		prog, err := b.Program()
		if err != nil {
			t.Fatal(err)
		}
		fn(b.Name, prog)
	}
	for seed := int64(0); seed < 32; seed++ {
		fn(fmt.Sprintf("seed %d", seed), progen.Program(seed))
	}
}

// naiveConflict decides, from the AST alone and with sets as maps, whether
// command cx (index ix of instance A) and command cy (index iy of instance
// B) can share a dependency edge: the reference the plan's sorted-slice
// arithmetic is checked against.
func naiveConflict(prog *ast.Program, cx ast.DBCommand, ix int, cy ast.DBCommand, iy int) bool {
	if cx.TableName() != cy.TableName() {
		return false
	}
	schema := prog.Schema(cx.TableName())
	keys := func(c ast.DBCommand, inst, idx int) map[string]term {
		k := map[string]term{}
		pkPins(c, schema, func(f string, e ast.Expr) { k[f] = termOf(e, inst, idx) })
		return k
	}
	kx, ky := keys(cx, 0, ix), keys(cy, 1, iy)
	for f, tx := range kx {
		if ty, ok := ky[f]; ok && decideEq(tx, ty) == eqFalse {
			return false
		}
	}
	access := func(c ast.DBCommand) (reads, writes map[string]bool) {
		acc := ast.CommandAccess(c, schema)
		reads, writes = map[string]bool{}, map[string]bool{}
		for _, f := range acc.Reads {
			reads[f] = true
		}
		for _, f := range acc.Writes {
			writes[f] = true
		}
		if _, ins := c.(*ast.Insert); !ins {
			reads[ast.AliveField] = true
		}
		return reads, writes
	}
	rx, wx := access(cx)
	ry, wy := access(cy)
	for f := range wx {
		if ry[f] || wy[f] {
			return true
		}
	}
	for f := range rx {
		if wy[f] {
			return true
		}
	}
	return false
}

// TestPlanMatchesBody: for every ordered pair of transactions of the
// corpus, under every model, the plan's candidate table is the naive
// reference's, and the body defines a dep proposition — in both directions
// — for exactly the planned pairs.
func TestPlanMatchesBody(t *testing.T) {
	corpus(t, func(name string, prog *ast.Program) {
		for _, m := range allModels {
			p := newPass(prog, m, false)
			for ti, tt := range prog.Txns {
				for wi, wt := range prog.Txns {
					tf, err := p.txnFacts(ti)
					if err != nil {
						t.Fatal(err)
					}
					wf, err := p.txnFacts(wi)
					if err != nil {
						t.Fatal(err)
					}
					pe := planPair(tf, wf)
					le := logic.NewEncoder()
					pe.build(le, m, false, mergeOrder)
					ca, cb := ast.Commands(tt.Body), ast.Commands(wt.Body)
					for a := range ca {
						for b := range cb {
							y := pe.nA + b
							planned := slices.Contains(pe.cand[a], y)
							if want := naiveConflict(prog, ca[a], a, cb[b], b); planned != want {
								t.Errorf("%s %v %s×%s: plan says dep(%s, %s) = %v, reference %v",
									name, m, tt.Name, wt.Name, ca[a].CmdLabel(), cb[b].CmdLabel(), planned, want)
							}
							if fwd, bwd := len(pe.edgesOf(a, y)) > 0, len(pe.edgesOf(y, a)) > 0; fwd != planned || bwd != planned {
								t.Errorf("%s %v %s×%s: plan says dep(%s, %s) = %v, body defines → %v, ← %v",
									name, m, tt.Name, wt.Name, ca[a].CmdLabel(), cb[b].CmdLabel(), planned, fwd, bwd)
							}
						}
					}
				}
			}
		}
	})
}

// demoteKeys returns prog with the last key field of every table keyed by
// two or more fields made an ordinary field: the same transactions over
// schemas that pin fewer key terms, so their pair bodies differ.
func demoteKeys(prog *ast.Program) *ast.Program {
	out := &ast.Program{Txns: prog.Txns}
	for _, s := range prog.Schemas {
		if pk := s.PrimaryKey(); len(pk) >= 2 {
			c := &ast.Schema{Name: s.Name}
			for _, f := range s.Fields {
				c.Fields = append(c.Fields, &ast.Field{Name: f.Name, Type: f.Type, PK: f.PK && f != pk[len(pk)-1]})
			}
			s = c
		}
		out.Schemas = append(out.Schemas, s)
	}
	return out
}

// TestPlanKeyDeterminesBody: the plan key under which a session remembers
// a body's formula hash is an identity for the body. Over the corpus, and
// the corpus with multi-field keys demoted (same transactions, other
// schemas), under every model, recording or not, ordered transaction pairs
// with equal plan keys build bodies with equal formula hashes.
func TestPlanKeyDeterminesBody(t *testing.T) {
	if testing.Short() {
		t.Skip("full-corpus differential; skipped with -short")
	}
	seen := map[uint64]string{}
	hashes := map[uint64]uint64{}
	check := func(name string, prog *ast.Program) {
		for _, m := range allModels {
			for _, record := range []bool{false, true} {
				p := newPass(prog, m, record)
				for ti, tt := range prog.Txns {
					for wi, wt := range prog.Txns {
						tf, err := p.txnFacts(ti)
						if err != nil {
							t.Fatal(err)
						}
						wf, err := p.txnFacts(wi)
						if err != nil {
							t.Fatal(err)
						}
						pe := planPair(tf, wf)
						le := logic.AcquireEncoder()
						le.RecordFormulaHashes()
						pe.build(le, m, record, mergeOrder)
						key, fh := pe.planKey(m, record), le.FormulaHash()
						le.Release()
						what := fmt.Sprintf("%s %v record=%v %s×%s", name, m, record, tt.Name, wt.Name)
						if old, ok := hashes[key]; ok && old != fh {
							t.Fatalf("%s and %s share plan key %#x but build different bodies", seen[key], what, key)
						}
						hashes[key], seen[key] = fh, what
					}
				}
			}
		}
	}
	corpus(t, func(name string, prog *ast.Program) {
		check(name, prog)
		check(name+" (keys demoted)", demoteKeys(prog))
	})
}

// SkewRememberedFormulas makes every session remember a wrong formula hash
// for each body it builds — the next body built under that plan disagrees
// with it — until restore is called. For the package's external tests.
func SkewRememberedFormulas() (restore func()) {
	rememberSkew.Store(1)
	return func() { rememberSkew.Store(0) }
}

// ErrPlanMismatch is errPlanMismatch, for the package's external tests.
var ErrPlanMismatch = errPlanMismatch

// eagerBodies is the pass hook that builds every body as its detector takes
// the plan on — what the detector did before the split.
func eagerBodies(d *detector, pe *pairEncoder) {
	if err := d.buildBody(pe); err != nil {
		panic(err)
	}
}

// detectVia runs one detection of prog with witness recording on, fresh
// (width 0) or through a new session at the given width, with bodies built
// lazily or eagerly.
func detectVia(ctx context.Context, prog *ast.Program, m Model, width int, eager bool, b sat.Budget) (*Report, error) {
	if width == 0 {
		d := &detector{pass: newPass(prog, m, true), budget: b}
		if eager {
			d.pass.onPlan = eagerBodies
		}
		d.setContext(ctx)
		return runFresh(d)
	}
	s := NewSession(m)
	s.RecordWitnesses()
	s.SetParallelism(width)
	s.SetSolveBudget(b)
	if eager {
		s.onPlan = eagerBodies
	}
	return s.DetectContext(ctx, prog)
}

// sameReport requires two reports to agree on everything a caller can see:
// pairs with witnesses, fields and schedules, unknown pairs, and the query
// counters; the encoder counters are what is allowed to differ. sequential
// says both ran without concurrency, which makes Solved deterministic too.
func sameReport(t *testing.T, what string, lazy, eager *Report, sequential bool) {
	t.Helper()
	if !reflect.DeepEqual(lazy.Pairs, eager.Pairs) {
		t.Errorf("%s: pairs differ:\nlazy  %v\neager %v", what, lazy.Pairs, eager.Pairs)
	}
	if !reflect.DeepEqual(lazy.UnknownPairs, eager.UnknownPairs) {
		t.Errorf("%s: unknown pairs differ:\nlazy  %v\neager %v", what, lazy.UnknownPairs, eager.UnknownPairs)
	}
	if lazy.Queries != eager.Queries || lazy.Unknown != eager.Unknown || lazy.Exhausted != eager.Exhausted || lazy.Degraded != eager.Degraded {
		t.Errorf("%s: lazy queries/unknown/exhausted/degraded %d/%d/%d/%v, eager %d/%d/%d/%v", what,
			lazy.Queries, lazy.Unknown, lazy.Exhausted, lazy.Degraded,
			eager.Queries, eager.Unknown, eager.Exhausted, eager.Degraded)
	}
	if sequential && lazy.Solved != eager.Solved {
		t.Errorf("%s: lazy solved %d, eager %d", what, lazy.Solved, eager.Solved)
	}
	if lazy.EncodersPlanned != eager.EncodersPlanned || lazy.EncodersBuilt > eager.EncodersBuilt {
		t.Errorf("%s: lazy planned/built %d/%d, eager %d/%d", what,
			lazy.EncodersPlanned, lazy.EncodersBuilt, eager.EncodersPlanned, eager.EncodersBuilt)
	}
}

// TestLazyBodiesMatchEager: building each body on its first query instead
// of at planning time changes no report — fresh, through a sequential
// session, and through the wavefront at width 8.
func TestLazyBodiesMatchEager(t *testing.T) {
	if testing.Short() {
		t.Skip("full-corpus differential; skipped with -short")
	}
	ctx := context.Background()
	corpus(t, func(name string, prog *ast.Program) {
		for _, m := range allModels {
			for _, width := range []int{0, 1, 8} {
				what := fmt.Sprintf("%s %v width %d", name, m, width)
				lazy, err := detectVia(ctx, prog, m, width, false, sat.Budget{})
				if err != nil {
					t.Fatalf("%s lazy: %v", what, err)
				}
				eager, err := detectVia(ctx, prog, m, width, true, sat.Budget{})
				if err != nil {
					t.Fatalf("%s eager: %v", what, err)
				}
				sameReport(t, what, lazy, eager, width <= 1)
			}
		}
	})
}

// TestZeroCandidateWitnessCostsNothing: a witness that shares a table with
// the transaction but conflicts with fewer than two of its commands is
// planned and dropped — it never becomes an encoder, so no solver is
// acquired and no variable created for it; and a surviving plan holds no
// solver until it is asked a query.
func TestZeroCandidateWitnessCostsNothing(t *testing.T) {
	prog := mustProg(t, `
table T {
  id: int key,
  a: int,
  b: int,
}
txn readers(k: int) {
  x := select a from T where id = k;
  y := select b from T where id = k;
  return x.a + y.b;
}
txn oneWrite(k: int) {
  update T set a = 1 where id = k;
}
txn twoWrites(k: int) {
  update T set a = 1 where id = k;
  update T set b = 2 where id = k;
}`)
	p := newPass(prog, EC, false)
	witnesses, err := p.witnessesOf(0) // readers
	if err != nil {
		t.Fatal(err)
	}
	// readers × readers: no writes at all; readers × oneWrite: only S1
	// conflicts; readers × twoWrites: both selects do.
	if p.planned != 3 || len(witnesses) != 1 || witnesses[0].w.name != "twoWrites" {
		t.Fatalf("planned %d, kept %d witnesses, want 3 planned and only twoWrites kept", p.planned, len(witnesses))
	}
	d := &detector{pass: p}
	d.setContext(context.Background())
	d.own(witnesses[0])
	if witnesses[0].enc != nil || p.built.Load() != 0 {
		t.Fatal("a planned encoder holds a solver before its first query")
	}
	if _, _, _, err := d.checkPairWitness(witnesses[0], 0, 1); err != nil {
		t.Fatal(err)
	}
	if witnesses[0].enc == nil || p.built.Load() != 1 {
		t.Fatal("the first query did not build the body")
	}
	d.releaseEncoders()

	rep, err := NewSession(EC).Detect(prog)
	if err != nil {
		t.Fatal(err)
	}
	// readers: 3 planned, 1 built. oneWrite: one command, nothing planned.
	// twoWrites: 3 planned; readers and twoWrites conflict with both of
	// its updates, oneWrite with U1 only.
	if rep.EncodersPlanned != 6 || rep.EncodersBuilt > 3 {
		t.Errorf("planned/built = %d/%d, want 6 planned and at most 3 built", rep.EncodersPlanned, rep.EncodersBuilt)
	}
}

// pollCancel is a context that cancels itself on its n-th Err poll. The
// detector polls once before each cycle query and the solver once on entry
// to each solve, so n = 2 lands the cancellation inside the first solve of
// the first encoder: on the query that triggered its body build.
type pollCancel struct {
	context.Context
	cancel context.CancelFunc
	left   atomic.Int64
}

func newPollCancel(n int64) *pollCancel {
	c := &pollCancel{}
	c.Context, c.cancel = context.WithCancel(context.Background())
	c.left.Store(n)
	return c
}

func (c *pollCancel) Err() error {
	if c.left.Add(-1) == 0 {
		c.cancel()
	}
	return c.Context.Err()
}

// TestAbortOnBodyBuildingQuery: a cancellation or a budget exhaustion that
// arrives on the very query that builds a body behaves as it did when
// bodies were built up front — the cancellation aborts the detection with
// the context's error and leaves nothing in the session's caches, the
// exhaustion taints the encoder and degrades the report identically.
func TestAbortOnBodyBuildingQuery(t *testing.T) {
	prog := mustProg(t, courseware)
	for _, width := range []int{0, 1, 8} {
		for _, eager := range []bool{false, true} {
			ctx := newPollCancel(2)
			_, err := detectVia(ctx, prog, EC, width, eager, sat.Budget{})
			ctx.cancel()
			if !errors.Is(err, context.Canceled) {
				t.Errorf("width %d eager %v: cancelled detection = %v, want context.Canceled", width, eager, err)
			}
		}
		starved := sat.Budget{Propagations: 1}
		lazy, err := detectVia(context.Background(), prog, EC, width, false, starved)
		if err != nil {
			t.Fatal(err)
		}
		eager, err := detectVia(context.Background(), prog, EC, width, true, starved)
		if err != nil {
			t.Fatal(err)
		}
		if !lazy.Degraded || lazy.Exhausted == 0 {
			t.Errorf("width %d: starved detection not degraded", width)
		}
		sameReport(t, fmt.Sprintf("starved width %d", width), lazy, eager, width <= 1)
	}

	// A session whose first pass was cancelled on a body-building query
	// cached nothing of it: the next pass reports what a fresh detection
	// does and solves every query it issues.
	s := NewSession(EC)
	s.SetParallelism(1)
	ctx := newPollCancel(2)
	defer ctx.cancel()
	if _, err := s.DetectContext(ctx, prog); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled session pass = %v, want context.Canceled", err)
	}
	got, err := s.Detect(prog)
	if err != nil {
		t.Fatal(err)
	}
	want, err := FreshDetect(prog, EC)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Pairs, want.Pairs) || got.Queries != want.Queries {
		t.Errorf("pass after a cancelled one: %d pairs / %d queries, fresh %d / %d",
			len(got.Pairs), got.Queries, len(want.Pairs), want.Queries)
	}
	if st := s.Stats(); st.QueryHits != got.Queries-got.Solved {
		t.Errorf("stats after a cancelled pass: %+v (report: %d queries, %d solved)", st, got.Queries, got.Solved)
	}
}
