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
	"atropos/internal/corpus"
)

// Tests for the pair plan (DESIGN.md §3): the plan decides exactly which
// dependencies the SAT oracle's body defines, its content key identifies
// the body, a witness without candidates is dropped, and an abort mid-
// detection leaves nothing behind.

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
		if ty, ok := ky[f]; ok && decideStrEq(tx, ty) == eqFalse {
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
// reference's, and the SAT oracle's body defines a dep proposition — in
// both directions — for exactly the planned pairs.
func TestPlanMatchesBody(t *testing.T) {
	for _, c := range corpus.Programs(32) {
		name, prog := c.Name, c.Prog
		for _, m := range allModels {
			p := newPass(prog, m)
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
					pe := p.planPair(tf, wf)
					body := newBody(pe, m, mergeOrder)
					ca, cb := ast.Commands(tt.Body), ast.Commands(wt.Body)
					for a := range ca {
						for b := range cb {
							y := pe.nA + b
							planned := slices.Contains(pe.cands(a), y)
							if want := naiveConflict(prog, ca[a], a, cb[b], b); planned != want {
								t.Errorf("%s %v %s×%s: plan says dep(%s, %s) = %v, reference %v",
									name, m, tt.Name, wt.Name, ca[a].CmdLabel(), cb[b].CmdLabel(), planned, want)
							}
							if fwd, bwd := len(body.edgesOf(a, y)) > 0, len(body.edgesOf(y, a)) > 0; fwd != planned || bwd != planned {
								t.Errorf("%s %v %s×%s: plan says dep(%s, %s) = %v, body defines → %v, ← %v",
									name, m, tt.Name, wt.Name, ca[a].CmdLabel(), cb[b].CmdLabel(), planned, fwd, bwd)
							}
						}
					}
				}
			}
		}
	}
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

// TestPlanKeyDeterminesBody: the content key a session memoizes answers
// under is an identity for the pair's encoding. Over the corpus, and the
// corpus with multi-field keys demoted (same transactions, other schemas),
// under every model, ordered transaction pairs with equal content keys
// have SAT bodies with equal formula hashes, so their answers agree.
func TestPlanKeyDeterminesBody(t *testing.T) {
	if testing.Short() {
		t.Skip("full-corpus differential; skipped with -short")
	}
	type modelKey struct {
		m   Model
		key uint64
	}
	seen := map[modelKey]string{}
	hashes := map[modelKey]uint64{}
	check := func(name string, prog *ast.Program) {
		for _, m := range allModels {
			p := newPass(prog, m)
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
					pe := p.planPair(tf, wf)
					key, fh := modelKey{m, pe.contentKey()}, newBody(pe, m, mergeOrder).enc.FormulaHash()
					what := fmt.Sprintf("%s %v %s×%s", name, m, tt.Name, wt.Name)
					if old, ok := hashes[key]; ok && old != fh {
						t.Fatalf("%s and %s share content key %#x but have different bodies", seen[key], what, key.key)
					}
					hashes[key], seen[key] = fh, what
				}
			}
		}
	}
	for _, c := range corpus.Programs(32) {
		check(c.Name, c.Prog)
		check(c.Name+" (keys demoted)", demoteKeys(c.Prog))
	}
}

// detectVia runs one detection of prog, fresh or through a new session.
func detectVia(ctx context.Context, prog *ast.Program, m Model, fresh bool) (*Report, error) {
	if fresh {
		return freshDetect(ctx, prog, m)
	}
	return coldDetect(ctx, prog, m)
}

// TestZeroCandidateWitnessCostsNothing: a witness that shares a table with
// the transaction but conflicts with fewer than two of its commands is
// planned and dropped — it never becomes a task and is asked nothing.
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
	p := newPass(prog, EC)
	witnesses, err := p.witnessesOf(0) // readers
	if err != nil {
		t.Fatal(err)
	}
	// readers × readers: no writes at all; readers × oneWrite: only S1
	// conflicts; readers × twoWrites: both selects do.
	if p.planned != 3 || len(witnesses) != 1 || witnesses[0].w.name != "twoWrites" {
		t.Fatalf("planned %d, kept %d witnesses, want 3 planned and only twoWrites kept", p.planned, len(witnesses))
	}
	rep, err := NewSession(EC).Detect(prog)
	if err != nil {
		t.Fatal(err)
	}
	// readers: 3 planned. oneWrite: one command, nothing planned.
	// twoWrites: 3 planned; readers and twoWrites conflict with both of
	// its updates, oneWrite with U1 only.
	if rep.EncodersPlanned != 6 {
		t.Errorf("planned = %d, want 6", rep.EncodersPlanned)
	}
}

// pollCancel is a context that cancels itself on its n-th Err poll. The
// detector polls once before each cycle query (and the session once before
// each transaction), so a small n lands the cancellation
// between the first queries of the first plan.
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

// TestAbortMidDetectionCachesNothing: a cancellation that arrives between
// cycle queries aborts the detection with the context's error — fresh and
// through a session — and leaves no report in the session's memo.
func TestAbortMidDetectionCachesNothing(t *testing.T) {
	prog := mustProg(t, courseware)
	for _, fresh := range []bool{true, false} {
		ctx := newPollCancel(2)
		_, err := detectVia(ctx, prog, EC, fresh)
		ctx.cancel()
		if !errors.Is(err, context.Canceled) {
			t.Errorf("fresh %v: cancelled detection = %v, want context.Canceled", fresh, err)
		}
	}

	// A session whose first pass was cancelled stored no report of it:
	// the next pass reports what a fresh detection does.
	s := NewSession(EC)
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

// TestCancelledPassKeepsDecidedQueries: a new session's pass cancelled
// before transaction k keeps the answers it decided and no report, so a
// retry decides no query twice. The cancelled pass's Solved, the answers
// it left in the memo, is what a memo-attached pass decides over
// transactions 0 to k-1; that plus the retry's Solved is the fresh
// detection's, and the retry reports what a fresh detection does.
func TestCancelledPassKeepsDecidedQueries(t *testing.T) {
	prog := mustProg(t, courseware)
	want, err := FreshDetect(prog, EC)
	if err != nil {
		t.Fatal(err)
	}
	// before[k] counts the Err polls a new session's pass makes before
	// transaction k: one before each transaction, one per query; solved[k]
	// the queries it decides before transaction k.
	n := len(prog.Txns)
	p := newPass(prog, EC)
	defer p.done()
	d := &detector{pass: p, session: NewSession(EC), ctx: context.Background()}
	before, solved, polls := make([]int64, n), make([]int, n), int64(0)
	for ti := range n {
		before[ti], solved[ti] = polls, d.solved
		issued := d.issued
		if err := d.detect(ti); err != nil {
			t.Fatal(err)
		}
		polls += 1 + int64(d.issued-issued)
	}
	if d.solved != want.Solved || solved[n-1] == 0 {
		t.Fatalf("a memo-attached pass solved %d queries, %d before the last transaction; want fresh's %d, and some before", d.solved, solved[n-1], want.Solved)
	}
	for k := range n {
		s := NewSession(EC)
		ctx := newPollCancel(before[k] + 1) // trips on transaction k's poll
		_, err := s.DetectContext(ctx, prog)
		ctx.cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("k=%d: cancelled pass = %v, want context.Canceled", k, err)
		}
		if st := s.Stats(); st.Queries != 0 || len(s.queries) != solved[k] {
			t.Errorf("k=%d: after the cancelled pass, stats %+v and %d stored answers; want 0 queries and %d answers", k, st, len(s.queries), solved[k])
		}
		got, err := s.Detect(prog)
		if err != nil {
			t.Fatal(err)
		}
		sameVerdict(t, fmt.Sprintf("k=%d retry", k), got, want)
		if solved[k]+got.Solved != want.Solved {
			t.Errorf("k=%d: the cancelled pass solved %d, the retry %d; want %d together", k, solved[k], got.Solved, want.Solved)
		}
	}
}
