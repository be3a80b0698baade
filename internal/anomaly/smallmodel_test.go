package anomaly

import (
	"fmt"
	"slices"
	"testing"

	"atropos/internal/ast"
	"atropos/internal/corpus"
	"atropos/internal/logic"
	"atropos/internal/progen"
)

// The small model against the SAT oracle (satoracle_test.go), on every
// query a plan admits — not only those detection asks — so UNSAT queries,
// which the witness loop's early exit mostly skips, are covered too.

// planQueries visits every (plan, query) of prog: every ordered pair of
// transactions sharing a table, every command pair c1 < c2 of the first,
// every candidate d1 of c1 and d2 of c2, in both orientations.
func planQueries(t testing.TB, prog *ast.Program, model Model, visit func(pe *pairPlan, qs [][4]int)) {
	p := newPass(prog, model)
	for ti := range prog.Txns {
		tf, err := p.txnFacts(ti)
		if err != nil {
			t.Fatal(err)
		}
		for wi := range prog.Txns {
			if !sharesTable(p.tables[ti], p.tables[wi]) {
				continue
			}
			wf, err := p.txnFacts(wi)
			if err != nil {
				t.Fatal(err)
			}
			pe := p.planPair(tf, wf)
			var qs [][4]int
			for c1 := range pe.nA {
				for c2 := c1 + 1; c2 < pe.nA; c2++ {
					for _, d1 := range pe.cands(c1) {
						for _, d2 := range pe.cands(c2) {
							qs = append(qs, [4]int{c1, d1, d2, c2}, [4]int{d1, c1, c2, d2})
						}
					}
				}
			}
			if len(qs) > 0 {
				visit(pe, qs)
			}
		}
	}
}

// oracleFields is the oracle's per-kind satisfiable union for edge x→y of
// query q: every field some edge proposition of which can hold with q.
func oracleFields(b *satBody, q [4]int, x, y int) []string {
	var out []string
	for _, ep := range b.edgesOf(x, y) {
		if !slices.Contains(out, ep.field) && b.solve(q, logic.Pos(ep.sym)) {
			out = append(out, ep.field)
		}
	}
	slices.Sort(out)
	return out
}

// scheduleUnits asserts a schedule as literals on b: the whole order, every
// cross-instance writer's visibility, every equality atom (those it does
// not list false), and the two cycle edges' per-field propositions.
func scheduleUnits(b *satBody, s *Schedule) ([]logic.SymLit, error) {
	lit := func(sym logic.Sym, v bool) logic.SymLit {
		if v {
			return logic.Pos(sym)
		}
		return logic.Neg(sym)
	}
	n := b.n
	if len(s.Order) != n {
		return nil, fmt.Errorf("order lists %d of %d items", len(s.Order), n)
	}
	pos := make([]int, n)
	for k, x := range s.Order {
		pos[x] = k
	}
	var units []logic.SymLit
	for i := range n {
		for j := range n {
			if i != j {
				units = append(units, lit(b.ord.at(i, j), pos[i] < pos[j]))
			}
			if i != j && b.inst(i) != b.inst(j) && b.item(i).writer() {
				units = append(units, lit(b.vis.at(i, j), s.Vis[i][j]))
			}
		}
	}
	listed := map[[4]string]bool{}
	for _, eq := range s.Eqs {
		listed[[4]string{eq.Table, eq.Field, eq.A, eq.B}] = eq.Equal
	}
	found := 0
	for _, ea := range b.eqAtoms {
		v, ok := listed[[4]string{ea.table, ea.field, ea.a, ea.b}]
		if ok {
			found++
		}
		units = append(units, lit(ea.sym, v))
	}
	if found != len(listed) {
		return nil, fmt.Errorf("schedule lists %d equalities the body has no atom for", len(listed)-found)
	}
	for _, e := range [2]SchedEdge{s.Edge1, s.Edge2} {
		for _, ep := range b.edgesOf(e.From, e.To) {
			units = append(units, lit(ep.sym, slices.Contains(e.Fields, EdgeField{Field: ep.field, Kind: ep.kind})))
		}
	}
	return units, nil
}

// checkPlanAgainstOracle decides every query of one plan on the small model
// and on a SAT body, and reports each disagreement: the verdict, the
// maximal field sets, the canonical kinds, and the canonical schedule,
// which must satisfy the body with the query. It returns the number of
// queries checked.
func checkPlanAgainstOracle(t testing.TB, what string, pe *pairPlan, model Model, qs [][4]int) int {
	t.Helper()
	b := newBody(pe, model, mergeOrder)
	var sm smallModel
	for _, q := range qs {
		r := sm.decide(pe, model, q)
		want := b.solve(q)
		cell := fmt.Sprintf("%s %v %s/%s %v", what, model, pe.t.name, pe.w.name, q)
		if r.Sat != want {
			t.Errorf("%s: small model says sat=%t, SAT oracle %t", cell, r.Sat, want)
			continue
		}
		if !r.Sat {
			continue
		}
		flds1, flds2 := pe.pass.fieldNames(nil, pe.item(q[0]), r.Flds1), pe.pass.fieldNames(nil, pe.item(q[2]), r.Flds2)
		kind1, kind2 := kindNames[r.Kind1], kindNames[r.Kind2]
		if f := oracleFields(b, q, q[0], q[1]); !slices.Equal(flds1, f) {
			t.Errorf("%s: F1 = %v, oracle's satisfiable union %v", cell, flds1, f)
		}
		if f := oracleFields(b, q, q[2], q[3]); !slices.Equal(flds2, f) {
			t.Errorf("%s: F2 = %v, oracle's satisfiable union %v", cell, flds2, f)
		}
		s := sm.schedule(nil, pe.digestNames())
		if s.Edge1.Kind != kind1 || s.Edge2.Kind != kind2 || s.Edge1.From != q[0] || s.Edge1.To != q[1] || s.Edge2.From != q[2] || s.Edge2.To != q[3] {
			t.Errorf("%s: schedule edges %+v %+v disagree with the answer (%s, %s)", cell, s.Edge1, s.Edge2, kind1, kind2)
		}
		units, err := scheduleUnits(b, s)
		if err != nil {
			t.Errorf("%s: %v", cell, err)
			continue
		}
		if !b.solve(q, units...) {
			t.Errorf("%s: canonical schedule does not satisfy the oracle's body: %+v", cell, s)
		}
	}
	return len(qs)
}

// TestSmallModelMatchesSATOracle is the decision procedure's contract, on
// every plan-admitted query of the nine benchmarks and progen 0–999 under
// EC, CC and RR (progen 0–99 with -short), and of the benchmarks under SC.
func TestSmallModelMatchesSATOracle(t *testing.T) {
	seeds := int64(1000)
	if testing.Short() {
		seeds = 100
	}
	progs, nbench := corpus.Programs(seeds), len(corpus.Benchmarks())
	for _, m := range []Model{EC, CC, RR, SC} {
		t.Run(m.String(), func(t *testing.T) {
			t.Parallel()
			n := 0
			for i, p := range progs {
				if m == SC && i >= nbench {
					break
				}
				planQueries(t, p.Prog, m, func(pe *pairPlan, qs [][4]int) {
					n += checkPlanAgainstOracle(t, p.Name, pe, m, qs)
				})
				if t.Failed() {
					return
				}
			}
			t.Logf("%v: %d queries agree", m, n)
		})
	}
}

// FuzzSmallModel compares the small model with the SAT oracle on the
// queries of a generated program under EC, CC and RR: verdicts, maximal
// fields, and canonical schedules.
func FuzzSmallModel(f *testing.F) {
	for _, seed := range []int64{0, 3, 42} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		prog := progen.Program(seed)
		for _, m := range []Model{EC, CC, RR} {
			planQueries(t, prog, m, func(pe *pairPlan, qs [][4]int) {
				checkPlanAgainstOracle(t, fmt.Sprintf("progen %d", seed), pe, m, qs)
			})
		}
	})
}
