package anomaly

import (
	"fmt"
	"maps"
	"testing"

	"atropos/internal/ast"
	"atropos/internal/corpus"
	"atropos/internal/logic"
)

// The generic cubic order axioms — what the pair encoding grounded before the
// merge-order encoding — kept as the oracle the O(n²) encoding is checked
// against: exhaustively on every small instance split, and differentially
// on whole detections.

// cubicOrder grounds ord as a strict total order over all n commands
// (n·(n−1)·(n−2) Tseitin'd transitivity triples) plus program-order units,
// and co's transitivity over all triples.
var cubicOrder = orderAxioms{
	ord: func(e *logic.Encoder, nA int, ord rel) {
		e.AssertStrictTotalOrderS(ord.n, ord.at)
		for i := 0; i < ord.n; i++ {
			for j := i + 1; j < ord.n; j++ {
				if (i < nA) == (j < nA) {
					e.AssertClauseS(logic.Pos(ord.at(i, j)))
				}
			}
		}
	},
	co: func(e *logic.Encoder, nA int, co rel) {
		e.AssertTransitiveS(co.n, co.at)
	},
}

// relMatrix allocates an n×n relation and returns it with its off-diagonal
// syms in row-major order.
func relMatrix(e *logic.Encoder, tag, n int) (rel, []logic.Sym) {
	r := newRel(e, tag, n)
	var syms []logic.Sym
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j {
				syms = append(syms, r.at(i, j))
			}
		}
	}
	return r, syms
}

// admitted enumerates the assignments to syms the encoder's constraints
// admit (its models projected onto syms), as bit strings.
func admitted(e *logic.Encoder, syms []logic.Sym) map[string]bool {
	set := map[string]bool{}
	for e.Solve() {
		key := make([]byte, len(syms))
		block := make([]logic.SymLit, len(syms))
		for i, v := range e.ModelValuesS(nil, syms...) {
			if v {
				key[i], block[i] = '1', logic.Neg(syms[i])
			} else {
				key[i], block[i] = '0', logic.Pos(syms[i])
			}
		}
		set[string(key)] = true
		e.AssertClauseS(block...)
	}
	return set
}

func sameSets(t *testing.T, what string, got, want map[string]bool) {
	t.Helper()
	for k := range got {
		if !want[k] {
			t.Errorf("%s: merge encoding admits %s, the generic axioms do not", what, k)
		}
	}
	for k := range want {
		if !got[k] {
			t.Errorf("%s: generic axioms admit %s, the merge encoding does not", what, k)
		}
	}
}

func binomial(n, k int) int {
	c := 1
	for i := 1; i <= k; i++ {
		c = c * (n - k + i) / i
	}
	return c
}

// TestMergeOrderMatchesGenericAxioms: for every split of up to six commands
// over two instances, the merge-order clauses admit exactly the ord
// assignments the generic strict-total-order axioms plus program order
// admit — the C(nA+nB, nA) merges of the two sequences — and, with
// program-order co units and co ⊆ ord on both sides, the merge-causal
// clauses admit exactly the (ord, co) assignments generic transitivity
// does.
func TestMergeOrderMatchesGenericAxioms(t *testing.T) {
	for n := 1; n <= 6; n++ {
		for nA := 0; nA <= n; nA++ {
			what := fmt.Sprintf("nA=%d nB=%d", nA, n-nA)
			build := func(ax orderAxioms, withCo bool) map[string]bool {
				e := logic.NewEncoder()
				ord, syms := relMatrix(e, tagOrd, n)
				ax.ord(e, nA, ord)
				if !withCo {
					return admitted(e, syms)
				}
				co, coSyms := relMatrix(e, tagCo, n)
				for i := 0; i < n; i++ {
					for j := 0; j < n; j++ {
						if i == j {
							continue
						}
						if i < j && (i < nA) == (j < nA) {
							e.AssertClauseS(logic.Pos(co.at(i, j)))
						}
						e.AssertClauseS(logic.Neg(co.at(i, j)), logic.Pos(ord.at(i, j)))
					}
				}
				ax.co(e, nA, co)
				return admitted(e, append(syms, coSyms...))
			}
			merges := build(mergeOrder, false)
			sameSets(t, what+" ord", merges, build(cubicOrder, false))
			if want := binomial(n, nA); len(merges) != want {
				t.Errorf("%s: merge encoding admits %d orders, want C(%d,%d) = %d", what, len(merges), n, nA, want)
			}
			sameSets(t, what+" ord+co", build(mergeOrder, true), build(cubicOrder, true))
		}
	}
}

type pairID struct{ txn, c1, c2 string }

func pairIDs(rep *Report) map[pairID]bool {
	ids := map[pairID]bool{}
	for _, p := range rep.Pairs {
		ids[pairID{p.Txn, p.C1, p.C2}] = true
	}
	return ids
}

// satDetect is detection's witness loop with every query answered by a SAT
// body on the order axioms ax: the verdict oracle the small model's
// detections are compared with. It returns the reported pairs' identities
// and the number of queries asked.
func satDetect(t *testing.T, prog *ast.Program, model Model, ax orderAxioms) (map[pairID]bool, int) {
	t.Helper()
	p := newPass(prog, model)
	ids, queries := map[pairID]bool{}, 0
	for ti := range prog.Txns {
		witnesses, err := p.witnessesOf(ti)
		if err != nil {
			t.Fatal(err)
		}
		bodies := make([]*satBody, len(witnesses))
		for w, pe := range witnesses {
			bodies[w] = newBody(pe, model, ax)
		}
		for c1 := 0; len(witnesses) > 0 && c1 < witnesses[0].nA; c1++ {
		pairs:
			for c2 := c1 + 1; c2 < witnesses[0].nA; c2++ {
				for w, pe := range witnesses {
					for _, d1 := range pe.cand[c1] {
						for _, d2 := range pe.cand[c2] {
							for _, q := range [2][4]int{{c1, d1, d2, c2}, {d1, c1, c2, d2}} {
								queries++
								if bodies[w].solve(q) {
									ids[pairID{pe.t.name, pe.item(c1).label, pe.item(c2).label}] = true
									continue pairs
								}
							}
						}
					}
				}
			}
		}
	}
	return ids, queries
}

// checkAgainstCubicOracle detects prog under model three ways — the SAT
// witness loop on the generic cubic axioms (the oracle), the fresh
// reference, and a new session — and requires the
// same anomalous access pairs and the same number of cycle queries from
// all of them. The SAT loop on the merge axioms must agree too.
func checkAgainstCubicOracle(t *testing.T, what string, prog *ast.Program, model Model) {
	t.Helper()
	wantIDs, wantQueries := satDetect(t, prog, model, cubicOrder)
	mergeIDs, mergeQueries := satDetect(t, prog, model, mergeOrder)
	if !maps.Equal(mergeIDs, wantIDs) || mergeQueries != wantQueries {
		t.Errorf("%s %v: merge axioms report %d pairs in %d queries, cubic %d in %d", what, model, len(mergeIDs), mergeQueries, len(wantIDs), wantQueries)
	}
	seq, err := FreshDetect(prog, model)
	if err != nil {
		t.Fatalf("%s %v: fresh Detect: %v", what, model, err)
	}
	sess, err := NewSession(model).Detect(prog)
	if err != nil {
		t.Fatalf("%s %v: session Detect: %v", what, model, err)
	}
	for name, got := range map[string]*Report{"fresh": seq, "session": sess} {
		gotIDs := pairIDs(got)
		for id := range gotIDs {
			if !wantIDs[id] {
				t.Errorf("%s %v %s: reports %v, the cubic oracle does not", what, model, name, id)
			}
		}
		for id := range wantIDs {
			if !gotIDs[id] {
				t.Errorf("%s %v %s: misses %v, which the cubic oracle reports", what, model, name, id)
			}
		}
		if len(got.Pairs) != len(wantIDs) {
			t.Errorf("%s %v %s: %d pairs, cubic oracle %d", what, model, name, len(got.Pairs), len(wantIDs))
		}
		if got.Queries != wantQueries {
			t.Errorf("%s %v %s: %d queries, cubic oracle %d", what, model, name, got.Queries, wantQueries)
		}
	}
}

var allModels = []Model{EC, CC, RR, SC}

// TestMergeOrderDetectionMatchesCubicOracle runs the differential check
// over the nine evaluation benchmarks under every consistency model.
func TestMergeOrderDetectionMatchesCubicOracle(t *testing.T) {
	if testing.Short() {
		t.Skip("full-corpus differential against the cubic encoding; skipped with -short")
	}
	for _, b := range corpus.Benchmarks() {
		for _, m := range allModels {
			checkAgainstCubicOracle(t, b.Name, b.Prog, m)
		}
	}
}

// TestMergeOrderDetectionMatchesCubicOracleOnRandomPrograms runs it over
// generated programs (empty transactions, single-table programs, dense
// overlap).
func TestMergeOrderDetectionMatchesCubicOracleOnRandomPrograms(t *testing.T) {
	for _, p := range corpus.Progen(0, 32) {
		for _, m := range allModels {
			checkAgainstCubicOracle(t, p.Name, p.Prog, m)
		}
	}
}
