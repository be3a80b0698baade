package replay_test

import (
	"fmt"
	"hash/fnv"
	"slices"
	"strings"
	"testing"

	"atropos/internal/anomaly"
	"atropos/internal/ast"
	"atropos/internal/corpus"
	"atropos/internal/replay"
	"atropos/internal/sema"
)

// outcomeText is everything a PairOutcome says, one line per trace event.
func outcomeText(out replay.PairOutcome) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s|%t|%t|%t|%s|%s|%d\n",
		out.Pair, out.Lowered, out.Reproduced, out.Exact, out.Method, out.Reason, len(out.Trace))
	for _, line := range out.Trace {
		fmt.Fprintln(&b, line)
	}
	return b.String()
}

// outcomesHash is FNV-1a over every outcome of the certificate: the
// outcomes column of the golden table (internal/corpus/testdata/cells.tsv).
func outcomesHash(cert *replay.Certificate) uint64 {
	h := fnv.New64a()
	for _, out := range cert.Outcomes {
		h.Write([]byte(outcomeText(out)))
	}
	return h.Sum64()
}

// certifyEachAlone certifies every pair of the report by itself, on a plan
// of its own.
func certifyEachAlone(prog *ast.Program, rep *anomaly.Report) []replay.PairOutcome {
	var outs []replay.PairOutcome
	for i := range rep.Pairs {
		one := *rep
		one.Pairs = rep.Pairs[i : i+1]
		outs = append(outs, replay.Certify(prog, &one).Outcomes...)
	}
	return outs
}

// TestPlanReuseIndependence: the directed-run plan is the only state that
// outlives a pair, and it must not carry anything from one pair to the
// next — certifying a report's pairs in reverse order, or each alone on a
// fresh plan, gives every pair the outcome it has in the whole report.
func TestPlanReuseIndependence(t *testing.T) {
	progs, reps := progenCorpus(t)
	for _, b := range corpus.Benchmarks() {
		for _, model := range []anomaly.Model{anomaly.EC, anomaly.CC, anomaly.RR} {
			progs = append(progs, b.Prog)
			reps = append(reps, witnessed(t, b.Prog, model))
		}
	}
	for i, prog := range progs {
		rep := reps[i]
		whole := replay.Certify(prog, rep).Outcomes
		rev := *rep
		rev.Pairs = slices.Clone(rep.Pairs)
		slices.Reverse(rev.Pairs)
		reversed := replay.Certify(prog, &rev).Outcomes
		slices.Reverse(reversed)
		alone := certifyEachAlone(prog, rep)
		if len(reversed) != len(whole) || len(alone) != len(whole) {
			t.Fatalf("program %d: %d outcomes, %d reversed, %d alone", i, len(whole), len(reversed), len(alone))
		}
		for j := range whole {
			want := outcomeText(whole[j])
			if got := outcomeText(reversed[j]); got != want {
				t.Errorf("program %d pair %d: reversed order gives\n%s, in order\n%s", i, j, got, want)
			}
			if got := outcomeText(alone[j]); got != want {
				t.Errorf("program %d pair %d: alone gives\n%s, in the report\n%s", i, j, got, want)
			}
		}
	}
}

// progenCorpus is the service benchmark's population: progen programs 1–96,
// formatted and re-parsed as a request body would be, with their witnessed
// EC reports.
func progenCorpus(tb testing.TB) ([]*ast.Program, []*anomaly.Report) {
	tb.Helper()
	var progs []*ast.Program
	var reps []*anomaly.Report
	for _, p := range corpus.Progen(1, 97) {
		progs = append(progs, p.Prog)
		reps = append(reps, witnessed(tb, p.Prog, anomaly.EC))
	}
	return progs, reps
}

func witnessed(tb testing.TB, prog *ast.Program, model anomaly.Model) *anomaly.Report {
	tb.Helper()
	rep, err := anomaly.NewSession(model).Detect(prog)
	if err != nil {
		tb.Fatalf("detection: %v", err)
	}
	return rep
}

// TestProgenOutcomesGolden checks the service population (progen 1–96
// under EC): each program's outcomes against the outcomes column of the
// golden table, its totals, and the method of every reproduction.
func TestProgenOutcomesGolden(t *testing.T) {
	golden, err := corpus.Golden()
	if err != nil {
		t.Fatal(err)
	}
	progs, reps := progenCorpus(t)
	var total, lowered, certified int
	methods := map[string]int{}
	for i, prog := range progs {
		cert := replay.Certify(prog, reps[i])
		total += cert.Total
		lowered += cert.Lowered
		certified += cert.Certified
		for _, out := range cert.Outcomes {
			if out.Reproduced {
				methods[out.Method]++
			}
		}
		cell := fmt.Sprintf("progen%d/EC", i+1)
		if got, want := outcomesHash(cert), golden[cell].Uint("outcomes"); got != want {
			t.Errorf("%s: outcomes hash %#016x, golden %#016x", cell, got, want)
		}
	}
	if total != 417 || lowered != 417 || certified != 44 {
		t.Errorf("progen totals %d pairs, %d lowered, %d certified; golden 417, 417, 44", total, lowered, certified)
	}
	want := map[string]int{"model": 35, "model@p1": 1, "split-hidden": 6, "split-hidden@p1": 1, "split-nonrep": 1}
	if fmt.Sprint(methods) != fmt.Sprint(want) {
		t.Errorf("progen methods %v, golden %v", methods, want)
	}
}

// TestRefusedTxnIsRunFailed: certification has one engine. A pair whose
// transaction the simulator's compiler refuses (uuid() outside an insert —
// sema accepts it) is reported "run failed" with the compile error naming
// the transaction; it is not certified on some other executor.
func TestRefusedTxnIsRunFailed(t *testing.T) {
	prog, err := sema.Load(`
table T { a: int key, b: int, }
txn stamp(k: int) {
  x := select b from T where a = k;
  update T set b = uuid() where a = k;
}`)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := anomaly.NewSession(anomaly.EC).Detect(prog)
	if err != nil {
		t.Fatal(err)
	}
	cert := replay.Certify(prog, rep)
	if cert.Total == 0 || cert.Certified != 0 {
		t.Fatalf("%d pairs, %d certified; want some pairs and none certified", cert.Total, cert.Certified)
	}
	for _, out := range cert.Outcomes {
		if want := "run failed: cluster: stamp: compile: uuid() outside insert"; out.Reason != want || !out.Lowered {
			t.Errorf("%s: lowered=%t reason %q, want lowered and %q", out.Pair, out.Lowered, out.Reason, want)
		}
	}
}
