package replay_test

import (
	"fmt"
	"hash/fnv"
	"slices"
	"strings"
	"testing"

	"atropos/internal/anomaly"
	"atropos/internal/ast"
	"atropos/internal/benchmarks"
	"atropos/internal/progen"
	"atropos/internal/replay"
	"atropos/internal/sema"
)

// The outcome goldens pin certification down to the byte: every
// PairOutcome's pair, verdict, method, reason and trace lines go into one
// FNV-1a hash per certificate. certGolden's counts say how many pairs
// replay; these say that each one replays the same way, on the same run.

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
	for _, b := range benchmarks.All() {
		for _, model := range []anomaly.Model{anomaly.EC, anomaly.CC, anomaly.RR} {
			prog := b.MustProgram()
			progs = append(progs, prog)
			reps = append(reps, witnessed(t, prog, model))
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
	for seed := int64(1); seed <= 96; seed++ {
		prog, err := sema.Load(ast.Format(progen.Program(seed)))
		if err != nil {
			tb.Fatalf("progen %d: %v", seed, err)
		}
		progs = append(progs, prog)
		reps = append(reps, witnessed(tb, prog, anomaly.EC))
	}
	return progs, reps
}

func witnessed(tb testing.TB, prog *ast.Program, model anomaly.Model) *anomaly.Report {
	tb.Helper()
	s := anomaly.NewSession(model)
	s.RecordWitnesses()
	s.SetParallelism(1)
	rep, err := s.Detect(prog)
	if err != nil {
		tb.Fatalf("witnessed detection: %v", err)
	}
	return rep
}

// TestProgenOutcomesGolden pins the 96-program population: its totals, the
// method of every reproduction, and one hash per program folded into one.
func TestProgenOutcomesGolden(t *testing.T) {
	progs, reps := progenCorpus(t)
	var total, lowered, certified int
	methods := map[string]int{}
	h := fnv.New64a()
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
		sum := outcomesHash(cert)
		t.Logf("progen %d: %d/%d %#x", i+1, cert.Certified, cert.Total, sum)
		fmt.Fprintf(h, "%d:%x\n", i+1, sum)
	}
	if total != 417 || lowered != 417 || certified != 42 {
		t.Errorf("progen totals %d pairs, %d lowered, %d certified; golden 417, 417, 42", total, lowered, certified)
	}
	want := map[string]int{"model": 35, "model@p1": 1, "split-hidden": 5, "split-hidden@p1": 1}
	if fmt.Sprint(methods) != fmt.Sprint(want) {
		t.Errorf("progen methods %v, golden %v", methods, want)
	}
	if got := h.Sum64(); got != progenOutcomesGolden {
		t.Errorf("progen outcomes hash %#x, golden %#x (run with -v for the per-program hashes)", got, uint64(progenOutcomesGolden))
	}
}

// progenOutcomesGolden was recorded on the clone-per-command replayer.
const progenOutcomesGolden = 0x61b4e2cd19d7456

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
	s := anomaly.NewSession(anomaly.EC)
	s.RecordWitnesses()
	rep, err := s.Detect(prog)
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
