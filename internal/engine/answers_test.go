package engine

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"atropos/internal/anomaly"
	"atropos/internal/ast"
	"atropos/internal/benchmarks"
	"atropos/internal/corpus"
	"atropos/internal/progen"
	"atropos/internal/repair"
	"atropos/internal/replay"
)

// repairView renders what a repair answers, minus how it was computed: the
// pairs, the steps, the correspondences, the serialized transactions, the
// program, the fresh-equivalent query count and the certificate's counts.
func repairView(res *repair.Result) string {
	var b strings.Builder
	for _, p := range res.Initial {
		fmt.Fprintln(&b, "initial", p.String())
	}
	for _, p := range res.Remaining {
		fmt.Fprintln(&b, "remaining", p.String())
	}
	for _, c := range res.Corrs {
		fmt.Fprintln(&b, "corr", c.String())
	}
	fmt.Fprintf(&b, "steps %q\nserializable %q\nqueries %d\n", res.Steps, res.SerializableTxns, res.Stats.Queries)
	if c := res.Certificate; c != nil {
		fmt.Fprintf(&b, "cert %d %d %d %d sc %d %d repaired %d %d skipped %d errors %d\n",
			c.Total, c.Lowered, c.Certified, c.Runs, c.SCRuns, c.SCViolations,
			c.RepairedRuns, c.RepairedViolations, c.SkippedPartial, len(c.Errors))
	}
	b.WriteString(ast.Format(res.Program))
	return b.String()
}

// certifyView renders a certify answer: the report's pairs and every
// outcome as replay's outcome goldens hash it, trace included.
func certifyView(cert *replay.Certificate, rep *anomaly.Report) string {
	var b strings.Builder
	for _, p := range rep.Pairs {
		fmt.Fprintln(&b, "pair", p.String())
	}
	fmt.Fprintf(&b, "cert %d %d %d %d\n", cert.Total, cert.Lowered, cert.Certified, cert.Runs)
	for _, out := range cert.Outcomes {
		fmt.Fprintf(&b, "%s|%t|%t|%t|%s|%s|%d\n",
			out.Pair, out.Lowered, out.Reproduced, out.Exact, out.Method, out.Reason, len(out.Trace))
		for _, line := range out.Trace {
			fmt.Fprintln(&b, line)
		}
	}
	return b.String()
}

// TestAnswerMemoRepairEquivalence: a repeated repair is answered from the
// memo, and both answers equal a fresh engine's — on the progen population
// under EC, the nine benchmarks under EC, CC and RR, and the nine under EC
// with certification, all on one engine, so that a key missing the model
// or the certify flag answers a cell with another cell's answer. A hit
// reports no solver work of its own.
func TestAnswerMemoRepairEquivalence(t *testing.T) {
	progs, benches := corpus.Progen(1, 97), corpus.Benchmarks()
	ctx := context.Background()
	e := New(Config{Workers: 1})
	check := func(c corpus.Program, model anomaly.Model, certify bool) {
		t.Helper()
		name := fmt.Sprintf("%s/%s/certify=%t", c.Name, model, certify)
		fresh, err := New(Config{Workers: 1}).Repair(ctx, c.Prog, model, repair.Certify(certify))
		if err != nil {
			t.Fatalf("%s: fresh: %v", name, err)
		}
		want := repairView(fresh)
		before := e.Stats()
		for i := 0; i < 2; i++ {
			res, err := e.Repair(ctx, c.Prog, model, repair.Certify(certify))
			if err != nil {
				t.Fatalf("%s: call %d: %v", name, i, err)
			}
			if got := repairView(res); got != want {
				t.Fatalf("%s: call %d differs from a fresh engine's\ngot:\n%s\nwant:\n%s", name, i, got, want)
			}
			st := e.Stats()
			if hits, misses := st.AnswerHits-before.AnswerHits, st.AnswerMisses-before.AnswerMisses; hits != int64(i) || misses != 1 {
				t.Fatalf("%s: call %d: answer hits/misses %d/%d, want %d/1", name, i, hits, misses, i)
			}
			if i == 1 && (res.Stats.Solved != 0 || res.Stats.Replayed != 0 ||
				res.Stats.EncodersPlanned != 0 || (res.Stats.Queries > 0 && res.Stats.CacheHitRate() != 1)) {
				t.Fatalf("%s: a hit reports solver work: %+v", name, res.Stats)
			}
		}
	}
	for _, c := range progs {
		check(c, anomaly.EC, false)
	}
	for _, c := range benches {
		for _, m := range []anomaly.Model{anomaly.EC, anomaly.CC, anomaly.RR} {
			check(c, m, false)
		}
		check(c, anomaly.EC, true)
	}
}

// TestAnswerMemoCertifyEquivalence: a repeated certify is answered from the
// memo, and both answers equal a fresh engine's outcome for outcome. One
// engine certifies every program after repairing it, so a key missing the
// verb answers a certify with a repair.
func TestAnswerMemoCertifyEquivalence(t *testing.T) {
	progs, benches := corpus.Progen(1, 97), corpus.Benchmarks()
	ctx := context.Background()
	e := New(Config{Workers: 1})
	for _, c := range append(progs, benches...) {
		cert, rep, err := New(Config{Workers: 1}).Certify(ctx, c.Prog, anomaly.EC)
		if err != nil {
			t.Fatalf("%s: fresh: %v", c.Name, err)
		}
		want := certifyView(cert, rep)
		if _, err := e.Repair(ctx, c.Prog, anomaly.EC); err != nil {
			t.Fatal(err)
		}
		before := e.Stats()
		for i := 0; i < 2; i++ {
			cert, rep, err := e.Certify(ctx, c.Prog, anomaly.EC)
			if err != nil {
				t.Fatalf("%s: call %d: %v", c.Name, i, err)
			}
			if got := certifyView(cert, rep); got != want {
				t.Fatalf("%s: call %d differs from a fresh engine's\ngot:\n%s\nwant:\n%s", c.Name, i, got, want)
			}
			st := e.Stats()
			if hits, misses := st.AnswerHits-before.AnswerHits, st.AnswerMisses-before.AnswerMisses; hits != int64(i) || misses != 1 {
				t.Fatalf("%s: call %d: answer hits/misses %d/%d, want %d/1", c.Name, i, hits, misses, i)
			}
		}
	}
}

// answerCounters is the memo's part of Stats.
func answerCounters(e *Engine) [4]int64 {
	st := e.Stats()
	return [4]int64{st.AnswerHits, st.AnswerMisses, st.AnswerEvictions, int64(st.CachedAnswers)}
}

// TestAnswerMemoBypasses: a degraded repair does not fill the memo — the
// next clean request computes — and a repair on an injected session
// neither reads nor fills it.
func TestAnswerMemoBypasses(t *testing.T) {
	e := New(Config{Workers: 1})
	prog := loadRMW(t)
	ctx := context.Background()
	for i := 0; i < 2; i++ {
		res, err := e.Repair(ctx, prog, anomaly.EC, expiredDetect)
		if err != nil || !res.Degraded {
			t.Fatalf("deadline-bound repair %d: err=%v degraded=%v", i, err, res != nil && res.Degraded)
		}
	}
	if got := answerCounters(e); got != [4]int64{0, 2, 0, 0} {
		t.Fatalf("two degraded repairs: hits, misses, evictions, cached = %v, want two misses and nothing cached", got)
	}
	if res, err := e.Repair(ctx, prog, anomaly.EC); err != nil || res.Degraded {
		t.Fatalf("clean repair after degraded ones: err=%v degraded=%v", err, res != nil && res.Degraded)
	}
	before := answerCounters(e)
	if _, err := e.Repair(ctx, prog, anomaly.EC, repair.Session(anomaly.NewSession(anomaly.EC))); err != nil {
		t.Fatal(err)
	}
	if got := answerCounters(e); got != before {
		t.Fatalf("injected-session repair moved the memo: %v, want %v", got, before)
	}
}

// TestAnswerHitIsACleanAnswer: a hit counts as completed and closes the
// client's breaker like any clean answer, and a context that is already
// done answers its error even on a hit.
func TestAnswerHitIsACleanAnswer(t *testing.T) {
	e := New(Config{Workers: 1, BreakerTrip: 2})
	prog := loadRMW(t)
	ctx := context.Background()
	if _, err := e.Repair(ctx, prog, anomaly.EC); err != nil {
		t.Fatal(err)
	}
	// Degraded repairs of another program around a hit: the hit clears the
	// first strike, so two strikes never come in a row.
	other, err := benchmarks.SmallBank.Program()
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []*ast.Program{other, prog, other} {
		opts := []repair.Option{repair.Client("x")}
		if p == other {
			opts = append(opts, expiredDetect)
		}
		if _, err := e.Repair(ctx, p, anomaly.EC, opts...); err != nil {
			t.Fatal(err)
		}
	}
	st := e.Stats()
	if st.BreakerTrips != 0 || st.AnswerHits != 1 || st.Completed != 4 {
		t.Fatalf("breaker trips %d, answer hits %d, completed %d; want 0, 1, 4 (the hit closes the breaker)",
			st.BreakerTrips, st.AnswerHits, st.Completed)
	}
	cctx, cancel := context.WithCancel(ctx)
	cancel()
	if _, err := e.Repair(cctx, prog, anomaly.EC); !errors.Is(err, context.Canceled) {
		t.Fatalf("repair hit on a cancelled context = %v, want context.Canceled", err)
	}
	if _, _, err := e.Certify(ctx, prog, anomaly.EC); err != nil {
		t.Fatal(err)
	}
	if _, _, err := e.Certify(cctx, prog, anomaly.EC); !errors.Is(err, context.Canceled) {
		t.Fatalf("certify hit on a cancelled context = %v, want context.Canceled", err)
	}
	if st := e.Stats(); st.AnswerHits != 3 || st.Canceled != 2 {
		t.Fatalf("answer hits %d, canceled %d; want 3 and 2", st.AnswerHits, st.Canceled)
	}
}

// TestAnswerMemoBound: the memo holds maxAnswers answers, and the next
// distinct one evicts the least recently used.
func TestAnswerMemoBound(t *testing.T) {
	e := New(Config{Workers: 1})
	ctx := context.Background()
	repairSeed := func(seed int64) {
		t.Helper()
		if _, err := e.Repair(ctx, progen.Program(seed), anomaly.EC); err != nil {
			t.Fatal(err)
		}
	}
	for seed := int64(1); seed <= maxAnswers; seed++ {
		repairSeed(seed)
	}
	repairSeed(1) // a hit: seed 2 is now the least recently used
	repairSeed(maxAnswers + 1)
	if got := answerCounters(e); got != [4]int64{1, maxAnswers + 1, 1, maxAnswers} {
		t.Fatalf("hits, misses, evictions, cached = %v, want [1 %d 1 %d]", got, maxAnswers+1, maxAnswers)
	}
	repairSeed(1)
	repairSeed(2)
	if st := e.Stats(); st.AnswerHits != 2 || st.AnswerMisses != maxAnswers+2 {
		t.Fatalf("after re-asking seeds 1 and 2: hits/misses %d/%d, want 2/%d (seed 2 was evicted)",
			st.AnswerHits, st.AnswerMisses, maxAnswers+2)
	}
}

// TestAnswerMemoIgnoresClient: the key is the program, not who asks.
func TestAnswerMemoIgnoresClient(t *testing.T) {
	e := New(Config{Workers: 1})
	prog, err := benchmarks.SmallBank.Program()
	if err != nil {
		t.Fatal(err)
	}
	for _, client := range []string{"a", "b"} {
		if _, err := e.Repair(context.Background(), prog, anomaly.EC, repair.Client(client)); err != nil {
			t.Fatal(err)
		}
	}
	if st := e.Stats(); st.AnswerMisses != 1 || st.AnswerHits != 1 {
		t.Fatalf("clients a and b: answer misses/hits %d/%d, want 1/1", st.AnswerMisses, st.AnswerHits)
	}
}

// TestAnswerMemoConcurrent: concurrent identical misses may both compute
// and the first fill wins, but every caller gets the same answer.
func TestAnswerMemoConcurrent(t *testing.T) {
	e := New(Config{Workers: 4})
	prog, err := benchmarks.SmallBank.Program()
	if err != nil {
		t.Fatal(err)
	}
	const n = 8
	repairs := make([]string, n)
	certs := make([]string, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ctx := context.Background()
			res, err := e.Repair(ctx, prog, anomaly.EC, repair.Client(fmt.Sprint("c", i)))
			if err != nil {
				t.Error(err)
				return
			}
			repairs[i] = repairView(res)
			cert, rep, err := e.Certify(ctx, prog, anomaly.EC)
			if err != nil {
				t.Error(err)
				return
			}
			certs[i] = certifyView(cert, rep)
		}(i)
	}
	wg.Wait()
	for i := 1; i < n; i++ {
		if repairs[i] != repairs[0] || certs[i] != certs[0] {
			t.Fatalf("goroutine %d answered differently from goroutine 0", i)
		}
	}
	if st := e.Stats(); st.AnswerHits+st.AnswerMisses != 2*n || st.CachedAnswers != 2 {
		t.Fatalf("answer hits %d + misses %d, cached %d; want %d lookups and 2 answers",
			st.AnswerHits, st.AnswerMisses, st.CachedAnswers, 2*n)
	}
}
