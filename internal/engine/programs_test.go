package engine

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"

	"atropos/internal/anomaly"
	"atropos/internal/ast"
	"atropos/internal/benchmarks"
	"atropos/internal/repair"
	"atropos/internal/sema"
)

// memoCounters is the program memo's part of Stats, and the reply bytes.
func memoCounters(e *Engine) [5]int64 {
	st := e.Stats()
	return [5]int64{st.ProgramHits, st.ProgramMisses, int64(st.CachedPrograms), int64(st.CachedSourceBytes), int64(st.AnswerReplyBytes)}
}

// TestMemoStats pins the program memo's counters and the stored reply
// bytes over a scripted sequence: a miss and a hit, sources that fail to
// check (never held), an eviction by the byte bound, a source past the
// bound (never held), and a reply that only the first Fill stores.
func TestMemoStats(t *testing.T) {
	e := New(Config{Workers: 1})
	n := int64(len(rmwSrc))
	step := func(name, src string, wantErr bool, want [5]int64) *ast.Program {
		t.Helper()
		prog, err := e.Parse(src)
		if (err != nil) != wantErr {
			t.Fatalf("%s: err = %v, want error %t", name, err, wantErr)
		}
		if got := memoCounters(e); got != want {
			t.Fatalf("%s: hits, misses, programs, source bytes, reply bytes = %v, want %v", name, got, want)
		}
		return prog
	}
	first := step("miss", rmwSrc, false, [5]int64{0, 1, 1, n, 0})
	if again := step("hit", rmwSrc, false, [5]int64{1, 1, 1, n, 0}); again != first {
		t.Fatal("a hit returned a different program")
	}
	step("unchecked", "table T { n: int, }", true, [5]int64{1, 2, 1, n, 0})
	step("unchecked again", "table T { n: int, }", true, [5]int64{1, 3, 1, n, 0})
	half := rmwSrc + strings.Repeat(" ", maxProgramBytes/2-len(rmwSrc))
	step("half", half, false, [5]int64{1, 4, 2, n + maxProgramBytes/2, 0})
	other := strings.Replace(half, " ", "\n", 1)
	step("other half evicts the first", other, false, [5]int64{1, 5, 2, maxProgramBytes, 0})
	step("first is gone", rmwSrc, false, [5]int64{1, 6, 2, n + maxProgramBytes/2, 0})
	step("past the bound", half+strings.Repeat(" ", maxProgramBytes/2+1), false, [5]int64{1, 7, 2, n + maxProgramBytes/2, 0})

	ctx := context.Background()
	if _, reply, err := e.RepairReply(ctx, first, anomaly.EC); err != nil || reply != nil {
		t.Fatalf("computed repair: reply %v, err %v; want none", reply, err)
	}
	for i, fill := range []string{"first", "second"} {
		_, reply, err := e.RepairReply(ctx, first, anomaly.EC)
		if err != nil || reply == nil {
			t.Fatalf("hit %d: reply %v, err %v", i, reply, err)
		}
		if want := []string{"", "first"}[i]; string(reply.Bytes) != want {
			t.Fatalf("hit %d: stored reply %q, want %q", i, reply.Bytes, want)
		}
		reply.Fill([]byte(fill))
		if got := memoCounters(e)[4]; got != int64(len("first")) {
			t.Fatalf("after fill %q: reply bytes %d, want %d", fill, got, len("first"))
		}
	}

	// An evicted entry takes its reply's bytes along, and a Fill that comes
	// after the eviction stores nothing, even once its key is back.
	m := newAnswerMemo()
	m.put(&answer{key: answerKey{prog: 0}})
	_, reply := m.get(answerKey{prog: 0})
	reply.Fill([]byte("reply"))
	for i := uint64(1); i <= maxAnswers; i++ {
		m.put(&answer{key: answerKey{prog: i}})
	}
	late, lateReply := m.get(answerKey{prog: 1})
	for i := uint64(maxAnswers + 1); i <= 2*maxAnswers; i++ {
		m.put(&answer{key: answerKey{prog: i}})
	}
	m.put(&answer{key: answerKey{prog: 1}})
	lateReply.Fill([]byte("late"))
	var st Stats
	if m.counters(&st); st.AnswerReplyBytes != 0 || st.AnswerEvictions != maxAnswers+2 || late.reply != nil {
		t.Fatalf("after evicting the filled entry: reply bytes %d, evictions %d, late reply %q; want 0, %d, none",
			st.AnswerReplyBytes, st.AnswerEvictions, late.reply, maxAnswers+2)
	}
}

// TestMemoizedProgramIsShared: a memoized program is shared by concurrent
// analyses, repairs (certifying and not) and certifications for distinct
// clients, and none of them writes to it. Run under -race.
func TestMemoizedProgramIsShared(t *testing.T) {
	e := New(Config{Workers: 4})
	src := benchmarks.SmallBank.Source
	prog, err := e.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	hash, text := ast.HashProgram(prog), ast.Format(prog)
	const n = 8
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ctx, client := context.Background(), repair.Client(fmt.Sprint("c", i))
			p, err := e.Parse(src)
			if err != nil || p != prog {
				t.Errorf("goroutine %d: parse returned %p, %v; want the memoized %p", i, p, err, prog)
				return
			}
			if _, err := e.Analyze(ctx, p, anomaly.EC, client); err != nil {
				t.Error(err)
			}
			for _, certify := range []bool{false, true} {
				if _, err := e.Repair(ctx, p, anomaly.EC, client, repair.Certify(certify)); err != nil {
					t.Error(err)
				}
			}
			if _, _, err := e.Certify(ctx, p, anomaly.EC); err != nil {
				t.Error(err)
			}
		}(i)
	}
	wg.Wait()
	fresh, err := sema.Load(src)
	if err != nil {
		t.Fatal(err)
	}
	if ast.HashProgram(prog) != hash || ast.HashProgram(fresh) != hash || ast.Format(prog) != text {
		t.Fatal("the memoized program changed while shared")
	}
	if st := e.Stats(); st.ProgramHits != n || st.ProgramMisses != 1 {
		t.Fatalf("program hits/misses %d/%d, want %d/1", st.ProgramHits, st.ProgramMisses, n)
	}
}
