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
// bound (never held), and a reply that only the first Store stores.
func TestMemoStats(t *testing.T) {
	e := New(Config{Workers: 1})
	// Room for two sources of half bytes each.
	const half = 1 << 16
	e.programs = newLRU[string, *ast.Program](2 * (programBytesPerSourceByte*half + lruEntryBytes))
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
	halfSrc := rmwSrc + strings.Repeat(" ", half-len(rmwSrc))
	step("half", halfSrc, false, [5]int64{1, 4, 2, n + half, 0})
	other := strings.Replace(halfSrc, " ", "\n", 1)
	step("other half evicts the first", other, false, [5]int64{1, 5, 2, 2 * half, 0})
	step("first is gone", rmwSrc, false, [5]int64{1, 6, 2, n + half, 0})
	step("past the bound", halfSrc+strings.Repeat(" ", half+64), false, [5]int64{1, 7, 2, n + half, 0})

	ctx := context.Background()
	var replies []*Reply
	for i := 0; i < 2; i++ {
		res, reply, err := e.RepairReply(ctx, first, anomaly.EC)
		if err != nil || res == nil || reply == nil || reply.Bytes != nil {
			t.Fatalf("computed repair %d: result %v, reply %v, err %v; want a result and a Reply to store", i, res != nil, reply, err)
		}
		replies = append(replies, reply)
	}
	for _, fill := range []string{"first", "second"} {
		replies[0].Store([]byte(fill))
		replies = replies[1:]
		if got := memoCounters(e)[4]; got != int64(len("first")) {
			t.Fatalf("after storing %q: reply bytes %d, want %d", fill, got, len("first"))
		}
		if got, want := e.Stats().AnswerBytes, len("first")+answerKeyBytes+lruEntryBytes; got != want {
			t.Fatalf("after storing %q: answer bytes %d, want %d", fill, got, want)
		}
	}
	if res, reply, err := e.RepairReply(ctx, first, anomaly.EC); err != nil || res != nil || string(reply.Bytes) != "first" {
		t.Fatalf("hit: result %v, reply %q, err %v; want only the first store's reply", res != nil, reply.Bytes, err)
	}
}

// TestParseKeepsNoSource: the program memo is the daemon's one cache of
// programs by text, so a miss keeps no source in the parser's memo. A
// library parse of the same text afterwards parses it again, into arrays
// of its own; the next library parse is the memo's hit, sharing them.
func TestParseKeepsNoSource(t *testing.T) {
	e := New(Config{Workers: 1})
	src := "// engine first\n" + benchmarks.SmallBank.Source
	prog, err := e.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	lib, err := sema.Load(src)
	if err != nil {
		t.Fatal(err)
	}
	again, err := sema.Load(src)
	if err != nil {
		t.Fatal(err)
	}
	if &lib.Txns[0] == &prog.Txns[0] {
		t.Fatal("Engine.Parse kept its source in the parser's memo")
	}
	if &again.Txns[0] != &lib.Txns[0] {
		t.Fatal("a library parse kept no source in the parser's memo")
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
