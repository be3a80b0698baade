package ast

import (
	"fmt"
	"sync"
	"testing"
)

// Parallel-interning microbenchmarks (DESIGN.md §10): concurrent parsers
// and repairs intern the same small population of expressions over and
// over, so the steady-state cost is a hash + lock + bucket probe plus the
// occasional canonicalizing rebuild.
// BenchmarkInternParallel measures the sharded table that ships;
// BenchmarkInternParallelMutex re-implements the pre-shard single-mutex
// table locally so the two can be compared on a multi-core machine (the
// scaling claim is sharded ≥4x mutex at 8 procs). Both use a fixed
// 8-goroutine fan-out rather than b.RunParallel so allocs/op — gated by
// BENCH_allocs.json at -benchtime 1x — do not depend on GOMAXPROCS.

const (
	internBenchWorkers = 8
	internBenchOps     = 1024 // interns per worker per benchmark op
)

// internWorkingSet builds n distinct expression trees shaped like the
// where-clauses the encoder interns: comparisons over fields, args, and
// literals. The trees deliberately share sub-shapes (8 field names, one
// arg) so steady-state interning exercises the canonicalizing-rebuild
// path, not just pointer-identity hits.
func internWorkingSet(n int) []Expr {
	set := make([]Expr, n)
	for i := range set {
		set[i] = &Binary{
			Op: OpLt,
			L:  &ThisField{Field: fmt.Sprintf("f%d", i%8)},
			R: &Binary{
				Op: OpAdd,
				L:  &Arg{Name: "a"},
				R:  &IntLit{Val: int64(i)},
			},
		}
	}
	return set
}

func BenchmarkInternParallel(b *testing.B) {
	set := internWorkingSet(256)
	for _, e := range set {
		Intern(e) // pre-populate: steady state is lookup + rebuild, not insert
	}
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		var wg sync.WaitGroup
		for w := 0; w < internBenchWorkers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := 0; i < internBenchOps; i++ {
					Intern(set[(i+w)&255])
				}
			}(w)
		}
		wg.Wait()
	}
}

// mutexConsTable is the pre-shard design: one lock in front of the whole
// bucket map. Kept here (test-only) as the benchmark baseline.
type mutexConsTable struct {
	sync.Mutex
	m map[uint64][]Expr
	n int
}

func (t *mutexConsTable) intern(e Expr) Expr {
	if e == nil {
		return nil
	}
	switch x := e.(type) {
	case *Binary:
		l, r := t.intern(x.L), t.intern(x.R)
		if l != x.L || r != x.R {
			e = &Binary{Op: x.Op, L: l, R: r}
		}
	case *FieldAt:
		if idx := t.intern(x.Index); idx != x.Index {
			e = &FieldAt{Var: x.Var, Field: x.Field, Index: idx}
		}
	}
	h := HashExpr(e)
	if h&hashUUID != 0 {
		return e
	}
	t.Lock()
	defer t.Unlock()
	for _, c := range t.m[h] {
		if EqualExpr(c, e) {
			return c
		}
	}
	if t.n < consTableMax {
		t.m[h] = append(t.m[h], e)
		t.n++
	}
	return e
}

func BenchmarkInternParallelMutex(b *testing.B) {
	tab := &mutexConsTable{m: make(map[uint64][]Expr)}
	set := internWorkingSet(256)
	for _, e := range set {
		tab.intern(e)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		var wg sync.WaitGroup
		for w := 0; w < internBenchWorkers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := 0; i < internBenchOps; i++ {
					tab.intern(set[(i+w)&255])
				}
			}(w)
		}
		wg.Wait()
	}
}

// TestInternParallelCanonical hammers the sharded table from many
// goroutines with structurally equal but physically distinct trees and
// asserts every goroutine observes the same canonical node per shape.
func TestInternParallelCanonical(t *testing.T) {
	const workers = 8
	const shapes = 64
	results := make([][]Expr, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			got := make([]Expr, shapes)
			for i, e := range internWorkingSet(shapes) {
				got[i] = Intern(e)
			}
			results[w] = got
		}(w)
	}
	wg.Wait()
	for w := 1; w < workers; w++ {
		for i := range results[0] {
			if results[w][i] != results[0][i] {
				t.Fatalf("worker %d shape %d: got a different canonical node than worker 0", w, i)
			}
		}
	}
}
