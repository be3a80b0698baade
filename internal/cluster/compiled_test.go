package cluster

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"atropos/internal/benchmarks"
	"atropos/internal/parser"
	"atropos/internal/sema"
	"atropos/internal/store"
)

// sameResult compares two runs' measurements. Scans is left out: it counts
// the work of the compiled store's access paths, and the oracle has none.
func sameResult(a, b Result) bool {
	a.Scans, b.Scans = Scans{}, Scans{}
	return a == b
}

// diffConfig builds a small but busy run: every client issues a few dozen
// transactions, SC contention triggers lock waits and aborts, logging
// tables grow.
func diffConfig(b *benchmarks.Benchmark, mode Mode, seed int64, t *testing.T) Config {
	t.Helper()
	prog, err := b.Program()
	if err != nil {
		t.Fatal(err)
	}
	scale := benchmarks.Scale{Records: 30}
	cfg := Config{
		Program:  prog,
		Mix:      b.Mix,
		Scale:    scale,
		Rows:     b.Rows(scale),
		Topology: USCluster,
		Clients:  8,
		Duration: 800 * time.Millisecond,
		Warmup:   100 * time.Millisecond,
		Seed:     seed,
		Mode:     mode,
	}
	if mode == ModeATSC {
		// Deterministically serialize every other transaction (declaration
		// order) — the differential test needs mixed engines exercised, not
		// a faithful repair.
		cfg.SerializableTxns = map[string]bool{}
		for i, txn := range prog.Txns {
			if i%2 == 0 {
				cfg.SerializableTxns[txn.Name] = true
			}
		}
	}
	return cfg
}

// TestCompiledMatchesInterpreter is the differential gate of DESIGN.md §9:
// across all nine benchmarks, the three deployment modes, and several
// seeds, the compiled executor must reproduce the AST interpreter's
// execution history byte for byte — every applied write batch (values,
// merge timestamps, replicas, virtual times), every commit, every abort —
// and its measured results exactly.
func TestCompiledMatchesInterpreter(t *testing.T) {
	for _, b := range benchmarks.All() {
		for _, mode := range []Mode{ModeEC, ModeSC, ModeATSC} {
			for seed := int64(1); seed <= 3; seed++ {
				name := fmt.Sprintf("%s/%s/seed%d", b.Name, mode, seed)
				t.Run(name, func(t *testing.T) {
					cfg := diffConfig(b, mode, seed, t)

					ref := cfg
					ref.useInterpreter = true
					ref.Trace = &Trace{}
					wantRes, err := Run(ref)
					if err != nil {
						t.Fatalf("interpreter run: %v", err)
					}

					got := cfg
					got.Trace = &Trace{}
					gotRes, err := Run(got)
					if err != nil {
						t.Fatalf("compiled run: %v", err)
					}

					if !sameResult(gotRes, wantRes) {
						t.Errorf("results diverge:\n  compiled:    %+v\n  interpreter: %+v", gotRes, wantRes)
					}
					if len(got.Trace.Events) != len(ref.Trace.Events) {
						t.Fatalf("history length diverges: compiled %d events, interpreter %d",
							len(got.Trace.Events), len(ref.Trace.Events))
					}
					for i := range got.Trace.Events {
						if got.Trace.Events[i] != ref.Trace.Events[i] {
							t.Fatalf("history diverges at event %d:\n  compiled:    %s\n  interpreter: %s",
								i, got.Trace.Events[i], ref.Trace.Events[i])
						}
					}
					if wantRes.Committed == 0 {
						t.Error("no transactions committed; differential run is vacuous")
					}
				})
			}
		}
	}
}

// TestCompiledMatchesInterpreterOpsBounded runs the same differential check
// in the ops-bounded mode, which exercises the stop-at-target path.
func TestCompiledMatchesInterpreterOpsBounded(t *testing.T) {
	for _, b := range []*benchmarks.Benchmark{benchmarks.SmallBank, benchmarks.TPCC} {
		for _, mode := range []Mode{ModeEC, ModeSC} {
			cfg := diffConfig(b, mode, 7, t)
			cfg.Duration = time.Hour // irrelevant: the run stops at Ops
			cfg.Ops = 120

			ref := cfg
			ref.useInterpreter = true
			ref.Trace = &Trace{}
			wantRes, err := Run(ref)
			if err != nil {
				t.Fatalf("%s/%s interpreter: %v", b.Name, mode, err)
			}
			got := cfg
			got.Trace = &Trace{}
			gotRes, err := Run(got)
			if err != nil {
				t.Fatalf("%s/%s compiled: %v", b.Name, mode, err)
			}
			if !sameResult(gotRes, wantRes) {
				t.Errorf("%s/%s: results diverge:\n  compiled:    %+v\n  interpreter: %+v",
					b.Name, mode, gotRes, wantRes)
			}
			if wantRes.Committed != 120 {
				t.Errorf("%s/%s: ops-bounded run committed %d, want exactly 120", b.Name, mode, wantRes.Committed)
			}
			for i := range got.Trace.Events {
				if i >= len(ref.Trace.Events) || got.Trace.Events[i] != ref.Trace.Events[i] {
					t.Fatalf("%s/%s: history diverges at event %d", b.Name, mode, i)
				}
			}
		}
	}
}

// TestCompiledFinalStateMatchesInterpreter drains both engines' runs and
// compares the converged primary replica row by row.
func TestCompiledFinalStateMatchesInterpreter(t *testing.T) {
	for _, b := range []*benchmarks.Benchmark{benchmarks.SmallBank, benchmarks.SEATS} {
		for _, mode := range []Mode{ModeEC, ModeSC} {
			cfg := diffConfig(b, mode, 11, t)
			ref := cfg
			ref.useInterpreter = true
			want, err := FinalState(ref)
			if err != nil {
				t.Fatal(err)
			}
			got, err := FinalState(cfg)
			if err != nil {
				t.Fatal(err)
			}
			prog, _ := b.Program()
			for _, s := range prog.Schemas {
				wk, gk := want.Keys(s.Name), got.Keys(s.Name)
				if len(wk) != len(gk) {
					t.Fatalf("%s/%s: table %s has %d keys compiled, %d interpreted",
						b.Name, mode, s.Name, len(gk), len(wk))
				}
				for i := range wk {
					if wk[i] != gk[i] {
						t.Fatalf("%s/%s: %s key %d differs", b.Name, mode, s.Name, i)
					}
					for _, f := range s.Fields {
						if wv, gv := want.Read(s.Name, wk[i], f.Name), got.Read(s.Name, gk[i], f.Name); !wv.Equal(gv) {
							t.Fatalf("%s/%s: %s[%q].%s = %s compiled, %s interpreted",
								b.Name, mode, s.Name, string(wk[i]), f.Name, gv, wv)
						}
					}
				}
			}
		}
	}
}

// The two shapes sema accepts and the compiler refuses (CHANGES.md, PR 23,
// walks all nineteen "compile:" sites): a variable rebound by a select of
// another shape, and uuid() outside an insert. Each program also has a
// transaction that compiles.
var refusedPrograms = map[string]string{
	"rebound: compile: \"v\" rebound with a different shape": `
table T { a: int key, b: int, }
table U { x: int key, y: int, }
txn rebound(k: int) {
  v := select b from T where a = k;
  if (k > 0) { v := select y from U where x = k; }
  return sum(v.y);
}
txn fine(k: int) { update T set b = 1 where a = k; }`,
	"stamp: compile: uuid() outside insert": `
table T { a: int key, b: int, }
txn stamp(k: int) { update T set b = uuid() where a = k; }
txn fine(k: int) { update T set b = 1 where a = k; }`,
}

// TestMistypedWriteRefused: a set or insert whose value is not of its
// field's type — sema rejects one, so only an unchecked program can carry it
// — is refused by the compiler, since a page decodes a cell by its field's
// type and would misread the value.
func TestMistypedWriteRefused(t *testing.T) {
	const schema = "table T { a: int key, b: int, s: string, }\n"
	for want, txn := range map[string]string{
		"w: compile: set T.b: type bool, field has type int":       `txn w(k: int) { update T set b = k > 0 where a = k; }`,
		"w: compile: set T.s: type invalid, field has type string": `txn w(k: int) { update T set s = q where a = k; }`,
		"w: compile: insert T.s: type int, field has type string":  `txn w(k: int) { insert into T values (a = k, b = 1, s = k + 1); }`,
		"w: compile: insert T.b: type string, field has type int":  `txn w(k: string) { insert into T values (a = 1, b = k, s = k); }`,
		"w: compile: set T.b: type string, field has type int":     `txn w(k: int) { x := select s from T where a = k; update T set b = x.s where a = k; }`,
		"w: compile: insert T.s: type bool, field has type string": `txn w(k: int) { insert into T values (a = k, b = 1, s = k = 1 && true); }`,
	} {
		prog, err := parser.Parse(schema + txn)
		if err != nil {
			t.Fatal(err)
		}
		if miss := Uncompiled(prog); len(miss) != 1 || miss[0] != want {
			t.Errorf("%s: refused %q, want %q", txn, miss, want)
		}
	}
}

// TestRefusedTxnFailsTheRun: compilation is total or loud. A run of a
// program with a transaction the compiler refuses fails with an error naming
// it — there is no second engine to run it on — even when the mix never
// draws it; a directed plan compiles on first use, so it fails exactly the
// runs that name the transaction.
func TestRefusedTxnFailsTheRun(t *testing.T) {
	for want, src := range refusedPrograms {
		prog, err := sema.Load(src)
		if err != nil {
			t.Fatalf("sema rejects the program, so the compiler never sees it: %v", err)
		}
		want = "cluster: " + want
		odd := prog.Txns[0].Name
		if miss := Uncompiled(prog); len(miss) != 1 || !strings.HasPrefix(miss[0], odd+": compile: ") {
			t.Errorf("Uncompiled lists %q, want %s alone", miss, odd)
		}
		cfg := Config{
			Program: prog,
			Mix: []benchmarks.MixEntry{{Txn: "fine", Weight: 1, Args: func(*rand.Rand, benchmarks.Scale) benchmarks.Args {
				return benchmarks.Bind(benchmarks.Arg{Name: "k", Val: store.IntV(1)})
			}}},
			Topology: USCluster,
			Clients:  1,
			Duration: 50 * time.Millisecond,
		}
		if _, err := Run(cfg); err == nil || err.Error() != want {
			t.Errorf("Run: %v, want %s", err, want)
		}
		if _, err := FinalState(cfg); err == nil || err.Error() != want {
			t.Errorf("FinalState: %v, want %s", err, want)
		}
		plan := NewDirectedPlan(prog)
		base, err := plan.Seed(nil)
		if err != nil {
			t.Fatal(err)
		}
		pair := func(a, b string) DirectedConfig {
			return DirectedConfig{Txns: [2]DirectedTxn{{Name: a, Args: intArgs("k", 1)}, {Name: b, Args: intArgs("k", 1)}}}
		}
		if _, err := plan.Run(base, pair("fine", odd)); err == nil || err.Error() != want {
			t.Errorf("directed run of %s: %v, want %s", odd, err, want)
		}
		if _, err := plan.Run(base, pair("fine", "fine")); err != nil {
			t.Errorf("directed run of the transaction that compiles: %v", err)
		}
	}
}
