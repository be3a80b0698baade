package cluster

import (
	"fmt"
	"testing"
	"time"

	"atropos/internal/benchmarks"
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
					ref.UseInterpreter = true
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
			ref.UseInterpreter = true
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
			ref.UseInterpreter = true
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
