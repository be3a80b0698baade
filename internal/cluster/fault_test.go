package cluster

import (
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"atropos/internal/benchmarks"
)

// faultedConfig is diffConfig plus a fault plan.
func faultedConfig(b *benchmarks.Benchmark, mode Mode, seed int64, plan *FaultPlan, t *testing.T) Config {
	t.Helper()
	cfg := diffConfig(b, mode, seed, t)
	cfg.Faults = plan
	return cfg
}

// TestFaultedCompiledMatchesInterpreter extends the DESIGN.md §9
// differential gate to the fault layer: across every benchmark, every
// non-clean chaos scenario, and all three deployment modes, the compiled
// executor and the AST interpreter must produce byte-identical traces —
// the fault hooks sit at mirrored call sites in both engines, and this
// test is what keeps them mirrored.
func TestFaultedCompiledMatchesInterpreter(t *testing.T) {
	horizon := (900 * time.Millisecond).Microseconds() // diffConfig's warmup+duration
	for _, b := range benchmarks.All() {
		for _, sc := range ChaosScenarios(horizon) {
			if sc.Plan == nil {
				continue // the clean control is compiled_test.go's grid
			}
			for _, mode := range []Mode{ModeEC, ModeSC, ModeATSC} {
				name := fmt.Sprintf("%s/%s/%s", b.Name, sc.Name, mode)
				t.Run(name, func(t *testing.T) {
					cfg := faultedConfig(b, mode, 5, sc.Plan, t)

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
						t.Error("no transactions committed; faulted differential run is vacuous")
					}
				})
			}
		}
	}
}

// TestFaultTraceDeterminism is the reproducibility property of the fault
// layer: the same (seed, plan, config) must yield the same trace byte for
// byte on repeated runs of either engine — and a faulted run must not
// silently equal the fault-free one (the panel would be vacuous).
func TestFaultTraceDeterminism(t *testing.T) {
	horizon := (900 * time.Millisecond).Microseconds()
	for _, sc := range ChaosScenarios(horizon) {
		for _, interp := range []bool{false, true} {
			engine := "compiled"
			if interp {
				engine = "interpreter"
			}
			t.Run(sc.Name+"/"+engine, func(t *testing.T) {
				run := func() []string {
					cfg := faultedConfig(benchmarks.SmallBank, ModeATSC, 9, sc.Plan, t)
					cfg.useInterpreter = interp
					cfg.Trace = &Trace{}
					if _, err := Run(cfg); err != nil {
						t.Fatal(err)
					}
					return cfg.Trace.Events
				}
				first, second := run(), run()
				if len(first) != len(second) {
					t.Fatalf("repeated run changed history length: %d vs %d", len(first), len(second))
				}
				for i := range first {
					if first[i] != second[i] {
						t.Fatalf("repeated run diverges at event %d:\n  first:  %s\n  second: %s",
							i, first[i], second[i])
					}
				}
				if sc.Plan != nil {
					// Header lines pin the schedule, and the history itself
					// must actually be perturbed by the faults.
					for i, f := range sc.Plan.Faults {
						if !strings.HasPrefix(first[i], "fault "+f.Kind.String()) {
							t.Errorf("event %d: want a %q fault header, got %q", i, f.Kind, first[i])
						}
					}
					clean := faultedConfig(benchmarks.SmallBank, ModeATSC, 9, nil, t)
					clean.useInterpreter = interp
					clean.Trace = &Trace{}
					if _, err := Run(clean); err != nil {
						t.Fatal(err)
					}
					body := first[len(sc.Plan.Faults):]
					same := len(body) == len(clean.Trace.Events)
					for i := 0; same && i < len(body); i++ {
						same = body[i] == clean.Trace.Events[i]
					}
					if same {
						t.Errorf("%s: faulted history identical to fault-free history", sc.Name)
					}
				}
			})
		}
	}
}

// TestFaultPlanValidation checks that malformed plans are rejected before
// a single event runs.
func TestFaultPlanValidation(t *testing.T) {
	cases := []struct {
		name  string
		fault Fault
	}{
		{"empty-window", Fault{Kind: FaultCrash, From: 100, Until: 100, A: 1}},
		{"negative-from", Fault{Kind: FaultCrash, From: -1, Until: 100, A: 1}},
		{"bad-replica", Fault{Kind: FaultCrash, From: 0, Until: 100, A: 3}},
		{"self-link", Fault{Kind: FaultPartition, From: 0, Until: 100, A: 1, B: 1}},
		{"drop-pct-low", Fault{Kind: FaultDrop, From: 0, Until: 100, A: 0, B: 1, Pct: 0}},
		{"drop-pct-high", Fault{Kind: FaultDrop, From: 0, Until: 100, A: 0, B: 1, Pct: 96}},
		{"lag-no-amount", Fault{Kind: FaultLag, From: 0, Until: 100, A: 0, B: 1}},
		{"unknown-kind", Fault{Kind: FaultKind(99), From: 0, Until: 100, A: 0}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := diffConfig(benchmarks.SmallBank, ModeEC, 1, t)
			cfg.Faults = &FaultPlan{Faults: []Fault{tc.fault}}
			if _, err := Run(cfg); err == nil {
				t.Errorf("Run accepted invalid fault %+v", tc.fault)
			}
		})
	}
}

// fuzzPlan decodes fuzzer bytes into a valid FaultPlan: one fault window
// per 7-byte chunk (at most 8 windows), every field clamped into its legal
// range so the fuzzer explores schedules, not the validator.
func fuzzPlan(data []byte, horizon int64) *FaultPlan {
	plan := &FaultPlan{Seed: int64(len(data))}
	for len(data) >= 7 && len(plan.Faults) < 8 {
		c := data[:7]
		data = data[7:]
		f := Fault{
			Kind: FaultKind(c[0] % 6),
			A:    int(c[1] % 3),
			From: int64(c[3]) * horizon / 256,
		}
		f.Until = f.From + 1 + int64(c[4])*horizon/256
		switch f.Kind {
		case FaultCrash:
		case FaultSkew:
			f.Amount = int64(c[5]%128) - 64
		default:
			f.B = int(c[2] % 3)
			if f.B == f.A {
				f.B = (f.A + 1) % 3
			}
			f.Amount = 1 + int64(c[5])*2000
			f.Pct = 1 + int(c[6])%95
		}
		plan.Seed = plan.Seed*257 + int64(c[6])
		plan.Faults = append(plan.Faults, f)
	}
	if len(plan.Faults) == 0 {
		return nil
	}
	return plan
}

// FuzzFaultScheduleEquivalence fuzzes fault schedules against the twin
// property: any valid plan, on a mixed-mode SmallBank run, must leave the
// compiled executor and the AST interpreter byte-identical — histories,
// results, and (both runs are observed) observation records in canonObs's
// form.
func FuzzFaultScheduleEquivalence(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 1, 10, 200, 5, 40})                             // partition 0-1
	f.Add([]byte{1, 1, 0, 20, 100, 0, 0, 3, 2, 0, 30, 180, 96, 7})     // crash r1 + skew r2
	f.Add([]byte{4, 1, 2, 25, 150, 9, 60, 5, 1, 2, 25, 150, 9, 19, 2}) // drop + reorder 1-2
	prog, err := benchmarks.SmallBank.Program()
	if err != nil {
		f.Fatal(err)
	}
	scale := benchmarks.Scale{Records: 20}
	rows := benchmarks.SmallBank.Rows(scale)
	serial := map[string]bool{}
	for i, txn := range prog.Txns {
		if i%2 == 0 {
			serial[txn.Name] = true
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		cfg := Config{
			Program:          prog,
			Mix:              benchmarks.SmallBank.Mix,
			Scale:            scale,
			Rows:             rows,
			Topology:         USCluster,
			Clients:          6,
			Duration:         300 * time.Millisecond,
			Warmup:           50 * time.Millisecond,
			Seed:             13,
			Mode:             ModeATSC,
			SerializableTxns: serial,
			Faults:           fuzzPlan(data, (350 * time.Millisecond).Microseconds()),
		}
		ref := cfg
		ref.useInterpreter = true
		ref.Trace, ref.Observe = &Trace{}, &Observation{}
		wantRes, err := Run(ref)
		if err != nil {
			t.Fatal(err)
		}
		got := cfg
		got.Trace, got.Observe = &Trace{}, &Observation{}
		gotRes, err := Run(got)
		if err != nil {
			t.Fatal(err)
		}
		if g, w := canonObs(got.Observe), canonObs(ref.Observe); !slices.EqualFunc(g, w, equalObs) || !slices.Equal(got.Observe.Txns, ref.Observe.Txns) {
			t.Fatalf("observations diverge under plan %+v: compiled %d records, interpreter %d", cfg.Faults, len(g), len(w))
		}
		if !sameResult(gotRes, wantRes) {
			t.Fatalf("results diverge under plan %+v:\n  compiled:    %+v\n  interpreter: %+v",
				cfg.Faults, gotRes, wantRes)
		}
		if len(got.Trace.Events) != len(ref.Trace.Events) {
			t.Fatalf("history length diverges under plan %+v: compiled %d, interpreter %d",
				cfg.Faults, len(got.Trace.Events), len(ref.Trace.Events))
		}
		for i := range got.Trace.Events {
			if got.Trace.Events[i] != ref.Trace.Events[i] {
				t.Fatalf("history diverges at event %d under plan %+v:\n  compiled:    %s\n  interpreter: %s",
					i, cfg.Faults, got.Trace.Events[i], ref.Trace.Events[i])
			}
		}
	})
}
