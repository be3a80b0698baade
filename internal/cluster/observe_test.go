package cluster

import (
	"cmp"
	"fmt"
	"slices"
	"testing"
	"time"

	"atropos/internal/benchmarks"
)

// canonObs puts an observation's records in the form the two executors must
// agree on: the reads as a sorted set (replay.deriveEdges dedups them, so
// order and repetition are each executor's own) and the writes sorted.
func canonObs(o *Observation) []DirectedObs {
	out := slices.Clone(o.Obs)
	for i := range out {
		ob := &out[i]
		ob.Reads = readSet(ob.Reads)
		ob.Writes = slices.Clone(ob.Writes)
		slices.SortStableFunc(ob.Writes, func(a, b WriteOp) int {
			return cmp.Or(cmp.Compare(a.Table, b.Table), cmp.Compare(a.Key, b.Key), cmp.Compare(a.Field, b.Field))
		})
	}
	return out
}

// equalObs compares two canonical records: instance, static command,
// timestamp, the view's batches in log order, reads and writes.
func equalObs(a, b DirectedObs) bool {
	return a.Inst == b.Inst && a.Cmd == b.Cmd && a.TS == b.TS && slices.Equal(a.View, b.View) &&
		slices.Equal(a.Reads, b.Reads) && slices.Equal(a.Writes, b.Writes)
}

// sameObs runs cfg observed on both executors and compares the canonical
// observations record by record, returning the compiled one.
func sameObs(t *testing.T, cfg Config) *Observation {
	t.Helper()
	var want, got Observation
	ref := cfg
	ref.useInterpreter = true
	ref.Observe = &want
	if _, err := Run(ref); err != nil {
		t.Fatalf("interpreter run: %v", err)
	}
	cfg.Observe = &got
	if _, err := Run(cfg); err != nil {
		t.Fatalf("compiled run: %v", err)
	}
	if !slices.Equal(got.Txns, want.Txns) {
		t.Errorf("compiled run launched %d instances, interpreter %d, or not the same ones", len(got.Txns), len(want.Txns))
	}
	g, w := canonObs(&got), canonObs(&want)
	if len(g) != len(w) {
		t.Errorf("compiled run recorded %d commands, interpreter %d", len(g), len(w))
	}
	for i := 0; i < len(g) && i < len(w); i++ {
		if !equalObs(g[i], w[i]) {
			t.Fatalf("observations diverge at record %d:\n  compiled:    %+v\n  interpreter: %+v", i, g[i], w[i])
		}
	}
	return &got
}

// TestObservationMatchesInterpreter holds the one observation recorder
// (cframe.observe, obsState.crecord) to the AST reference's obsView record
// by record: every benchmark under every deployment mode, and one faulted
// plan per mode. An observed command must report what the detector's
// encoding says it reads — every row its key pins leave, whatever its
// access path — which is what the equality-indexed commands of SEATS,
// Twitter and FMKe check here; the outcome goldens do not.
func TestObservationMatchesInterpreter(t *testing.T) {
	benches, seeds := benchmarks.All(), []int64{1, 2}
	if testing.Short() {
		benches, seeds = []*benchmarks.Benchmark{benchmarks.SmallBank, benchmarks.SEATS}, seeds[:1]
	}
	modes := []Mode{ModeEC, ModeSC, ModeATSC}
	for _, b := range benches {
		for _, mode := range modes {
			for _, seed := range seeds {
				t.Run(fmt.Sprintf("%s/%s/seed%d", b.Name, mode, seed), func(t *testing.T) {
					obs := sameObs(t, diffConfig(b, mode, seed, t))
					reads := 0
					for _, ob := range obs.Obs {
						reads += len(ob.Reads)
					}
					if len(obs.Obs) == 0 || reads == 0 {
						t.Errorf("%d records, %d reads: the cell is vacuous", len(obs.Obs), reads)
					}
				})
			}
		}
	}
	scenarios := ChaosScenarios((900 * time.Millisecond).Microseconds())[1:] // [0] is the clean control
	for i, mode := range modes {
		sc := scenarios[i]
		t.Run(fmt.Sprintf("faulted/%s/%s", sc.Name, mode), func(t *testing.T) {
			if obs := sameObs(t, faultedConfig(benchmarks.SmallBank, mode, 5, sc.Plan, t)); len(obs.Obs) == 0 {
				t.Error("no records: the cell is vacuous")
			}
		})
	}
}
