package repair

import (
	"context"
	"reflect"
	"testing"
	"time"

	"atropos/internal/anomaly"
	"atropos/internal/ast"
	"atropos/internal/sat"
)

// TestRepairHugeBudgetEquivalent: a solve budget far above what courseware
// needs must leave every observable field of the repair — program text,
// pair lists, steps, deployment set, query counters — identical to the
// unbudgeted run's.
func TestRepairHugeBudgetEquivalent(t *testing.T) {
	prog := mustProg(t, courseware)
	want, err := repairProg(prog, anomaly.EC)
	if err != nil {
		t.Fatal(err)
	}
	huge := sat.Budget{Conflicts: 1 << 40, Propagations: 1 << 40, ArenaLits: 1 << 40}
	got, err := repairOpts(prog, anomaly.EC, Options{SolveBudget: huge})
	if err != nil {
		t.Fatal(err)
	}
	if got.Degraded || got.Unknown != 0 || got.Exhausted != 0 {
		t.Fatalf("huge-budget repair degraded: degraded=%v unknown=%d exhausted=%d",
			got.Degraded, got.Unknown, got.Exhausted)
	}
	if g, w := ast.Format(got.Program), ast.Format(want.Program); g != w {
		t.Fatalf("huge-budget repair produced a different program:\n%s\n-- want --\n%s", g, w)
	}
	if !reflect.DeepEqual(got.Initial, want.Initial) || !reflect.DeepEqual(got.Remaining, want.Remaining) {
		t.Fatalf("huge-budget pair lists differ:\ngot  %v / %v\nwant %v / %v",
			got.Initial, got.Remaining, want.Initial, want.Remaining)
	}
	if !reflect.DeepEqual(got.Steps, want.Steps) {
		t.Fatalf("huge-budget steps differ:\ngot  %v\nwant %v", got.Steps, want.Steps)
	}
	if !reflect.DeepEqual(got.SerializableTxns, want.SerializableTxns) {
		t.Fatalf("huge-budget deployment set differs: %v, want %v", got.SerializableTxns, want.SerializableTxns)
	}
	if got.Stats != want.Stats {
		t.Fatalf("huge-budget stats differ: %+v, want %+v", got.Stats, want.Stats)
	}
}

// TestRepairStarvedBudgetDegrades: under a starvation budget the pipeline
// must return a sound partial result — degraded with the exhaustion
// counted, a valid (possibly untouched) program, reported pairs a subset
// of the full run's, every remaining anomalous transaction conservatively
// in the deployment set — and do so deterministically.
func TestRepairStarvedBudgetDegrades(t *testing.T) {
	prog := mustProg(t, courseware)
	full, err := repairProg(prog, anomaly.EC)
	if err != nil {
		t.Fatal(err)
	}
	starved := Options{SolveBudget: sat.Budget{Propagations: 1}}
	got, err := repairOpts(prog, anomaly.EC, starved)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Degraded || got.Exhausted == 0 || got.Unknown == 0 {
		t.Fatalf("starved repair not degraded: degraded=%v unknown=%d exhausted=%d",
			got.Degraded, got.Unknown, got.Exhausted)
	}
	if len(got.DegradedStages) != 0 {
		t.Fatalf("budget exhaustion named stages %v; stages are deadline degradations", got.DegradedStages)
	}
	if got.Program == nil {
		t.Fatal("degraded repair returned no program")
	}
	inFull := map[string]bool{}
	for _, p := range full.Initial {
		inFull[p.String()] = true
	}
	for _, p := range got.Initial {
		if !inFull[p.String()] {
			t.Fatalf("starved repair invented pair %s absent from the full run", p)
		}
	}
	txns := map[string]bool{}
	for _, n := range got.SerializableTxns {
		txns[n] = true
	}
	for _, p := range got.Remaining {
		if !txns[p.Txn] {
			t.Fatalf("remaining pair %s's transaction missing from the deployment set %v", p, got.SerializableTxns)
		}
	}
	again, err := repairOpts(prog, anomaly.EC, starved)
	if err != nil {
		t.Fatal(err)
	}
	if ast.Format(got.Program) != ast.Format(again.Program) ||
		!reflect.DeepEqual(got.Initial, again.Initial) ||
		!reflect.DeepEqual(got.Remaining, again.Remaining) ||
		got.Unknown != again.Unknown || got.Exhausted != again.Exhausted {
		t.Fatalf("starved repair nondeterministic:\nrun1 %+v\nrun2 %+v", got, again)
	}
}

// TestSplitProportions pins the default deadline carve-up: 55% detect, 25%
// repair, 20% certify, and the zero/negative total mapping to no stage
// bounds at all.
func TestSplitProportions(t *testing.T) {
	got := Split(time.Second)
	want := StageDeadlines{Detect: 550 * time.Millisecond, Repair: 250 * time.Millisecond, Certify: 200 * time.Millisecond}
	if got != want {
		t.Fatalf("Split(1s) = %+v, want %+v", got, want)
	}
	if (Split(0) != StageDeadlines{}) || (Split(-time.Second) != StageDeadlines{}) {
		t.Fatal("Split of a non-positive total must impose no stage bounds")
	}
}

// TestDetectStageExpiredDegrades: an already-spent detect allowance makes
// the run degrade to the sound catch-all — untouched program, every
// transaction serialized — instead of erroring.
func TestDetectStageExpiredDegrades(t *testing.T) {
	prog := mustProg(t, courseware)
	res, err := RunWith(context.Background(), prog, anomaly.EC,
		Options{Stages: StageDeadlines{Detect: time.Nanosecond}})
	if err != nil {
		t.Fatalf("expired detect stage must degrade, not fail: %v", err)
	}
	if !res.Degraded || len(res.DegradedStages) == 0 || res.DegradedStages[0] != "detect" {
		t.Fatalf("degraded stages = %v, want [detect]", res.DegradedStages)
	}
	if ast.Format(res.Program) != ast.Format(prog) {
		t.Fatal("detect-starved repair modified the program")
	}
	if len(res.SerializableTxns) != len(prog.Txns) {
		t.Fatalf("conservative deployment set has %d transactions, want all %d",
			len(res.SerializableTxns), len(prog.Txns))
	}
}

// TestRepairStageExpiredDegrades: an already-spent repair allowance skips
// the pair loop — nothing is refactored, the anomalous transactions are
// serialized instead — while detection still runs to completion.
func TestRepairStageExpiredDegrades(t *testing.T) {
	prog := mustProg(t, courseware)
	full, err := repairProg(prog, anomaly.EC)
	if err != nil {
		t.Fatal(err)
	}
	if len(full.Initial) == 0 {
		t.Fatal("setup: courseware has no anomalies to skip")
	}
	res, err := RunWith(context.Background(), prog, anomaly.EC,
		Options{Stages: StageDeadlines{Repair: time.Nanosecond}})
	if err != nil {
		t.Fatalf("expired repair stage must degrade, not fail: %v", err)
	}
	if !res.Degraded || len(res.DegradedStages) != 1 || res.DegradedStages[0] != "repair" {
		t.Fatalf("degraded stages = %v, want [repair]", res.DegradedStages)
	}
	if len(res.Corrs) != 0 {
		t.Fatalf("repair-starved run still applied %d refactorings", len(res.Corrs))
	}
	if len(res.Initial) != len(full.Initial) {
		t.Fatalf("detection under an expired repair stage found %d pairs, full run %d",
			len(res.Initial), len(full.Initial))
	}
	txns := map[string]bool{}
	for _, n := range res.SerializableTxns {
		txns[n] = true
	}
	for _, p := range res.Remaining {
		if !txns[p.Txn] {
			t.Fatalf("unrepaired pair %s's transaction missing from the deployment set %v", p, res.SerializableTxns)
		}
	}
}

// TestCertifyStageExpiredDegrades: a spent certify allowance cuts off
// certificate replay — the repair itself is complete and identical to an
// uncertified run, only the certificate is partial (or absent).
func TestCertifyStageExpiredDegrades(t *testing.T) {
	prog := mustProg(t, courseware)
	plain, err := repairProg(prog, anomaly.EC)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunWith(context.Background(), prog, anomaly.EC,
		Options{Certify: true, Stages: StageDeadlines{Certify: time.Nanosecond}})
	if err != nil {
		t.Fatalf("expired certify stage must degrade, not fail: %v", err)
	}
	if !res.Degraded || len(res.DegradedStages) != 1 || res.DegradedStages[0] != "certify" {
		t.Fatalf("degraded stages = %v, want [certify]", res.DegradedStages)
	}
	if ast.Format(res.Program) != ast.Format(plain.Program) {
		t.Fatal("certify-starved run changed the repair itself")
	}
	if len(res.Remaining) != len(plain.Remaining) {
		t.Fatalf("certify-starved run left %d pairs, plain run %d", len(res.Remaining), len(plain.Remaining))
	}
}
