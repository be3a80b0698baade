package exp

import (
	"fmt"
	"testing"
)

// TestServiceChaos runs the full scripted fault sequence and holds it to
// the gate: stalls drain, overload sheds, the breaker trips exactly once,
// the injected panic is contained, and the engine recovers.
func TestServiceChaos(t *testing.T) {
	res, err := RunServiceChaos(ServiceChaosConfig{})
	if err != nil {
		t.Fatalf("RunServiceChaos: %v", err)
	}
	for _, f := range ServiceChaosGate(res) {
		t.Error(f)
	}
	if t.Failed() {
		t.Logf("\n%s", res.Format())
	}
}

// goldenServiceChaos is the committed panel's outcome; every count is fixed
// by the script, so it holds on every run.
var goldenServiceChaos = ServiceChaosResult{
	Workers: 2, QueueDepth: 2,
	StallCompleted: 2,
	QueueRejected:  3, QueueShed: 2,
	BreakerDegraded: 3, BreakerTrips: 1, BreakerFastFails: 2,
	PanicsInjected: 1, PanicsRecovered: 1,
	RecoveryCompleted: 4, RecoveryDegraded: 0,
	EngineCompleted: 10, EngineRejected: 7, EngineShed: 2, EngineDegraded: 3,
	FinalInFlight: 0, FinalQueued: 0, BreakerOpen: 1,
}

// TestServiceChaosDeterministic: two runs each reproduce every count
// column of the golden panel.
func TestServiceChaosDeterministic(t *testing.T) {
	for run := 1; run <= 2; run++ {
		res, err := RunServiceChaos(ServiceChaosConfig{})
		if err != nil {
			t.Fatalf("run %d: %v", run, err)
		}
		res.Wall = 0
		checkCounts(t, fmt.Sprintf("service chaos run %d", run), *res, goldenServiceChaos)
	}
}
