package replay_test

import (
	"context"
	"testing"

	"atropos/internal/anomaly"
	"atropos/internal/benchmarks"
	"atropos/internal/repair"
)

// Negative-path certification: on every formerly-anomalous schedule, the
// original program replayed serially (the SC control) and the repaired
// program replayed under the projected schedule must show zero violations.
// A violation in either would mean the replayer's cycle check is unsound —
// flagging cycles the schedule cannot cause — or the repair did not remove
// the anomaly it claims to.
func TestNegativeControlsZeroViolations(t *testing.T) {
	anyRepairedRuns := false
	for _, b := range benchmarks.All() {
		prog := b.MustProgram()
		res, err := repair.Run(context.Background(), prog, anomaly.EC, repair.Certify(true))
		if err != nil {
			t.Fatalf("%s: repair: %v", b.Name, err)
		}
		c := res.Certificate
		if c == nil {
			t.Fatalf("%s: Options.Certify produced no certificate", b.Name)
		}
		// Anti-vacuity: every benchmark must contribute replayed schedules —
		// a zero-run control proves nothing.
		if c.Lowered == 0 {
			t.Errorf("%s: no witness lowered into a replayable schedule (vacuous control)", b.Name)
		}
		if c.Certified == 0 {
			t.Errorf("%s: no anomaly reproduced — positive side is vacuous", b.Name)
		}
		if c.SCRuns == 0 {
			t.Errorf("%s: no serial control runs executed", b.Name)
		}
		if c.SCViolations != 0 {
			t.Errorf("%s: %d/%d serial (SC) replays exhibited a violation; want 0",
				b.Name, c.SCViolations, c.SCRuns)
		}
		if c.RepairedViolations != 0 {
			t.Errorf("%s: %d/%d repaired-program replays exhibited a violation; want 0",
				b.Name, c.RepairedViolations, c.RepairedRuns)
		}
		if c.RepairedRuns > 0 {
			anyRepairedRuns = true
		}
		// Pairs whose transactions keep residual anomalies are skipped, not
		// silently dropped: runs + skips must account for every lowered pair.
		if got := c.RepairedRuns + c.SkippedPartial; got > c.Lowered {
			t.Errorf("%s: repaired runs (%d) + skips (%d) exceed lowered pairs (%d)",
				b.Name, c.RepairedRuns, c.SkippedPartial, c.Lowered)
		}
		for _, e := range c.Errors {
			t.Errorf("%s: negative control error: %s", b.Name, e)
		}
	}
	if !anyRepairedRuns {
		t.Error("no benchmark exercised the repaired-program control (vacuous across the corpus)")
	}
}
