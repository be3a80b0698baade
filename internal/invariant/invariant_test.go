package invariant

import (
	"context"
	"testing"

	"atropos/internal/anomaly"
	"atropos/internal/benchmarks"
	"atropos/internal/repair"
)

// TestOriginalViolatesAllThree reproduces the paper's finding (§7.1): under
// EC the original SmallBank violates all three invariants.
func TestOriginalViolatesAllThree(t *testing.T) {
	prog := benchmarks.SmallBank.MustProgram()
	rep, err := CheckSmallBank(Config{
		Program: prog,
		Rows:    benchmarks.SmallBank.Rows(benchmarks.Scale{Records: 6}),
		RunsPer: 60,
		Seed:    11,
	})
	if err != nil {
		t.Fatalf("CheckSmallBank: %v", err)
	}
	t.Logf("original: %s", rep)
	if got := rep.ViolatedCount(); got != 3 {
		t.Errorf("original program violates %d invariants under EC, want 3", got)
	}
}

// TestRepairedFixesInvariants checks the repaired program against the
// paper's finding that repair eliminates most invariant violations: the
// deposit-history invariant (lost updates) must be fully fixed by the
// logging repair, and strictly fewer invariants are violated than in the
// original. The overdraft guard is not repairable (the detector lists
// transactSavings as still requiring SC), so the non-negative invariant
// must still be violated: a harness that reports it clean is hiding a race
// (the interpreter this study ran on scoped uuid() by instance id and let a
// concurrent withdrawal overwrite the prologue's log row). The paper
// reports exactly one surviving violation; our translation retains two —
// the overdraft guard and the joint-view read split across two log tables —
// see EXPERIMENTS.md.
func TestRepairedFixesInvariants(t *testing.T) {
	prog := benchmarks.SmallBank.MustProgram()
	res, err := repair.Run(context.Background(), prog, anomaly.EC)
	if err != nil {
		t.Fatalf("Repair: %v", err)
	}
	rep, err := CheckSmallBank(Config{
		Program:  res.Program,
		Corrs:    res.Corrs,
		Original: prog,
		Rows:     benchmarks.SmallBank.Rows(benchmarks.Scale{Records: 6}),
		RunsPer:  60,
		Seed:     11,
	})
	if err != nil {
		t.Fatalf("CheckSmallBank(repaired): %v", err)
	}
	t.Logf("repaired: %s", rep)
	if rep.Violations[1] > 0 {
		t.Errorf("deposit-history invariant still violated %d times after repair (logging should fix lost updates)", rep.Violations[1])
	}
	if got := rep.ViolatedCount(); got >= 3 {
		t.Errorf("repaired program violates %d invariants, want strictly fewer than the original's 3", got)
	}
	if rep.Violations[0] == 0 {
		t.Error("non-negative invariant never violated after repair: the overdraft guard is unrepairable and two racing withdrawals must be able to pass it")
	}
}
