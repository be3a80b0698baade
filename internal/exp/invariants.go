package exp

import (
	"context"
	"fmt"
	"strings"

	"atropos/internal/anomaly"
	"atropos/internal/benchmarks"
	"atropos/internal/invariant"
	"atropos/internal/repair"
)

// InvariantsResult compares SmallBank's application-level invariant
// violations before and after repair (§7.1, Appendix A.2).
type InvariantsResult struct {
	Original invariant.Report
	Repaired invariant.Report
}

// Invariants runs the three-invariant study on SmallBank.
func Invariants(runsPer int, seed int64) (*InvariantsResult, error) {
	b := benchmarks.SmallBank
	prog, err := b.Program()
	if err != nil {
		return nil, err
	}
	rows := b.Rows(benchmarks.Scale{Records: 6})
	orig, err := invariant.CheckSmallBank(invariant.Config{
		Program: prog, Rows: rows, RunsPer: runsPer, Seed: seed,
	})
	if err != nil {
		return nil, fmt.Errorf("invariants: original: %w", err)
	}
	rep, err := repair.Run(context.Background(), prog, anomaly.EC, repair.Parallelism(1)) // allocs/op of the study are gated
	if err != nil {
		return nil, err
	}
	repaired, err := invariant.CheckSmallBank(invariant.Config{
		Program:  rep.Program,
		Corrs:    rep.Corrs,
		Original: prog,
		Rows:     rows,
		RunsPer:  runsPer,
		Seed:     seed,
	})
	if err != nil {
		return nil, fmt.Errorf("invariants: repaired: %w", err)
	}
	return &InvariantsResult{Original: orig, Repaired: repaired}, nil
}

// Format renders the study.
func (r *InvariantsResult) Format() string {
	var b strings.Builder
	b.WriteString("=== SmallBank application-level invariants under EC ===\n")
	fmt.Fprintf(&b, "original: %s\n", r.Original)
	fmt.Fprintf(&b, "repaired: %s\n", r.Repaired)
	return b.String()
}
