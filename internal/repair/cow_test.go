package repair

import (
	"fmt"
	"reflect"
	"testing"

	"atropos/internal/anomaly"
	"atropos/internal/ast"
	"atropos/internal/benchmarks"
	"atropos/internal/progen"
	"atropos/internal/refactor"
)

// This file is the differential oracle for the copy-on-write refactoring
// engine (DESIGN.md §10): the legacy deep-clone engine — which mutates only
// private clones and therefore cannot suffer shared-node corruption — is
// run over the same pipelines and every observable output is compared
// byte for byte. A COW bug that mutated a shared subtree, path-copied the
// wrong spine, or diverged in rebuild order would surface as a printed
// program, step log, correspondence, or pair-count difference.

// pipelineSummary captures everything a repair pipeline observably
// produces.
type pipelineSummary struct {
	Printed   string
	Steps     []string
	Corrs     string
	Initial   []anomaly.AccessPair
	Remaining []anomaly.AccessPair
	SerTxns   []string
}

// runEngine runs the full repair pipeline under the selected refactoring
// engine and summarizes the result.
func runEngine(t *testing.T, prog *ast.Program, model anomaly.Model, deep bool) pipelineSummary {
	t.Helper()
	refactor.SetDeepClone(deep)
	defer refactor.SetDeepClone(false)
	res, err := repairProg(prog, model)
	if err != nil {
		t.Fatalf("Repair (deep=%t): %v", deep, err)
	}
	return pipelineSummary{
		Printed:   ast.Format(res.Program),
		Steps:     res.Steps,
		Corrs:     fmt.Sprint(res.Corrs),
		Initial:   res.Initial,
		Remaining: res.Remaining,
		SerTxns:   res.SerializableTxns,
	}
}

func diffSummaries(t *testing.T, name string, deep, cow pipelineSummary) {
	t.Helper()
	if deep.Printed != cow.Printed {
		t.Errorf("%s: printed programs diverge\n--- deep-clone ---\n%s\n--- cow ---\n%s", name, deep.Printed, cow.Printed)
	}
	if !reflect.DeepEqual(deep.Steps, cow.Steps) {
		t.Errorf("%s: steps diverge\ndeep %v\ncow  %v", name, deep.Steps, cow.Steps)
	}
	if deep.Corrs != cow.Corrs {
		t.Errorf("%s: correspondences diverge\ndeep %s\ncow  %s", name, deep.Corrs, cow.Corrs)
	}
	if !reflect.DeepEqual(deep.Initial, cow.Initial) {
		t.Errorf("%s: initial pairs diverge (%d vs %d)", name, len(deep.Initial), len(cow.Initial))
	}
	if !reflect.DeepEqual(deep.Remaining, cow.Remaining) {
		t.Errorf("%s: remaining pairs diverge (%d vs %d)", name, len(deep.Remaining), len(cow.Remaining))
	}
	if !reflect.DeepEqual(deep.SerTxns, cow.SerTxns) {
		t.Errorf("%s: serializable txn sets diverge\ndeep %v\ncow  %v", name, deep.SerTxns, cow.SerTxns)
	}
}

// TestCOWDeepCloneEquivalenceBenchmarks runs the differential oracle over
// all nine paper benchmarks under every weak consistency model.
func TestCOWDeepCloneEquivalenceBenchmarks(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	for _, b := range benchmarks.All() {
		prog, err := b.Program()
		if err != nil {
			t.Fatalf("%s: %v", b.Name, err)
		}
		for _, model := range []anomaly.Model{anomaly.EC, anomaly.CC, anomaly.RR} {
			name := fmt.Sprintf("%s/%v", b.Name, model)
			deep := runEngine(t, prog, model, true)
			cow := runEngine(t, prog, model, false)
			diffSummaries(t, name, deep, cow)
		}
	}
}

// TestCOWDeepCloneEquivalenceProgen runs the differential oracle over
// randomly generated programs.
func TestCOWDeepCloneEquivalenceProgen(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	for seed := int64(0); seed < 24; seed++ {
		// Generate two structurally identical programs: the engines must
		// not share input nodes through the cons table's canonicalization
		// of literals, or a deep-engine mutation could leak into the COW
		// run's input (progen interns expressions, so equal literals of
		// the two copies may alias — by design).
		name := fmt.Sprintf("seed-%d", seed)
		deep := runEngine(t, progen.Program(seed), anomaly.EC, true)
		cow := runEngine(t, progen.Program(seed), anomaly.EC, false)
		diffSummaries(t, name, deep, cow)
	}
}

// TestCOWDoesNotMutateInput pins the sharing contract from the caller's
// side: the input program of a repair prints identically before and after,
// and the repaired program of an untouched transaction shares its node
// with the input (path copying, not deep copying).
func TestCOWDoesNotMutateInput(t *testing.T) {
	prog := benchmarks.SEATS.MustProgram()
	before := ast.Format(prog)
	res, err := repairProg(prog, anomaly.EC)
	if err != nil {
		t.Fatal(err)
	}
	if after := ast.Format(prog); after != before {
		t.Fatalf("repair mutated its input program:\nbefore:\n%s\nafter:\n%s", before, after)
	}
	shared := 0
	for _, rt := range res.Program.Txns {
		for _, ot := range prog.Txns {
			if rt == ot {
				shared++
			}
		}
	}
	if shared == 0 {
		t.Error("no transaction node shared between input and repaired program: COW is deep-copying")
	}
}
