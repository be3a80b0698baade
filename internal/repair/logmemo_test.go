package repair

import (
	"context"
	"testing"

	"atropos/internal/anomaly"
	"atropos/internal/ast"
)

// TestLoggingMemoIsRunLocal: the logger rule's memo answers only for the
// program it was asked about. Two programs that differ only in the probed
// table — ACC with and without a field the rule does not move — are
// repaired in turn, and each repaired program keeps its own ACC: dropped
// when every non-key field moved into the log, kept with owner otherwise.
func TestLoggingMemoIsRunLocal(t *testing.T) {
	const deposit = `
txn deposit(k: int, amt: int) {
  x := select bal from ACC where id = k;
  update ACC set bal = x.bal + amt where id = k;
}
`
	bare := mustProg(t, "table ACC { id: int key, bal: int, }"+deposit)
	owned := mustProg(t, "table ACC { id: int key, bal: int, owner: string, }"+deposit)
	for _, tc := range []struct {
		name     string
		prog     *ast.Program
		keepsACC bool
	}{
		{"bare", bare, false},
		{"owned", owned, true},
		{"bare again", bare, false},
	} {
		res, err := RunWith(context.Background(), tc.prog, anomaly.EC, Options{})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if res.Program.Schema("ACC_BAL_LOG") == nil || len(res.Remaining) != 0 {
			t.Fatalf("%s: not repaired by logging:\n%s", tc.name, ast.Format(res.Program))
		}
		acc := res.Program.Schema("ACC")
		if (acc != nil) != tc.keepsACC || (acc != nil && !acc.HasField("owner")) {
			t.Errorf("%s: repaired ACC is %v, want kept=%v with the input's owner field:\n%s",
				tc.name, acc, tc.keepsACC, ast.Format(res.Program))
		}
	}
}
