package replay_test

import (
	"fmt"
	"hash/fnv"
	"strings"
	"testing"

	"atropos/internal/anomaly"
	"atropos/internal/ast"
	"atropos/internal/corpus"
)

// scheduleText is everything a witness schedule says: the transactions it
// names, every item with its key pins, the execution order, the visibility
// matrix, the aliasing valuation and both cycle edges. It must print what
// internal/corpus's TestCells prints, since both hash into the sched
// column of the golden table.
func scheduleText(s *anomaly.Schedule) string {
	if s == nil {
		return "<nil>\n"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s %s %d\n", s.TxnA, s.TxnB, s.NA)
	for _, it := range s.Items {
		fmt.Fprintf(&b, "item %d %d %s %s", it.Inst, it.Idx, it.Label, it.Table)
		for _, p := range it.Pins {
			fmt.Fprintf(&b, " [%s %s %d %s]", p.Field, p.Term, p.Kind, ast.ExprString(p.Expr))
		}
		b.WriteByte('\n')
	}
	fmt.Fprintf(&b, "order %v\n", s.Order)
	for _, row := range s.Vis {
		fmt.Fprintf(&b, "vis %v\n", row)
	}
	for _, eq := range s.Eqs {
		fmt.Fprintf(&b, "eq %s %s %s %s %t\n", eq.Table, eq.Field, eq.A, eq.B, eq.Equal)
	}
	for _, e := range []anomaly.SchedEdge{s.Edge1, s.Edge2} {
		fmt.Fprintf(&b, "edge %d %d %s %v\n", e.From, e.To, e.Kind, e.Fields)
	}
	return b.String()
}

// TestWitnessScheduleGolden checks the witness schedule of every reported
// pair — the corpus's programs under EC, CC and RR, one FNV-1a hash per
// cell over each pair with its schedule — against the sched column of the
// golden table (internal/corpus/testdata/cells.tsv).
func TestWitnessScheduleGolden(t *testing.T) {
	golden, err := corpus.Golden()
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range corpus.Programs(corpus.Seeds) {
		for _, m := range []anomaly.Model{anomaly.EC, anomaly.CC, anomaly.RR} {
			cell := p.Name + "/" + m.String()
			rep := witnessed(t, p.Prog, m)
			scheds := anomaly.WitnessSchedules(p.Prog, rep)
			if len(scheds) != len(rep.Pairs) {
				t.Fatalf("%s: %d schedules for %d pairs", cell, len(scheds), len(rep.Pairs))
			}
			h := fnv.New64a()
			for j, pair := range rep.Pairs {
				fmt.Fprintf(h, "%s\n%s", pair, scheduleText(scheds[j]))
			}
			if got, want := h.Sum64(), golden[cell].Uint("sched"); got != want {
				t.Errorf("%s: schedule hash %#016x, golden %#016x", cell, got, want)
			}
		}
	}
}
