package anomaly

import (
	"reflect"
	"testing"

	"atropos/internal/corpus"
)

// TestWitnessSchedulesNameTheirPairs: every reported pair gets a schedule,
// and the schedule is the pair's — its transactions, the four commands its
// cycle edges connect, and the edge kinds the report names. A report
// answered from a warm session's memo rebuilds the same schedules.
func TestWitnessSchedulesNameTheirPairs(t *testing.T) {
	for _, c := range corpus.Programs(32) {
		name, prog := c.Name, c.Prog
		for _, m := range []Model{EC, CC, RR} {
			s := NewSession(m)
			rep, err := s.Detect(prog)
			if err != nil {
				t.Fatal(err)
			}
			scheds := WitnessSchedules(prog, rep)
			if len(scheds) != len(rep.Pairs) {
				t.Fatalf("%s %v: %d schedules for %d pairs", name, m, len(scheds), len(rep.Pairs))
			}
			for i, p := range rep.Pairs {
				sc := scheds[i]
				if sc == nil {
					t.Errorf("%s %v: %s: no schedule", name, m, p)
					continue
				}
				label := func(g int) string { return sc.Items[g].Label }
				e1, e2 := sc.Edge1, sc.Edge2
				fwd := label(e1.From) == p.C1 && label(e1.To) == p.Witness.D1 && label(e2.From) == p.Witness.D2 && label(e2.To) == p.C2
				back := label(e1.From) == p.Witness.D1 && label(e1.To) == p.C1 && label(e2.From) == p.C2 && label(e2.To) == p.Witness.D2
				if sc.TxnA != p.Txn || sc.TxnB != p.Witness.Txn || !fwd && !back ||
					e1.Kind != p.Witness.Edge1 || e2.Kind != p.Witness.Edge2 {
					t.Errorf("%s %v: %s: schedule names %s/%s, edges %+v %+v", name, m, p, sc.TxnA, sc.TxnB, e1, e2)
				}
			}
			warm, err := s.Detect(prog)
			if err != nil {
				t.Fatal(err)
			}
			if again := WitnessSchedules(prog, warm); !reflect.DeepEqual(again, scheds) {
				t.Errorf("%s %v: a warm report rebuilds other schedules", name, m)
			}
		}
	}
}

// TestWitnessSchedulesOfForeignPairs: a pair the program does not witness —
// an unknown transaction or command, or a cycle the program cannot close —
// gets nil, and the pairs around it keep their schedules.
func TestWitnessSchedulesOfForeignPairs(t *testing.T) {
	prog := mustProg(t, courseware)
	rep, err := NewSession(EC).Detect(prog)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Pairs) == 0 {
		t.Fatal("courseware reports no pairs")
	}
	found := rep.Pairs[0]
	noTxn, noCmd := found, found
	noTxn.Txn = "missing"
	noCmd.Witness.D2 = "U99"
	foreign := &Report{Model: EC, Pairs: []AccessPair{noTxn, found, noCmd}}
	got := WitnessSchedules(prog, foreign)
	if got[0] != nil || got[1] == nil || got[2] != nil {
		t.Errorf("schedules %v: want nil, a schedule, nil", got)
	}
	sc := &Report{Model: SC, Pairs: []AccessPair{found}}
	if got := WitnessSchedules(prog, sc); got[0] != nil {
		t.Errorf("an EC pair rebuilt under SC: %+v, want nil", got[0])
	}
}
