package replay

import (
	"reflect"
	"testing"

	"atropos/internal/cluster"
	"atropos/internal/store"
)

// Observation builders for hand-constructed dependency graphs.

func obsRead(inst, cmd int, key string, view ...cluster.BatchRef) cluster.DirectedObs {
	return cluster.DirectedObs{
		Inst: inst, Cmd: cmd, View: view,
		Reads: []cluster.ReadObs{{Table: "t", Key: store.Key(key), Field: "f"}},
	}
}

func obsWrite(inst, cmd int, ts int64, key string) cluster.DirectedObs {
	return cluster.DirectedObs{
		Inst: inst, Cmd: cmd, TS: ts,
		Writes: []cluster.WriteOp{{Table: "t", Key: store.Key(key), Field: "f", Val: store.IntV(1)}},
	}
}

func TestViolations(t *testing.T) {
	cases := []struct {
		name string
		obs  []cluster.DirectedObs
		want []int
	}{
		{name: "empty", obs: nil, want: nil},
		{
			// Write skew: each instance reads the other's slot before the
			// other's write is visible — rw in both directions, entering and
			// leaving each instance at distinct commands.
			name: "write-skew",
			obs: []cluster.DirectedObs{
				obsRead(0, 0, "x"),
				obsWrite(0, 1, 1, "y"),
				obsRead(1, 0, "y"),
				obsWrite(1, 1, 2, "x"),
			},
			want: []int{0, 1},
		},
		{
			// Serializable order: instance 1 reads with instance 0's batch in
			// its view — one wr edge, no cycle.
			name: "wr-chain",
			obs: []cluster.DirectedObs{
				obsWrite(0, 0, 1, "x"),
				obsRead(1, 0, "x", cluster.BatchRef{Inst: 0, Cmd: 0, TS: 1}),
			},
			want: nil,
		},
		{
			// A cycle that enters and leaves each instance at the SAME
			// command (single read-modify-write commands) does not match the
			// detector's anomaly shape: c1 ≠ c2 fails.
			name: "same-command-cycle",
			obs: []cluster.DirectedObs{
				{Inst: 0, Cmd: 0,
					Reads:  []cluster.ReadObs{{Table: "t", Key: store.Key("x"), Field: "f"}},
					Writes: []cluster.WriteOp{{Table: "t", Key: store.Key("y"), Field: "f", Val: store.IntV(1)}}, TS: 1},
				{Inst: 1, Cmd: 0,
					Reads:  []cluster.ReadObs{{Table: "t", Key: store.Key("y"), Field: "f"}},
					Writes: []cluster.WriteOp{{Table: "t", Key: store.Key("x"), Field: "f", Val: store.IntV(1)}}, TS: 2},
			},
			want: nil,
		},
		{
			// Three-instance cycle 0 → 1 → 2 → 0, each hop an
			// anti-dependency at distinct commands — the N-instance shape the
			// pairwise replay check cannot see.
			name: "three-cycle",
			obs: []cluster.DirectedObs{
				obsRead(0, 0, "a"), obsWrite(0, 1, 1, "c"),
				obsRead(1, 0, "b"), obsWrite(1, 1, 2, "a"),
				obsRead(2, 0, "c"), obsWrite(2, 1, 3, "b"),
			},
			want: []int{0, 1, 2},
		},
		{
			// A cycle among instances 0 and 1 plus a bystander (instance 2)
			// hanging off it: only the cycle members count.
			name: "bystander",
			obs: []cluster.DirectedObs{
				obsRead(0, 0, "x"),
				obsWrite(0, 1, 1, "y"),
				obsRead(1, 0, "y"),
				obsWrite(1, 1, 2, "x"),
				obsRead(2, 0, "x"), // rw 2 → 1, no edge back into 2
			},
			want: []int{0, 1},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := Violations(tc.obs)
			if !reflect.DeepEqual(got, tc.want) {
				t.Errorf("Violations = %v, want %v", got, tc.want)
			}
		})
	}
}
