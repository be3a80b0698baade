package cluster

import (
	"slices"
	"testing"

	"atropos/internal/ast"
	"atropos/internal/store"
)

// heldProbe is one look-up of the eqSrc table per access path; byA's index
// is built before the insert under test, byS's after it.
type heldProbe struct {
	txn  string
	args map[string]store.Value
}

var heldProbes = []heldProbe{
	{"byKey", intArgs("x", 1, "y", 50)}, // exact
	{"byG", intArgs("x", 1)},            // prefix window
	{"byA", intArgs("x", 2)},            // equality bucket
	{"byS", intArgs("z", "p")},          // equality bucket
	{"fromB", intArgs("x", 0)},          // full scan
}

// probeAll runs the probes against v and returns what each matched and the
// visits they cost together.
func (x *eqFixture) probeAll(t *testing.T, v cview, probes []heldProbe) (matched [][]store.Key, visits int64) {
	t.Helper()
	before := v.ms.scans.RowsVisited
	for _, p := range probes {
		keys, err := x.match(v, p.txn, p.args, false)
		if err != nil {
			t.Fatalf("%s%v: %v", p.txn, p.args, err)
		}
		matched = append(matched, keys)
	}
	return matched, v.ms.scans.RowsVisited - before
}

// TestReplicaHoldsOnlyDelivered: a store and its clone share a directory,
// so a key one side inserts has a slot on both — and must stay invisible on
// the side the write has not reached: a miss on every access path, costing
// no visit, absent from the oracle's view. ref, loaded with the same rows
// into a directory of its own, says what the undelivered side must answer.
func TestReplicaHoldsOnlyDelivered(t *testing.T) {
	x := newEqFixture(t)
	tid, ct := x.cp.table("T")
	for name, want := range map[string]accessPath{"byKey": pathExact, "byG": pathPrefix, "fromB": pathScan} {
		if p := x.cp.txns[name].code[0].cmd.path; p != want {
			t.Fatalf("%s compiled to access path %d, want %d", name, p, want)
		}
	}
	a, ref := newMatStore(x.cp), newMatStore(x.cp)
	for n := 0; n < 12; n++ {
		row := store.Row{"g": store.IntV(int64(n % 3)), "id": store.IntV(int64(n)),
			"a": store.IntV(int64(n % 4)), "b": store.IntV(0), "s": store.StringV("p")}
		for _, ms := range []*MatStore{a, ref} {
			if err := ms.Load("T", row); err != nil {
				t.Fatal(err)
			}
		}
	}
	b := a.Clone()
	for _, ms := range []*MatStore{a, b, ref} {
		x.probeAll(t, cview{ms: ms}, heldProbes[2:3]) // builds byA's index, not byS's
	}

	key := store.MakeKey(store.IntV(1), store.IntV(50))
	insert := func(ms *MatStore, aVal int64) []cwrite {
		var ws []cwrite
		for f, v := range map[string]store.Value{"g": store.IntV(1), "id": store.IntV(50), "a": store.IntV(aVal),
			"b": store.IntV(0), "s": store.StringV("p"), ast.AliveField: store.BoolV(true)} {
			ws = append(ws, cw(ms, tid, ct.fieldID[f], key, v))
		}
		return ws
	}
	batch := insert(a, 2)
	a.applyC(batch, 5)

	wantB, wantVisits := x.probeAll(t, cview{ms: ref}, heldProbes)
	gotA, _ := x.probeAll(t, cview{ms: a}, heldProbes)
	gotB, visits := x.probeAll(t, cview{ms: b}, heldProbes)
	for i, p := range heldProbes {
		if !slices.Contains(gotA[i], key) {
			t.Errorf("%s on the side that applied the insert: %q lacks the key", p.txn, gotA[i])
		}
		if !slices.Equal(gotB[i], wantB[i]) {
			t.Errorf("%s on the side the insert has not reached: %q, want %q", p.txn, gotB[i], wantB[i])
		}
	}
	if visits != wantVisits {
		t.Errorf("the undelivered side visited %d rows, a store that never heard of the key %d", visits, wantVisits)
	}
	if slices.Contains(b.Keys("T"), key) || !slices.Equal(b.Keys("T"), ref.Keys("T")) {
		t.Errorf("undelivered side lists keys %q", b.Keys("T"))
	}
	if b.Alive("T", key) || !b.Read("T", key, "a").Equal(store.IntV(0)) || !b.Read("T", key, "s").Equal(store.StringV("")) {
		t.Errorf("undelivered side reads the key as alive=%t a=%s s=%s", b.Alive("T", key), b.Read("T", key, "a"), b.Read("T", key, "s"))
	}

	// An SC transaction at the undelivered side buffers the same key, with
	// a = 3: its look-ups see the row once, through the overlay — before the
	// concurrent insert (a = 2) is delivered underneath it and after.
	cov, iov := newCOverlay(b), NewOverlay(b)
	for _, w := range insert(b, 3) {
		cov.buffer(w)
		iov.Buffer(WriteOp{Table: "T", Key: key, Field: ct.fields[w.fid], Val: w.val})
	}
	underOverlay := func(when string) {
		t.Helper()
		v := cview{ms: b, ov: cov}
		probes := slices.Clone(heldProbes)
		probes[2] = heldProbe{"byA", intArgs("x", 3)}
		got, _ := x.probeAll(t, v, probes)
		for i, p := range probes {
			if n := len(got[i]) - len(wantB[i]); i != 2 && n != 1 || !slices.Contains(got[i], key) {
				t.Errorf("%s: %s under the overlay matched %q", when, p.txn, got[i])
			}
		}
		if old, _ := x.match(v, "byA", intArgs("x", 2), false); slices.Contains(old, key) {
			t.Errorf("%s: a = 2 matches the key the overlay sets a = 3 on", when)
		}
		x.check(t, v, iov, when)
	}
	underOverlay("overlay over a side that does not hold the key")
	b.applyC(batch, 5)
	underOverlay("overlay over the delivered key")

	// Delivered: the two sides agree on everything.
	gotB, _ = x.probeAll(t, cview{ms: b}, heldProbes)
	for i, p := range heldProbes {
		if !slices.Equal(gotA[i], gotB[i]) {
			t.Errorf("%s after delivery: %q on one side, %q on the other", p.txn, gotA[i], gotB[i])
		}
	}
	if dumpState(a) != dumpState(b) {
		t.Errorf("after delivery the sides differ:\n%s\n%s", dumpState(a), dumpState(b))
	}
}
