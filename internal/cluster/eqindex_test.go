package cluster

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"atropos/internal/ast"
	"atropos/internal/parser"
	"atropos/internal/store"
)

// One table with a composite key, so that every command below that names no
// key field compiles to the eq-index path, and a prefix command beside them.
const eqSrc = `
table T { g: int key, id: int key, a: int, b: int, s: string, }
txn byA(x: int) { r := select b from T where a = x; return count(r.b); }
txn byAB(x: int, y: int) { r := select b from T where a = x && b = y; return count(r.b); }
txn byS(z: string) { r := select b from T where s = z; return count(r.b); }
txn setB(x: int, y: int) { update T set b = y where a = x; }
txn byG(x: int) { r := select b from T where g = x; return count(r.b); }
txn divA(x: int) { r := select b from T where a = 10 / x; return count(r.b); }
txn divB(x: int, y: int) { r := select b from T where a = x && b = 10 / y; return count(r.b); }
txn byKey(x: int, y: int) { r := select b from T where g = x && id = y; return count(r.b); }
txn fromB(x: int) { r := select b from T where b >= x; return count(r.b); }
`

type eqFixture struct {
	prog *ast.Program
	cp   *Compiled
	fr   *cframe
}

func newEqFixture(t *testing.T) *eqFixture {
	t.Helper()
	prog, err := parser.Parse(eqSrc)
	if err != nil {
		t.Fatal(err)
	}
	cp, err := CompileProgram(prog)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"byA", "byAB", "byS", "setB", "divA", "divB"} {
		if p := cp.txns[name].code[0].cmd.path; p != pathEq {
			t.Fatalf("%s compiled to access path %d, want eq-index", name, p)
		}
	}
	return &eqFixture{prog: prog, cp: cp, fr: newCFrame(cp)}
}

// match resolves txn's first command against v, with the command's access
// path as compiled or — scan set — on a copy forced to the full scan. No
// production code selects between the two: the copy is the test's.
func (x *eqFixture) match(v cview, txn string, args map[string]store.Value, scan bool) ([]store.Key, error) {
	ct := x.cp.txns[txn]
	// The error-parity cases leave arguments unbound on purpose; the frame
	// binds the rest and the refusal is theirs to ignore.
	_ = x.fr.reset(ct, len(args), mapArg(args))
	cmd := ct.code[0].cmd
	if scan {
		forced := *cmd
		forced.path = pathScan
		cmd = &forced
	}
	err := x.fr.matching(v, cmd)
	keys := make([]store.Key, 0, len(x.fr.mslots))
	for _, slot := range x.fr.mslots {
		keys = append(keys, v.ms.tabs[cmd.tid].dir.name(slot))
	}
	return keys, err
}

// cw builds a write the way the executor does: the key interned in the
// directory of ms (and of its clones), the write carrying the slot.
func cw(ms *MatStore, tid, fid int32, k store.Key, v store.Value) cwrite {
	return cwrite{tid: tid, fid: fid, slot: ms.tabs[tid].dir.intern([]byte(k)), val: v}
}

// oracle resolves the same command on the AST interpreter.
func (x *eqFixture) oracle(view DBView, txn string, args map[string]store.Value) ([]store.Key, error) {
	e := NewTxnExec(x.prog, x.prog.Txn(txn), args)
	if _, err := e.Advance(view); err != nil {
		return nil, err
	}
	_, keys, _, err := e.Footprint(view, &UUIDGen{})
	return keys, err
}

func intArgs(kv ...any) map[string]store.Value {
	m := map[string]store.Value{}
	for i := 0; i < len(kv); i += 2 {
		switch v := kv[i+1].(type) {
		case int:
			m[kv[i].(string)] = store.IntV(int64(v))
		case string:
			m[kv[i].(string)] = store.StringV(v)
		}
	}
	return m
}

// check compares, for every eq-index command and every value in play, the
// indexed result with the forced scan's and the interpreter's.
func (x *eqFixture) check(t *testing.T, v cview, view DBView, when string) {
	t.Helper()
	type query struct {
		txn  string
		args map[string]store.Value
	}
	var queries []query
	add := func(txn string, kv ...any) { queries = append(queries, query{txn, intArgs(kv...)}) }
	for a := 0; a < 5; a++ {
		add("byA", "x", a)
		add("setB", "x", a, "y", 1)
		for b := 0; b < 3; b++ {
			add("byAB", "x", a, "y", b)
		}
	}
	for _, s := range []string{"", "p", "q", "p\x1fq"} {
		add("byS", "z", s)
	}
	for _, q := range queries {
		got, err := x.match(v, q.txn, q.args, false)
		if err != nil {
			t.Fatalf("%s: %s%v: %v", when, q.txn, q.args, err)
		}
		want, _ := x.match(v, q.txn, q.args, true)
		ref, _ := x.oracle(view, q.txn, q.args)
		if !slices.Equal(got, want) || !slices.Equal(got, ref) {
			t.Fatalf("%s: %s%v:\n  index:       %q\n  scan:        %q\n  interpreter: %q", when, q.txn, q.args, got, want, ref)
		}
	}
}

// TestEqIndexMatchesScan is the property test of the equality indexes:
// random write programs against one table — inserts, updates that move an
// indexed field away and back, alive flips, batches with out-of-order
// timestamps (so last-writer-wins rejects some), partial rows, a Load over
// a live row, a Clone mid-stream — with the indexes built early, so that
// what is checked is their maintenance and not their construction.
func TestEqIndexMatchesScan(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		x := newEqFixture(t)
		rng := rand.New(rand.NewSource(seed))
		ms := newMatStore(x.cp)
		tid, ct := x.cp.table("T")
		fid := func(f string) int32 { return ct.fieldID[f] }
		key := func(n int) store.Key { return store.MakeKey(store.IntV(int64(n%3)), store.IntV(int64(n))) }
		strs := []string{"", "p", "q", "p\x1fq"}
		x.check(t, cview{ms: ms}, ms, fmt.Sprintf("seed %d, empty", seed))
		for step := 0; step < 400; step++ {
			n := rng.Intn(40)
			ts := int64(rng.Intn(200)) // out of order on purpose
			var ws []cwrite
			w := func(f string, v store.Value) { ws = append(ws, cw(ms, tid, fid(f), key(n), v)) }
			switch rng.Intn(10) {
			case 0, 1, 2: // insert, or re-insert over whatever is there
				w("g", store.IntV(int64(n%3)))
				w("id", store.IntV(int64(n)))
				w("a", store.IntV(int64(rng.Intn(5))))
				w("b", store.IntV(int64(rng.Intn(3))))
				w("s", store.StringV(strs[rng.Intn(len(strs))]))
				w(ast.AliveField, store.BoolV(true))
			case 3, 4, 5: // move an indexed field (away, and with luck back)
				w("a", store.IntV(int64(rng.Intn(5))))
			case 6:
				w("s", store.StringV(strs[rng.Intn(len(strs))]))
				w("b", store.IntV(int64(rng.Intn(3))))
			case 7: // alive flip; on an absent key this leaves a partial row
				w(ast.AliveField, store.BoolV(rng.Intn(2) == 0))
			case 8:
				err := ms.Load("T", store.Row{"g": store.IntV(int64(n % 3)), "id": store.IntV(int64(n)),
					"a": store.IntV(int64(rng.Intn(5))), "s": store.StringV("q")})
				if err != nil {
					t.Fatal(err)
				}
			case 9:
				if rng.Intn(4) == 0 {
					ms = ms.Clone()
				}
			}
			ms.applyC(ws, ts)
			if step%20 == 0 || step == 399 {
				x.check(t, cview{ms: ms}, ms, fmt.Sprintf("seed %d, step %d", seed, step))
			}
		}
	}
}

// TestEqIndexUnderOverlay: an SC transaction's own writes are visible to
// its index look-ups, in key order, once each.
func TestEqIndexUnderOverlay(t *testing.T) {
	x := newEqFixture(t)
	ms := newMatStore(x.cp)
	tid, ct := x.cp.table("T")
	for n := 0; n < 12; n++ {
		err := ms.Load("T", store.Row{"g": store.IntV(int64(n % 3)), "id": store.IntV(int64(n)),
			"a": store.IntV(int64(n % 4)), "b": store.IntV(0), "s": store.StringV("p")})
		if err != nil {
			t.Fatal(err)
		}
	}
	key := func(g, id int) store.Key { return store.MakeKey(store.IntV(int64(g)), store.IntV(int64(id))) }
	cov, iov := newCOverlay(ms), NewOverlay(ms)
	buffer := func(k store.Key, field string, v store.Value) {
		cov.buffer(cw(ms, tid, ct.fieldID[field], k, v))
		iov.Buffer(WriteOp{Table: "T", Key: k, Field: field, Val: v})
	}
	v := cview{ms: ms, ov: cov}
	x.check(t, cview{ms: ms}, ms, "before the transaction") // builds the indexes

	// Update an indexed field: row (1,1) has a = 1, the transaction sets 2.
	buffer(key(1, 1), "a", store.IntV(2))
	old, _ := x.match(v, "byA", intArgs("x", 1), false)
	cur, _ := x.match(v, "byA", intArgs("x", 2), false)
	if slices.Contains(old, key(1, 1)) || !slices.Contains(cur, key(1, 1)) {
		t.Errorf("after a = 2 on (1,1): a = 1 matches %q, a = 2 matches %q", old, cur)
	}
	x.check(t, v, iov, "after an update of the indexed field")

	// Insert, then select: the new row sorts between base rows.
	for f, val := range map[string]store.Value{"g": store.IntV(1), "id": store.IntV(5), "a": store.IntV(2),
		"b": store.IntV(0), "s": store.StringV("q"), ast.AliveField: store.BoolV(true)} {
		buffer(key(1, 5), f, val)
	}
	cur, _ = x.match(v, "byA", intArgs("x", 2), false)
	if want := []store.Key{key(0, 6), key(1, 1), key(1, 10), key(1, 5), key(2, 2)}; !slices.Equal(cur, want) {
		t.Errorf("after insert of (1,5) with a = 2: a = 2 matches %q, want %q", cur, want)
	}
	x.check(t, v, iov, "after an insert")

	// The buffered key is committed to the base by a concurrent EC
	// transaction, with the same and with another value of the field: the
	// row is emitted once, read through the overlay.
	ms.applyC([]cwrite{
		cw(ms, tid, ct.fieldID["a"], key(1, 5), store.IntV(2)),
		cw(ms, tid, ct.alive, key(1, 5), store.BoolV(true)),
	}, 7)
	x.check(t, v, iov, "after a concurrent commit of the inserted key")
	ms.applyC([]cwrite{cw(ms, tid, ct.fieldID["a"], key(1, 5), store.IntV(3))}, 8)
	cur, _ = x.match(v, "byA", intArgs("x", 2), false)
	if n := len(cur); n != 5 {
		t.Errorf("a = 2 matches %q after the base moved (1,5) to a = 3 under the overlay's a = 2", cur)
	}
	x.check(t, v, iov, "after the base moved the key to another bucket")
}

// TestEqIndexErrorParity: a clause whose indexed right-hand side, or a
// later conjunct, cannot be evaluated fails — or does not — exactly where
// the interpreter's does: never on a table with no alive row, and for a
// later conjunct only when some alive row passes the conjuncts before it.
func TestEqIndexErrorParity(t *testing.T) {
	x := newEqFixture(t)
	tid, ct := x.cp.table("T")
	stores := map[string]*MatStore{"empty": newMatStore(x.cp), "dead rows only": newMatStore(x.cp), "populated": newMatStore(x.cp)}
	for n := 0; n < 6; n++ {
		k := store.MakeKey(store.IntV(0), store.IntV(int64(n)))
		dead := stores["dead rows only"]
		dead.applyC([]cwrite{cw(dead, tid, ct.fieldID["a"], k, store.IntV(1))}, 1)
		err := stores["populated"].Load("T", store.Row{"g": store.IntV(0), "id": store.IntV(int64(n)), "a": store.IntV(int64(n % 2))})
		if err != nil {
			t.Fatal(err)
		}
	}
	cases := []struct {
		txn  string
		args map[string]store.Value
	}{
		{"divA", intArgs("x", 0)},         // division by zero in the indexed right-hand side
		{"divA", intArgs("x", 5)},         // and not
		{"byA", intArgs()},                // unknown argument there
		{"divB", intArgs("x", 1, "y", 0)}, // division by zero in a later conjunct, reached
		{"divB", intArgs("x", 9, "y", 0)}, // not reached: no row has a = 9
		{"byAB", intArgs("x", 1)},         // unknown argument in a later conjunct, reached
		{"byAB", intArgs("x", 9)},         // not reached
	}
	failed := 0
	for name, ms := range stores {
		for _, c := range cases {
			for pass := 0; pass < 2; pass++ { // the second pass finds the index built
				got, gerr := x.match(cview{ms: ms}, c.txn, c.args, false)
				want, werr := x.oracle(ms, c.txn, c.args)
				if fmt.Sprint(gerr) != fmt.Sprint(werr) || !slices.Equal(got, want) {
					t.Errorf("%s, %s%v: compiled %q, %v; interpreter %q, %v", name, c.txn, c.args, got, gerr, want, werr)
				}
				if gerr != nil {
					failed++
				}
			}
		}
	}
	if failed != 8 { // the four reachable failures, on the populated store, twice
		t.Errorf("%d look-ups failed, want 8: the cases no longer reach the errors they name", failed)
	}
}
