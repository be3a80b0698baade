package cluster

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"atropos/internal/ast"
	"atropos/internal/benchmarks"
	"atropos/internal/parser"
	"atropos/internal/store"
)

// The page codec: a row is nf 8-byte words plus, in a table with string
// fields, ns strings in a side array, and a cell decodes by its field's
// declared type (matstore.go). P has every type, and two string fields, so
// that reading a string from another field's side index shows; Q has none.
const pageSrc = `
table P { id: int key, n: int, s1: string, b: bool, s2: string, }
table Q { id: int key, n: int, b: bool, }
`

// pageValues are the values each field type must round-trip.
var pageValues = map[ast.Type][]store.Value{
	ast.TInt:  {store.IntV(0), store.IntV(-1), store.IntV(7), store.IntV(math.MinInt64), store.IntV(math.MaxInt64)},
	ast.TBool: {store.BoolV(false), store.BoolV(true)},
	ast.TString: {store.StringV(""), store.StringV("x"), store.StringV("a\x1fb"), store.StringV("\x1f"),
		store.StringV("i1\x1fi2")},
}

func newPageStore(t *testing.T) *MatStore {
	t.Helper()
	prog, err := parser.Parse(pageSrc)
	if err != nil {
		t.Fatal(err)
	}
	return newMatStore(compileLayout(prog))
}

func pageKey(id int) store.Key { return store.MakeKey(store.IntV(int64(id))) }

// rowsWant is what each row of each table must hold, by key.
type rowsWant map[string]map[store.Key][]store.Value

// pageWrites writes steps random values, one cell each at timestamps from
// ts+1, to rows 0..rows-1 of both tables, and records them in want. The
// writes reach the rows in random order, so pages fill in an order unrelated
// to the keys.
func pageWrites(ms *MatStore, rng *rand.Rand, rows, steps int, ts int64, want rowsWant) {
	for step := 0; step < steps; step++ {
		table := []string{"P", "Q"}[rng.Intn(2)]
		tid, ct := ms.cp.table(table)
		k := pageKey(rng.Intn(rows))
		if want[table] == nil {
			want[table] = map[store.Key][]store.Value{}
		}
		row := want[table][k]
		if row == nil {
			row = slices.Clone(ct.zeros)
			want[table][k] = row
		}
		fid := int32(rng.Intn(int(ct.nf)))
		vals := pageValues[ct.kind[fid]]
		v := vals[rng.Intn(len(vals))]
		ms.applyC([]cwrite{{tid: tid, fid: fid, slot: ms.tabs[tid].dir.intern(k), val: v}}, ts+int64(step)+1)
		row[fid] = v
	}
}

// checkRows compares every cell of every row in want with what ms reads:
// struct-equal, not just Equal, so a decoded cell is also canonical.
func checkRows(t *testing.T, ms *MatStore, want rowsWant, when string) {
	t.Helper()
	for table, rows := range want {
		_, ct := ms.cp.table(table)
		for k, row := range rows {
			for fid, f := range ct.fields {
				if got := ms.Read(table, k, f); got != row[fid] {
					t.Fatalf("%s: %s/%q.%s reads %#v, want %#v", when, table, k, f, got, row[fid])
				}
			}
		}
	}
}

// TestPageCodecRoundTrip: zero, negative and extreme ints, both bools, the
// empty string and strings carrying the key separator all read back exactly,
// on rows spread over page 0 while it doubles and over whole pages after it.
func TestPageCodecRoundTrip(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		ms := newPageStore(t)
		want := rowsWant{}
		pageWrites(ms, rand.New(rand.NewSource(seed)), 3*pageRows, 6000, 0, want)
		checkRows(t, ms, want, "after the writes")
		for _, table := range []string{"P", "Q"} {
			if tid, _ := ms.cp.table(table); len(ms.tabs[tid].pages) != 3 {
				t.Fatalf("%s holds %d pages, want 3: the rows do not reach past page 0", table, len(ms.tabs[tid].pages))
			}
		}
	}
}

// TestPageLWWTies: per cell, a write whose timestamp ties the cell's wins and
// an older one loses, for each field type; the row's other cells keep theirs.
func TestPageLWWTies(t *testing.T) {
	ms := newPageStore(t)
	tid, ct := ms.cp.table("P")
	slot := ms.tabs[tid].dir.intern(pageKey(1))
	put := func(f string, v store.Value, ts int64) {
		ms.applyC([]cwrite{{tid: tid, fid: ct.fieldID[f], slot: slot, val: v}}, ts)
	}
	cases := []struct {
		field           string
		first, tie, old store.Value
	}{
		{"n", store.IntV(1), store.IntV(math.MinInt64), store.IntV(3)},
		{"b", store.BoolV(true), store.BoolV(false), store.BoolV(true)},
		{"s1", store.StringV("a"), store.StringV(""), store.StringV("c")},
		{"s2", store.StringV("\x1f"), store.StringV("z"), store.StringV("y")},
	}
	for i, c := range cases {
		ts := int64(10 * (i + 1))
		put(c.field, c.first, ts)
		put(c.field, c.tie, ts)
		put(c.field, c.old, ts-1)
		if got := ms.Read("P", pageKey(1), c.field); got != c.tie {
			t.Errorf("%s after writes at %d, %d (tie) and %d: %#v, want the tie's %#v", c.field, ts, ts, ts-1, got, c.tie)
		}
	}
	for _, c := range cases {
		if got := ms.Read("P", pageKey(1), c.field); got != c.tie {
			t.Errorf("%s changed to %#v by writes to other fields, want %#v", c.field, got, c.tie)
		}
	}
}

// TestPageCloneIndependent: a clone and its original share no page array —
// words, timestamps or strings. Writes to either side, to rows both hold and
// to rows only one admits, leave the other side as it was.
func TestPageCloneIndependent(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	ms := newPageStore(t)
	want := rowsWant{}
	pageWrites(ms, rng, pageRows+40, 1500, 0, want)
	clone := ms.Clone()
	checkRows(t, clone, want, "a fresh clone")

	cloneWant := rowsWant{}
	for table, rows := range want {
		cloneWant[table] = map[store.Key][]store.Value{}
		for k, row := range rows {
			cloneWant[table][k] = slices.Clone(row)
		}
	}
	pageWrites(clone, rng, 2*pageRows, 3000, 10_000, cloneWant)
	checkRows(t, ms, want, "the original after writes to its clone")
	checkRows(t, clone, cloneWant, "the clone after its writes")
	pageWrites(ms, rng, 2*pageRows, 3000, 20_000, want)
	checkRows(t, clone, cloneWant, "the clone after writes to its original")
	checkRows(t, ms, want, "the original after its writes")
}

// TestPageEqIndexFollowsDecodedValues: equality indexes on an int, a bool
// and a string field and on alive, built before the writes, equal a pass
// over the decoded cells after them, in key order, for every value in play.
func TestPageEqIndexFollowsDecodedValues(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	ms := newPageStore(t)
	tid, ct := ms.cp.table("P")
	tab := &ms.tabs[tid]
	fields := []string{"n", "b", "s2", ast.AliveField}
	for _, f := range fields {
		tab.bucket(ct.fieldID[f], ct.zeros[ct.fieldID[f]])
	}
	for round := 0; round < 10; round++ {
		pageWrites(ms, rng, pageRows+10, 400, int64(round)*1000, rowsWant{})
		for _, f := range fields {
			fid := ct.fieldID[f]
			for _, v := range pageValues[ct.kind[fid]] {
				var want []store.Key
				for _, k := range ms.Keys("P") {
					if ms.Read("P", k, f) == v {
						want = append(want, k)
					}
				}
				var got []store.Key
				for _, slot := range tab.bucket(fid, v) {
					got = append(got, tab.dir.keys[slot])
				}
				if !slices.Equal(got, want) {
					t.Fatalf("round %d: bucket %s = %s holds %q, the rows %q", round, f, v, got, want)
				}
			}
		}
	}
}

// TestStringFreePagesHoldNoStrings: a table without string fields has no
// string array on any page — so no page the collector must scan — and one
// with string fields has exactly ns per row. Every benchmark's tables, loaded
// with its rows and cloned, are held to it.
func TestStringFreePagesHoldNoStrings(t *testing.T) {
	check := func(name string, ms *MatStore) {
		t.Helper()
		for i := range ms.tabs {
			tab := &ms.tabs[i]
			for p, pg := range tab.pages {
				rows := int32(len(pg.w)) / tab.ct.nf
				if (tab.ct.ns == 0) != (pg.s == nil) || int32(len(pg.s)) != rows*tab.ct.ns {
					t.Errorf("%s: %s page %d: %d rows, %d strings (string fields: %d)", name, tab.ct.name, p, rows, len(pg.s), tab.ct.ns)
				}
			}
		}
	}
	ms := newPageStore(t)
	pageWrites(ms, rand.New(rand.NewSource(1)), 2*pageRows, 2000, 0, rowsWant{})
	check("P and Q", ms)
	check("P and Q, cloned", ms.Clone())
	free := 0
	for _, b := range benchmarks.All() {
		plan := NewDirectedPlan(b.MustProgram())
		base, err := plan.Seed(b.Rows(benchmarks.Scale{Records: 200}))
		if err != nil {
			t.Fatal(err)
		}
		check(b.Name, base)
		check(b.Name+", cloned", base.Clone())
		for i := range base.tabs {
			if base.tabs[i].ct.ns == 0 && len(base.tabs[i].pages) > 0 {
				free++
			}
		}
	}
	if free == 0 {
		t.Fatal("no benchmark table without string fields holds rows: the pin checks nothing")
	}
}
