package cluster

import (
	"maps"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"time"

	"atropos/internal/ast"
	"atropos/internal/benchmarks"
	"atropos/internal/sema"
	"atropos/internal/store"
)

// The language semantics (paper Fig. 6) on the executor that ships: each row
// runs calls serially over seeded rows and checks return values, the final
// state, or that the run is refused. The cases are the ones the deleted AST
// interpreter's own tests held it to.

const bankSrc = `
table ACC { id: int key, bal: int, }
txn deposit(k: int, amt: int) {
  x := select bal from ACC where id = k;
  update ACC set bal = x.bal + amt where id = k;
  return x.bal + amt;
}
txn balance(k: int) {
  x := select bal from ACC where id = k;
  return x.bal;
}
txn openAcc(k: int) {
  insert into ACC values (id = k, bal = 0);
}
`

const seqSrc = `
table T { id: int key, n: int, }
txn fill(base: int, cnt: int) {
  iterate (cnt) {
    insert into T values (id = base + iter, n = iter);
  }
}
txn sumAll(lo: int, hi: int) {
  x := select n from T where id >= lo && id <= hi;
  if (count(x.n) > 0) {
    update T set n = 0 where id = lo + 1;
  }
  return sum(x.n);
}
txn second(lo: int) {
  x := select n from T where id >= lo;
  return x.n[2];
}
txn stats(lo: int) {
  x := select n from T where id >= lo;
  return min(x.n) + max(x.n) * 1000 + count(x.n) * 1000000;
}
txn div(k: int) {
  x := select n from T where id = k;
  return 10 / x.n;
}
txn drop(k: int) {
  delete from T where id = k;
}
txn countAll(lo: int) {
  x := select n from T where id >= lo;
  return count(x.n);
}
txn revive(k: int, v: int) {
  insert into T values (id = k, n = v);
}
`

const logSrc = `
table LOG { k: int key, lid: int key, v: int, }
txn log(k: int, v: int) {
  insert into LOG values (k = k, lid = uuid(), v = v);
}
txn total(k: int) {
  x := select v from LOG where k = k;
  return sum(x.v);
}
`

func ints(kv ...any) map[string]store.Value {
	m := map[string]store.Value{}
	for i := 0; i < len(kv); i += 2 {
		m[kv[i].(string)] = store.IntV(int64(kv[i+1].(int)))
	}
	return m
}

func call(txn string, kv ...any) DirectedTxn { return DirectedTxn{Name: txn, Args: ints(kv...)} }

func row(table string, kv ...any) store.TableRow {
	return store.TableRow{Table: table, Row: store.Row(ints(kv...))}
}

// seeded parses src and seeds a state with rows.
func seeded(t *testing.T, src string, rows ...store.TableRow) (*DirectedPlan, *MatStore) {
	t.Helper()
	prog, err := sema.Load(src)
	if err != nil {
		t.Fatal(err)
	}
	plan := NewDirectedPlan(prog)
	ms, err := plan.Seed(rows)
	if err != nil {
		t.Fatal(err)
	}
	return plan, ms
}

func readInt(ms *MatStore, table string, field string, key ...int64) int64 {
	vals := make([]store.Value, len(key))
	for i, k := range key {
		vals[i] = store.IntV(k)
	}
	return ms.Read(table, store.MakeKey(vals...), field).I
}

func TestSerialSemantics(t *testing.T) {
	type cell struct {
		table, field string
		key, want    int64
	}
	cases := []struct {
		name    string
		src     string
		rows    []store.TableRow
		calls   []DirectedTxn
		rets    map[int]int64 // call index -> return value
		state   []cell
		refused string // substring of the error a refused run reports
	}{
		{name: "SerialDeposit", src: bankSrc,
			rows:  []store.TableRow{row("ACC", "id", 1, "bal", 100)},
			calls: []DirectedTxn{call("deposit", "k", 1, "amt", 50), call("balance", "k", 1)},
			rets:  map[int]int64{0: 150, 1: 150}},
		{name: "SerialNeverLosesUpdates", src: bankSrc,
			rows: []store.TableRow{row("ACC", "id", 1, "bal", 0)},
			calls: []DirectedTxn{
				call("deposit", "k", 1, "amt", 10), call("deposit", "k", 1, "amt", 10),
				call("deposit", "k", 1, "amt", 10), call("deposit", "k", 1, "amt", 10),
				call("deposit", "k", 1, "amt", 10), call("deposit", "k", 1, "amt", 10),
				call("deposit", "k", 1, "amt", 10), call("deposit", "k", 1, "amt", 10),
				call("deposit", "k", 1, "amt", 10), call("deposit", "k", 1, "amt", 10),
			},
			state: []cell{{"ACC", "bal", 1, 100}}},
		{name: "InsertThenSelect", src: bankSrc,
			calls: []DirectedTxn{call("openAcc", "k", 7), call("deposit", "k", 7, "amt", 5), call("balance", "k", 7)},
			rets:  map[int]int64{2: 5}},
		{name: "EmptyResultReadsZero", src: bankSrc,
			calls: []DirectedTxn{call("balance", "k", 99)},
			rets:  map[int]int64{0: 0}},
		{name: "InstanceArgChecking", src: bankSrc,
			calls: []DirectedTxn{call("deposit", "k", 1)}, refused: "expects 2 arguments, got 1"},
		{name: "InstanceArgChecking_Mistyped", src: bankSrc,
			calls:   []DirectedTxn{{Name: "deposit", Args: map[string]store.Value{"k": store.IntV(1), "amt": store.StringV("x")}}},
			refused: `argument "amt" missing or not of type int`},
		// iter is 1-based: records n=1..4, sum 10; the if's update fired, so
		// record 101's n is zero afterwards.
		{name: "IterateAndIf", src: seqSrc,
			calls: []DirectedTxn{call("fill", "base", 100, "cnt", 4), call("sumAll", "lo", 100, "hi", 200)},
			rets:  map[int]int64{1: 10},
			state: []cell{{"T", "n", 101, 0}, {"T", "n", 102, 2}}},
		// Results are in key order.
		{name: "AtIndexAccess", src: seqSrc,
			rows:  []store.TableRow{row("T", "id", 3, "n", 33), row("T", "id", 1, "n", 11), row("T", "id", 2, "n", 22)},
			calls: []DirectedTxn{call("second", "lo", 0)},
			rets:  map[int]int64{0: 22}},
		{name: "Aggregators", src: seqSrc,
			rows:  []store.TableRow{row("T", "id", 0, "n", 5), row("T", "id", 1, "n", 2), row("T", "id", 2, "n", 9)},
			calls: []DirectedTxn{call("stats", "lo", 0)},
			rets:  map[int]int64{0: 2 + 9*1000 + 3*1000000}},
		{name: "DivisionByZero", src: seqSrc,
			rows:  []store.TableRow{row("T", "id", 1, "n", 0)},
			calls: []DirectedTxn{call("div", "k", 1)}, refused: "call 0 (div): cluster: division by zero"},
		// Delete, then re-insert.
		{name: "DeleteHidesRecords", src: seqSrc,
			rows: []store.TableRow{row("T", "id", 0, "n", 0), row("T", "id", 1, "n", 1), row("T", "id", 2, "n", 2)},
			calls: []DirectedTxn{
				call("countAll", "lo", 0), call("drop", "k", 1), call("countAll", "lo", 0),
				call("revive", "k", 1, "v", 42), call("countAll", "lo", 0),
			},
			rets:  map[int]int64{0: 3, 2: 2, 4: 3},
			state: []cell{{"T", "n", 1, 42}}},
		// Two distinct log rows.
		{name: "UUIDInsertFreshRows", src: logSrc,
			calls: []DirectedTxn{call("log", "k", 1, "v", 3), call("log", "k", 1, "v", 4), call("total", "k", 1)},
			rets:  map[int]int64{2: 7}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			plan, ms := seeded(t, tc.src, tc.rows...)
			rets, err := plan.RunSerial(ms, tc.calls)
			if tc.refused != "" {
				if err == nil || !strings.Contains(err.Error(), tc.refused) {
					t.Fatalf("run returned %v, %v; want an error containing %q", rets, err, tc.refused)
				}
				return
			}
			if err != nil {
				t.Fatalf("RunSerial: %v", err)
			}
			for i, want := range tc.rets {
				if !rets[i].Equal(store.IntV(want)) {
					t.Errorf("call %d (%s) returned %v, want %d", i, tc.calls[i].Name, rets[i], want)
				}
			}
			for _, c := range tc.state {
				if got := readInt(ms, c.table, c.field, c.key); got != c.want {
					t.Errorf("%s[%d].%s = %d, want %d", c.table, c.key, c.field, got, c.want)
				}
			}
		})
	}
}

// TestArgAndRowChecks: what arrives from outside the program is checked where
// it enters, on every entry point — a transaction's arguments where a frame
// is bound (simulated runs under EC and SC, directed runs, serial runs), a
// row's values where Load installs it — and the error names the transaction
// and parameter, or the table and field. Nothing executes a refused call.
func TestArgAndRowChecks(t *testing.T) {
	prog, err := sema.Load(bankSrc)
	if err != nil {
		t.Fatal(err)
	}
	rows := []store.TableRow{row("ACC", "id", 1, "bal", 100)}
	simulate := func(mode Mode, args map[string]store.Value) error {
		var bound []benchmarks.Arg
		for _, name := range slices.Sorted(maps.Keys(args)) {
			bound = append(bound, benchmarks.Arg{Name: name, Val: args[name]})
		}
		mix := []benchmarks.MixEntry{{Txn: "deposit", Weight: 1, Args: func(*rand.Rand, benchmarks.Scale) benchmarks.Args {
			return benchmarks.Bind(bound...)
		}}}
		_, err := Run(Config{Program: prog, Mix: mix, Rows: rows, Topology: USCluster, Clients: 2,
			Duration: 50 * time.Millisecond, Mode: mode})
		return err
	}
	directed := func(args map[string]store.Value) error {
		plan, base := seeded(t, bankSrc, rows...)
		_, err := plan.Run(base, DirectedConfig{Txns: [2]DirectedTxn{call("balance", "k", 1), {Name: "deposit", Args: args}}})
		return err
	}
	serial := func(args map[string]store.Value) error {
		plan, ms := seeded(t, bankSrc, rows...)
		_, err := plan.RunSerial(ms, []DirectedTxn{{Name: "deposit", Args: args}})
		if got := readInt(ms, "ACC", "bal", 1); got != 100 {
			t.Errorf("a refused serial call ran: balance %d", got)
		}
		return err
	}
	load := func(r store.Row) error {
		plan, ms := seeded(t, bankSrc)
		err := ms.Load("ACC", r)
		if len(ms.Keys("ACC")) != 0 {
			t.Errorf("a refused row was installed: %q", ms.Keys("ACC"))
		}
		if _, serr := plan.Seed([]store.TableRow{{Table: "ACC", Row: r}}); (serr == nil) != (err == nil) {
			t.Errorf("Seed: %v, Load: %v", serr, err)
		}
		return err
	}
	const (
		count  = `cluster: deposit: expects 2 arguments, got 1`
		amtArg = `cluster: deposit: argument "amt" missing or not of type int`
	)
	short := map[string]store.Value{"k": store.IntV(1)}
	mistyped := map[string]store.Value{"k": store.IntV(1), "amt": store.StringV("x")}
	misnamed := map[string]store.Value{"k": store.IntV(1), "amount": store.IntV(5)}
	for _, c := range []struct {
		name string
		err  error
		want string
	}{
		{"RunEC/Count", simulate(ModeEC, short), count},
		{"RunEC/Mistyped", simulate(ModeEC, mistyped), amtArg},
		{"RunSC/Mistyped", simulate(ModeSC, mistyped), amtArg},
		{"RunSC/Misnamed", simulate(ModeSC, misnamed), amtArg},
		{"Directed/Count", directed(short), count},
		{"Directed/Mistyped", directed(mistyped), amtArg},
		{"Directed/Misnamed", directed(misnamed), amtArg},
		{"Serial/Misnamed", serial(misnamed), "call 0 (deposit): " + amtArg},
		{"Load/Mistyped", load(store.Row{"id": store.IntV(2), "bal": store.StringV("x")}), `cluster: ACC.bal: value "x" is not of type int`},
		{"Load/MistypedKey", load(store.Row{"id": store.BoolV(true)}), `cluster: ACC.id: value true is not of type int`},
		{"Load/MistypedAlive", load(store.Row{"id": store.IntV(2), ast.AliveField: store.IntV(1)}), `cluster: ACC.alive: value 1 is not of type bool`},
	} {
		if c.err == nil || c.err.Error() != c.want {
			t.Errorf("%s: %v, want %s", c.name, c.err, c.want)
		}
	}
	if err := simulate(ModeSC, map[string]store.Value{"k": store.IntV(1), "amt": store.IntV(5)}); err != nil {
		t.Errorf("a well-typed binding: %v", err)
	}
}

// twoDeposits is a directed run of two deposits of 10 into account 1:
// racing, both selects run first and neither instance sees the other's
// writes; otherwise instance 0 runs to the end, then instance 1, every
// command seeing every earlier batch.
func twoDeposits(racing bool) DirectedConfig {
	cfg := DirectedConfig{Txns: [2]DirectedTxn{call("deposit", "k", 1, "amt", 10), call("deposit", "k", 1, "amt", 10)}}
	if racing {
		cfg.Steps = []DirectedStep{{0, 0}, {1, 0}, {0, 1}, {1, 1}}
		return cfg
	}
	cfg.Steps = []DirectedStep{{0, 0}, {0, 1}, {1, 0}, {1, 1}}
	cfg.Vis = func(int, int, int, int) bool { return true }
	return cfg
}

// TestLostUpdateUnderEC: two deposits that both read the initial balance
// overwrite one another (Fig. 2, right); the same two in serial order with
// full visibility do not.
func TestLostUpdateUnderEC(t *testing.T) {
	plan, base := seeded(t, bankSrc, row("ACC", "id", 1, "bal", 0))
	for _, tc := range []struct {
		racing bool
		want   int64
	}{{true, 10}, {false, 20}} {
		res, err := plan.Run(base, twoDeposits(tc.racing))
		if err != nil {
			t.Fatal(err)
		}
		if got := readInt(res.FinalState(base), "ACC", "bal", 1); got != tc.want {
			t.Errorf("racing=%v: final balance %d, want %d", tc.racing, got, tc.want)
		}
	}
	if got := readInt(base, "ACC", "bal", 1); got != 0 {
		t.Errorf("base written: balance %d", got)
	}
}

// TestSerialWritesOrderAfterStore: last-writer-wins must not let what a
// state already holds swallow later work — a directed run's batches
// (timestamps 1, 2, …) over a state a serial prologue wrote at higher
// timestamps, or a serial run over a directed run's final state.
func TestSerialWritesOrderAfterStore(t *testing.T) {
	plan, ms := seeded(t, bankSrc, row("ACC", "id", 1, "bal", 0))
	prologue := make([]DirectedTxn, 5)
	for i := range prologue {
		prologue[i] = call("deposit", "k", 1, "amt", 10)
	}
	if _, err := plan.RunSerial(ms, prologue); err != nil {
		t.Fatal(err)
	}
	res, err := plan.Run(ms, twoDeposits(false))
	if err != nil {
		t.Fatal(err)
	}
	final := res.FinalState(ms)
	if got := readInt(final, "ACC", "bal", 1); got != 70 {
		t.Fatalf("final balance after a 50 prologue and two deposits: %d, want 70", got)
	}
	for run := int64(1); run <= 2; run++ {
		rets, err := plan.RunSerial(final, []DirectedTxn{call("deposit", "k", 1, "amt", 10), call("balance", "k", 1)})
		if err != nil {
			t.Fatal(err)
		}
		if want := 70 + 10*run; rets[1].I != want || readInt(final, "ACC", "bal", 1) != want {
			t.Fatalf("serial run %d over the final state: balance returned %d, stored %d, want %d",
				run, rets[1].I, readInt(final, "ACC", "bal", 1), want)
		}
	}
}

// TestSerialUUIDsDisjoint: no two calls of a serial run, and no serial call
// and directed instance over one state, draw the same uuid() — a shared
// value would make one insert overwrite the other's row.
func TestSerialUUIDsDisjoint(t *testing.T) {
	logRows := func(ms *MatStore) int {
		n := 0
		for _, k := range ms.Keys("LOG") {
			if ms.Alive("LOG", k) {
				n++
			}
		}
		return n
	}
	two := DirectedConfig{
		Txns:  [2]DirectedTxn{call("log", "k", 1, "v", 1), call("log", "k", 1, "v", 2)},
		Steps: []DirectedStep{{0, 0}, {1, 0}},
	}
	serial := []DirectedTxn{call("log", "k", 1, "v", 4), call("log", "k", 1, "v", 8), call("total", "k", 1)}

	// Serial calls over a directed run's final state.
	plan, base := seeded(t, logSrc)
	res, err := plan.Run(base, two)
	if err != nil {
		t.Fatal(err)
	}
	final := res.FinalState(base)
	rets, err := plan.RunSerial(final, serial)
	if err != nil {
		t.Fatal(err)
	}
	if n := logRows(final); n != 4 || rets[2].I != 15 {
		t.Errorf("directed then serial: %d log rows totalling %d, want 4 totalling 15", n, rets[2].I)
	}

	// A directed run over a state serial calls wrote.
	plan, ms := seeded(t, logSrc)
	if _, err := plan.RunSerial(ms, serial); err != nil {
		t.Fatal(err)
	}
	if res, err = plan.Run(ms, two); err != nil {
		t.Fatal(err)
	}
	final = res.FinalState(ms)
	if rets, err = plan.RunSerial(final, serial[2:]); err != nil {
		t.Fatal(err)
	}
	if n := logRows(final); n != 4 || rets[0].I != 15 {
		t.Errorf("serial then directed: %d log rows totalling %d, want 4 totalling 15", n, rets[0].I)
	}
}

// TestFinalStateOnAnotherBase: FinalState names records by key, so it
// applies a run to any base seeded with the same rows — here a fresh Seed,
// whose directory never saw the keys the run inserted — and converges to
// what it does over the run's own base.
func TestFinalStateOnAnotherBase(t *testing.T) {
	rows := []store.TableRow{row("LOG", "k", 1, "lid", 7, "v", 100)}
	plan, base := seeded(t, logSrc, rows...)
	res, err := plan.Run(base, DirectedConfig{
		Txns:  [2]DirectedTxn{call("log", "k", 1, "v", 1), call("log", "k", 2, "v", 2)},
		Steps: []DirectedStep{{0, 0}, {1, 0}},
	})
	if err != nil {
		t.Fatal(err)
	}
	want := dumpState(res.FinalState(base))
	fresh, err := plan.Seed(rows)
	if err != nil {
		t.Fatal(err)
	}
	if got := dumpState(res.FinalState(fresh)); got != want {
		t.Errorf("over a fresh seed:\n%s\nover the run's base:\n%s", got, want)
	}
	if n := strings.Count(want, "alive=true"); n != 3 {
		t.Errorf("%d live rows, want 3:\n%s", n, want)
	}
}
