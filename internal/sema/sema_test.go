package sema

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"atropos/internal/ast"
	"atropos/internal/parser"
)

func checkSrc(t *testing.T, src string) error {
	t.Helper()
	p, err := parser.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return Check(p)
}

func TestCheckValidProgram(t *testing.T) {
	src := `
table ACC { id: int key, bal: int, owner: string, open: bool, }
txn deposit(k: int, amt: int) {
  x := select bal from ACC where id = k;
  update ACC set bal = x.bal + amt where id = k;
  return x.bal + amt;
}
txn audit(k: int) {
  x := select * from ACC where id = k;
  if (x.open) {
    update ACC set bal = 0 where id = k && open = true;
  }
  return count(x.bal);
}
txn batch(n: int) {
  iterate (n) {
    insert into ACC values (id = uuid(), bal = iter, owner = "new", open = true);
  }
}
`
	if err := checkSrc(t, src); err != nil {
		t.Fatalf("Check: %v", err)
	}
}

func TestCheckErrors(t *testing.T) {
	cases := []struct {
		name string
		src  string
		want string
	}{
		{"no pk", `table T { n: int, }`, "no primary key"},
		{"reserved alive", `table T { id: int key, alive: bool, }`, "reserved"},
		{"dup field", `table T { id: int key, id: int, }`, "duplicate field"},
		{"dup param", `table T { id: int key, } txn a(x: int, x: int) { skip; }`, "duplicate parameter"},
		{"unknown select field", `table T { id: int key, } txn a(k: int) { x := select zap from T where id = k; }`, "unknown field"},
		{"unknown arg", `table T { id: int key, n: int, } txn a(k: int) { update T set n = 1 where id = zap; }`, "unknown identifier"},
		{"var before def", `table T { id: int key, n: int, } txn a(k: int) { update T set n = x.n where id = k; }`, "unknown variable"},
		{"field not selected", `table T { id: int key, n: int, m: int, } txn a(k: int) { x := select n from T where id = k; return x.m; }`, "does not carry field"},
		{"set type mismatch", `table T { id: int key, n: int, } txn a(k: int) { update T set n = true where id = k; }`, "type"},
		{"where not bool", `table T { id: int key, n: int, } txn a(k: int) { x := select n from T where id + 1; }`, "want bool"},
		{"arith on bool", `table T { id: int key, b: bool, } txn a(k: int) { update T set b = true where id = k && (b + b = 2); }`, "arithmetic"},
		{"cmp mismatch", `table T { id: int key, s: string, } txn a(k: int) { x := select s from T where s = k; }`, "comparison"},
		{"ordering on bool", `table T { id: int key, b: bool, } txn a(k: int) { x := select b from T where b < true; }`, "ordering"},
		{"iter outside", `table T { id: int key, n: int, } txn a(k: int) { update T set n = iter where id = k; }`, "outside iterate"},
		{"sum over string", `table T { id: int key, s: string, } txn a(k: int) { x := select s from T where id = k; return sum(x.s); }`, "non-int"},
		{"insert missing pk", `table T { id: int key, n: int, } txn a(k: int) { insert into T values (n = 1); }`, "primary-key"},
		{"insert unknown field", `table T { id: int key, } txn a(k: int) { insert into T values (id = k, zap = 1); }`, "unknown field"},
		{"iterate count bool", `table T { id: int key, } txn a(k: int) { iterate (true) { skip; } }`, "want int"},
		{"if cond int", `table T { id: int key, } txn a(k: int) { if (k) { skip; } }`, "want bool"},
		{"set twice", `table T { id: int key, n: int, } txn a(k: int) { update T set n = 1, n = 2 where id = k; }`, "set twice"},
		{"rebound", `table A { id: int key, v: int, } table B { id: int key, w: int, z: int, } txn a(k: int) { x := select v from A where id = k; x := select w, z from B where id = k; return x.w; }`, `txn a: S2: variable "x" is already bound by S1`},
		{"rebound same shape", `table A { id: int key, v: int, } txn a(k: int) { x := select v from A where id = k; if (k > 0) { x := select v from A where id = k + 1; } }`, `txn a: S2: variable "x" is already bound by S1`},
		{"uuid in set", `table T { id: int key, n: int, } txn a(k: int) { update T set n = uuid() where id = k; }`, "txn a: U1: set n: uuid() is allowed only in insert values"},
		{"uuid in where", `table T { id: int key, n: int, } txn a(k: int) { x := select n from T where id = uuid(); }`, "txn a: S1: where: uuid() is allowed only in insert values"},
		{"uuid in if", `table T { id: int key, } txn a(k: int) { if (uuid() > k) { skip; } }`, "txn a: if condition: uuid() is allowed only in insert values"},
		{"uuid in return", `table T { id: int key, } txn a(k: int) { return uuid(); }`, "txn a: return: uuid() is allowed only in insert values"},
		{"uuid in index", `table T { id: int key, n: int, } txn a(k: int) { x := select n from T where id = k; insert into T values (id = k, n = x.n[uuid()]); update T set n = x.n[uuid()] where id = k; }`, "txn a: U2: set n: uuid() is allowed only in insert values"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := checkSrc(t, tc.src)
			if err == nil {
				t.Fatalf("Check succeeded, want error containing %q", tc.want)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not contain %q", err, tc.want)
			}
		})
	}
}

// WideTable returns a program declaring table W with n fields, the first
// its key (FuzzSema seeds with it too).
func WideTable(n int) string {
	var b strings.Builder
	b.WriteString("table W {\n  f0: int key,\n")
	for i := 1; i < n; i++ {
		fmt.Fprintf(&b, "  f%d: int,\n", i)
	}
	b.WriteString("}\ntxn get(k: int) {\n  x := select * from W where f0 = k;\n}\n")
	return b.String()
}

// TestFieldLimit: a table may declare ast.MaxFields fields, so that with
// alive each fits one bit of a word; one more is refused with an error
// naming the table and the count.
func TestFieldLimit(t *testing.T) {
	if err := checkSrc(t, WideTable(ast.MaxFields)); err != nil {
		t.Fatalf("%d fields: %v", ast.MaxFields, err)
	}
	err := checkSrc(t, WideTable(ast.MaxFields+1))
	if err == nil || !strings.Contains(err.Error(), "table W") || !strings.Contains(err.Error(), "64 fields") {
		t.Fatalf("%d fields: error %v, want one naming table W and 64 fields", ast.MaxFields+1, err)
	}
}

// TestUpdateOfKeyFieldRejected: an update may not write a primary-key
// field. Moving a record to a new key left it findable under the old key
// (whose field then read the new value) and under neither by the new one;
// the error names the command, the field and the table.
func TestUpdateOfKeyFieldRejected(t *testing.T) {
	for _, tc := range []struct{ src, want string }{
		{`table T { id: int key, v: int, }
txn move(k: int) {
  x := select v from T where id = k;
  update T set v = 1, id = 3 where id = k;
}`, `txn move: U1: update sets primary-key field "id" of table T`},
		{`table T { a: int key, b: int key, v: int, }
txn move(k: int) {
  update T set v = 2 where a = k && b = k;
  update T set b = k + 1 where a = k && b = k;
}`, `txn move: U2: update sets primary-key field "b" of table T`},
	} {
		err := checkSrc(t, tc.src)
		if err == nil || err.Error() != tc.want {
			t.Errorf("Check = %v, want %q", err, tc.want)
		}
	}
	// Deleting a record writes its presence field, not its key.
	if err := checkSrc(t, `table T { id: int key, v: int, }
txn drop(k: int) {
  delete from T where id = k;
}`); err != nil {
		t.Errorf("delete rejected: %v", err)
	}
}

func TestCountOverAnyType(t *testing.T) {
	src := `
table T { id: int key, s: string, }
txn a(k: int) {
  x := select s from T where id = k;
  return count(x.s);
}
`
	if err := checkSrc(t, src); err != nil {
		t.Fatalf("count over string rejected: %v", err)
	}
}

func TestAnyAggPreservesType(t *testing.T) {
	src := `
table T { id: int key, s: string, }
txn a(k: int, w: string) {
  x := select s from T where id = k;
  update T set s = any(x.s) where id = k;
}
`
	if err := checkSrc(t, src); err != nil {
		t.Fatalf("any(string) assigned to string field rejected: %v", err)
	}
}

func TestAliveUsableInWhere(t *testing.T) {
	src := `
table T { id: int key, n: int, }
txn a(k: int) {
  x := select n from T where id = k && alive = true;
}
`
	if err := checkSrc(t, src); err != nil {
		t.Fatalf("alive in where rejected: %v", err)
	}
}

func TestLoad(t *testing.T) {
	p, err := Load(`
table T { id: int key, n: int, }
txn bump(k: int) {
  x := select n from T where id = k;
  update T set n = x.n + 1 where id = k;
}
`)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if p.Txn("bump") == nil {
		t.Fatal("bump missing")
	}
}

func TestLoadErrors(t *testing.T) {
	var perr *parser.Error
	if _, err := Load("table T {"); !errors.As(err, &perr) || !strings.HasPrefix(err.Error(), "parse: ") {
		t.Errorf("parse error not wrapped: %v", err)
	}
	var serr *Error
	if _, err := Load("table T { n: int, }"); !errors.As(err, &serr) || !strings.HasPrefix(err.Error(), "check: ") {
		t.Errorf("sema error not wrapped: %v", err)
	}
}
