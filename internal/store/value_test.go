package store

import (
	"testing"

	"atropos/internal/ast"
	"atropos/internal/parser"
)

func testProg(t *testing.T) *ast.Program {
	t.Helper()
	return parser.MustParse(`
table ACC { id: int key, bal: int, name: string, }
table LOG { id: int key, seq: int key, amt: int, }
`)
}

func TestLoadAndFullViewRead(t *testing.T) {
	acc := testProg(t).Schema("ACC")
	row, k, err := Load(acc, Row{"id": IntV(1), "bal": IntV(100), "name": StringV("alice")})
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if k != MakeKey(IntV(1)) {
		t.Fatalf("key = %q, want the id's", k)
	}
	if v := row["bal"]; !v.Equal(IntV(100)) {
		t.Fatalf("bal = %v, want 100", v)
	}
	if !row[ast.AliveField].Equal(BoolV(true)) {
		t.Fatal("loaded record not alive")
	}
	if row, _, _ := Load(acc, Row{"id": IntV(1), ast.AliveField: BoolV(false)}); !row[ast.AliveField].Equal(BoolV(false)) {
		t.Fatal("a row's own alive is overridden")
	}
}

func TestLoadErrors(t *testing.T) {
	if _, _, err := Load(testProg(t).Schema("ACC"), Row{"id": StringV("x")}); err == nil {
		t.Error("Load with mistyped field succeeded")
	}
}

func TestLoadFillsZeroValues(t *testing.T) {
	log := testProg(t).Schema("LOG")
	row, k, err := Load(log, Row{"id": IntV(2)})
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if k != MakeKey(IntV(2), IntV(0)) {
		t.Fatalf("key = %q, want (2, 0)", k)
	}
	if v := row["amt"]; !v.Equal(IntV(0)) {
		t.Fatalf("amt = %v, want 0", v)
	}
	if s := row["seq"]; !s.Equal(IntV(0)) {
		t.Fatalf("seq = %v, want 0", s)
	}
}

func TestCompositeKeys(t *testing.T) {
	a := MakeKey(IntV(1), IntV(2))
	b := MakeKey(IntV(12))
	if a == b {
		t.Fatal("key encoding collides across arity")
	}
	c := MakeKey(StringV("1"), StringV("2"))
	if a == c {
		t.Fatal("key encoding collides across types")
	}
	if MakeKey(IntV(1), IntV(2)) != a {
		t.Fatal("key encoding not deterministic")
	}
}

func TestValueOrderingAndEquality(t *testing.T) {
	if !IntV(1).Less(IntV(2)) || IntV(2).Less(IntV(1)) {
		t.Error("int ordering broken")
	}
	if !BoolV(false).Less(BoolV(true)) {
		t.Error("bool ordering broken")
	}
	if !StringV("a").Less(StringV("b")) {
		t.Error("string ordering broken")
	}
	if IntV(1).Equal(BoolV(true)) {
		t.Error("cross-type equality")
	}
	if !Zero(ast.TInt).Equal(IntV(0)) {
		t.Error("zero int != 0")
	}
}
