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
	db := NewDB(testProg(t))
	k, err := db.Load("ACC", Row{"id": IntV(1), "bal": IntV(100), "name": StringV("alice")})
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if v := db.Read("ACC", k, "bal"); !v.Equal(IntV(100)) {
		t.Fatalf("Read = %v, want 100", v)
	}
	if !db.Alive("ACC", k) {
		t.Fatal("loaded record not alive")
	}
}

func TestLoadErrors(t *testing.T) {
	db := NewDB(testProg(t))
	if _, err := db.Load("NOPE", Row{"id": IntV(1)}); err == nil {
		t.Error("Load on unknown table succeeded")
	}
	if _, err := db.Load("ACC", Row{"id": StringV("x")}); err == nil {
		t.Error("Load with mistyped field succeeded")
	}
}

func TestLoadFillsZeroValues(t *testing.T) {
	db := NewDB(testProg(t))
	k, err := db.Load("ACC", Row{"id": IntV(2)})
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if v := db.Read("ACC", k, "bal"); !v.Equal(IntV(0)) {
		t.Fatalf("bal = %v, want 0", v)
	}
	if s := db.Read("ACC", k, "name"); !s.Equal(StringV("")) {
		t.Fatalf("name = %v, want empty string", s)
	}
}

func TestUnknownRecordReadsZero(t *testing.T) {
	db := NewDB(testProg(t))
	k := MakeKey(IntV(42))
	if v := db.Read("ACC", k, "bal"); !v.Equal(IntV(0)) {
		t.Fatalf("read of unwritten record = %v", v)
	}
	if db.Alive("ACC", k) {
		t.Fatal("unwritten record reports alive")
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

func TestRowClone(t *testing.T) {
	r := Row{"a": IntV(1)}
	c := r.Clone()
	c["a"] = IntV(2)
	if !r["a"].Equal(IntV(1)) {
		t.Error("Clone is shallow")
	}
}
