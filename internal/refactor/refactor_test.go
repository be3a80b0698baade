package refactor

import (
	"fmt"
	"strings"
	"testing"

	"atropos/internal/ast"
	"atropos/internal/parser"
	"atropos/internal/sema"
)

const courseware = `
table COURSE {
  co_id: int key,
  co_avail: bool,
  co_st_cnt: int,
}

table EMAIL {
  em_id: int key,
  em_addr: string,
}

table STUDENT {
  st_id: int key,
  st_name: string,
  st_em_id: int,
  st_co_id: int,
  st_reg: bool,
}

txn getSt(id: int) {
  x := select * from STUDENT where st_id = id;
  y := select em_addr from EMAIL where em_id = x.st_em_id;
  z := select co_avail from COURSE where co_id = x.st_co_id;
  return y.em_addr;
}

txn setSt(id: int, name: string, email: string) {
  x := select st_em_id from STUDENT where st_id = id;
  update STUDENT set st_name = name where st_id = id;
  update EMAIL set em_addr = email where em_id = x.st_em_id;
}

txn regSt(id: int, course: int) {
  update STUDENT set st_co_id = course, st_reg = true where st_id = id;
  x := select co_st_cnt from COURSE where co_id = course;
  update COURSE set co_st_cnt = x.co_st_cnt + 1, co_avail = true where co_id = course;
}
`

func mustProg(t *testing.T, src string) *ast.Program {
	t.Helper()
	p, err := parser.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if err := sema.Check(p); err != nil {
		t.Fatalf("sema: %v", err)
	}
	return p
}

func checkSema(t *testing.T, p *ast.Program, context string) {
	t.Helper()
	if err := sema.Check(p); err != nil {
		t.Fatalf("%s produced an ill-typed program: %v\n%s", context, err, ast.Format(p))
	}
}

func TestIntroSchemaAndField(t *testing.T) {
	p := mustProg(t, courseware)
	p2, err := IntroSchema(p, "NEW")
	if err != nil {
		t.Fatalf("IntroSchema: %v", err)
	}
	if p.Schema("NEW") != nil {
		t.Error("IntroSchema mutated its input")
	}
	if p2.Schema("NEW") == nil {
		t.Fatal("schema not added")
	}
	if _, err := IntroSchema(p2, "NEW"); err == nil {
		t.Error("duplicate schema accepted")
	}
	p3, err := IntroField(p2, "NEW", ast.Field{Name: "id", Type: ast.TInt, PK: true})
	if err != nil {
		t.Fatalf("IntroField: %v", err)
	}
	if p3.Schema("NEW").Field("id") == nil {
		t.Fatal("field not added")
	}
	if _, err := IntroField(p3, "NEW", ast.Field{Name: "id", Type: ast.TInt}); err == nil {
		t.Error("duplicate field accepted")
	}
	if _, err := IntroField(p3, "NOPE", ast.Field{Name: "x", Type: ast.TInt}); err == nil {
		t.Error("unknown schema accepted")
	}
}

// emailCorr is the paper's Fig. 9 correspondence: EMAIL.em_addr moves into
// STUDENT.st_em_addr with θ̂(em_id) = st_em_id.
func emailCorr() ValueCorr {
	return ValueCorr{
		SrcTable: "EMAIL", SrcField: "em_addr",
		DstTable: "STUDENT", DstField: "st_em_addr",
		Theta: map[string]string{"em_id": "st_em_id"},
		Agg:   ast.AggAny,
	}
}

func applyEmailCorr(t *testing.T, p *ast.Program) *ast.Program {
	t.Helper()
	p2, err := IntroField(p, "STUDENT", ast.Field{Name: "st_em_addr", Type: ast.TString})
	if err != nil {
		t.Fatalf("IntroField: %v", err)
	}
	p3, err := ApplyCorr(p2, emailCorr())
	if err != nil {
		t.Fatalf("ApplyCorr: %v", err)
	}
	return p3
}

func TestApplyCorrRedirectsFig9(t *testing.T) {
	p3 := applyEmailCorr(t, mustProg(t, courseware))
	checkSema(t, p3, "redirect")

	// getSt's S2 now selects st_em_addr from STUDENT where st_em_id = x.st_em_id.
	getSt := p3.Txn("getSt")
	s2 := ast.Commands(getSt.Body)[1].(*ast.Select)
	if s2.Table != "STUDENT" || s2.Fields[0] != "st_em_addr" {
		t.Fatalf("S2 redirected to %s.%v", s2.Table, s2.Fields)
	}
	if got := ast.ExprString(s2.Where); !strings.Contains(got, "st_em_id") {
		t.Fatalf("S2 where = %s, want st_em_id constraint", got)
	}
	// The return expression was rewritten (R2).
	if got := ast.ExprString(getSt.Ret); got != "y.st_em_addr" {
		t.Fatalf("getSt return = %s, want y.st_em_addr", got)
	}
	// setSt's U2 now updates STUDENT (Fig. 9 bottom-right).
	setSt := p3.Txn("setSt")
	u2 := ast.Commands(setSt.Body)[2].(*ast.Update)
	if u2.Table != "STUDENT" || u2.Sets[0].Field != "st_em_addr" {
		t.Fatalf("U2 redirected to %s.%v", u2.Table, u2.Sets)
	}
}

func TestApplyCorrValidations(t *testing.T) {
	p := mustProg(t, courseware)
	cases := []struct {
		name string
		corr ValueCorr
		want string
	}{
		{"unknown src table", ValueCorr{SrcTable: "NOPE", SrcField: "x", DstTable: "STUDENT", DstField: "st_name", Theta: map[string]string{}, Agg: ast.AggAny}, "unknown source schema"},
		{"unknown src field", ValueCorr{SrcTable: "EMAIL", SrcField: "nope", DstTable: "STUDENT", DstField: "st_name", Theta: map[string]string{}, Agg: ast.AggAny}, "unknown source field"},
		{"unknown dst", ValueCorr{SrcTable: "EMAIL", SrcField: "em_addr", DstTable: "NOPE", DstField: "x", Theta: map[string]string{}, Agg: ast.AggAny}, "unknown destination schema"},
		{"theta incomplete", ValueCorr{SrcTable: "EMAIL", SrcField: "em_addr", DstTable: "STUDENT", DstField: "st_name", Theta: map[string]string{}, Agg: ast.AggAny}, "θ̂ does not map"},
		{"bad agg", ValueCorr{SrcTable: "EMAIL", SrcField: "em_addr", DstTable: "STUDENT", DstField: "st_name", Theta: map[string]string{"em_id": "st_em_id"}, Agg: ast.AggSum}, "redirect rule requires"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ApplyCorr(p, tc.corr)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error = %v, want containing %q", err, tc.want)
			}
		})
	}
}

func TestBuildLoggerSchemaAndApply(t *testing.T) {
	p := mustProg(t, courseware)
	// Split U2 of regSt first so it sets only co_st_cnt.
	p, err := Split(p, "regSt", "U2", [][]string{{"co_st_cnt"}, {"co_avail"}})
	if err != nil {
		t.Fatalf("Split: %v", err)
	}
	p2, corr, err := BuildLoggerSchema(p, "COURSE", "co_st_cnt")
	if err != nil {
		t.Fatalf("BuildLoggerSchema: %v", err)
	}
	if corr.DstTable != "COURSE_CO_ST_CNT_LOG" {
		t.Fatalf("log table = %s", corr.DstTable)
	}
	logSchema := p2.Schema(corr.DstTable)
	if logSchema == nil {
		t.Fatal("log schema missing")
	}
	if pk := logSchema.PrimaryKey(); len(pk) != 2 {
		t.Fatalf("log pk = %v, want co_id + log_id", pk)
	}
	p3, err := ApplyCorr(p2, corr)
	if err != nil {
		t.Fatalf("ApplyCorr(logger): %v", err)
	}
	checkSema(t, p3, "logger")
	// The increment update became an insert with delta 1 and uuid log_id.
	regSt := p3.Txn("regSt")
	var ins *ast.Insert
	for _, c := range ast.Commands(regSt.Body) {
		if x, ok := c.(*ast.Insert); ok {
			ins = x
		}
	}
	if ins == nil {
		t.Fatalf("no insert in repaired regSt:\n%s", ast.Format(p3))
	}
	if ins.Table != corr.DstTable {
		t.Fatalf("insert into %s, want %s", ins.Table, corr.DstTable)
	}
	hasUUID := false
	for _, a := range ins.Values {
		if _, ok := a.Expr.(*ast.UUID); ok && a.Field == ast.LogIDField {
			hasUUID = true
		}
	}
	if !hasUUID {
		t.Fatal("insert does not set log_id = uuid()")
	}
	// The select S1 of regSt is now dead (its variable feeds only the
	// removed increment).
	if !IsDeadSelect(p3, "regSt", "S1") {
		t.Fatalf("S1 not dead after logging:\n%s", ast.Format(p3))
	}
}

func TestLoggerRejectsNonIncrement(t *testing.T) {
	src := `
table T { id: int key, n: int, }
txn setAbs(k: int, v: int) {
  update T set n = v where id = k;
}
`
	p := mustProg(t, src)
	p2, corr, err := BuildLoggerSchema(p, "T", "n")
	if err != nil {
		t.Fatalf("BuildLoggerSchema: %v", err)
	}
	if _, err := ApplyCorr(p2, corr); err == nil || !strings.Contains(err.Error(), "increment") {
		t.Fatalf("absolute assignment accepted by logger rule: %v", err)
	}
}

func TestLoggerRejectsNonIntField(t *testing.T) {
	p := mustProg(t, courseware)
	if _, _, err := BuildLoggerSchema(p, "EMAIL", "em_addr"); err == nil {
		t.Fatal("logger accepted a string field")
	}
}

func TestSplitUpdate(t *testing.T) {
	p := mustProg(t, courseware)
	p2, err := Split(p, "regSt", "U2", [][]string{{"co_st_cnt"}, {"co_avail"}})
	if err != nil {
		t.Fatalf("Split: %v", err)
	}
	checkSema(t, p2, "split")
	cmds := ast.Commands(p2.Txn("regSt").Body)
	if len(cmds) != 4 {
		t.Fatalf("regSt has %d commands after split, want 4", len(cmds))
	}
	u21, ok1 := cmds[2].(*ast.Update)
	u22, ok2 := cmds[3].(*ast.Update)
	if !ok1 || !ok2 {
		t.Fatalf("split results are %T, %T", cmds[2], cmds[3])
	}
	if u21.Label != "U2.1" || u22.Label != "U2.2" {
		t.Fatalf("labels = %s, %s", u21.Label, u22.Label)
	}
	if len(u21.Sets) != 1 || u21.Sets[0].Field != "co_st_cnt" {
		t.Fatalf("U2.1 sets %v", u21.Sets)
	}
	if !ast.EqualExpr(u21.Where, u22.Where) {
		t.Fatal("split parts have different where clauses")
	}
	// Errors.
	if _, err := Split(p, "regSt", "U2", [][]string{{"co_st_cnt"}}); err == nil {
		t.Error("partial partition accepted")
	}
	if _, err := Split(p, "regSt", "U9", nil); err == nil {
		t.Error("unknown label accepted")
	}
	// A field in two groups reaches the field count without covering
	// co_avail.
	if _, err := Split(p, "regSt", "U2", [][]string{{"co_st_cnt"}, {"co_st_cnt"}}); fmt.Sprint(err) != `refactor: split: regSt.U2: field "co_st_cnt" is in two groups` {
		t.Errorf("groups naming co_st_cnt twice: %v", err)
	}
}

func TestSplitSelect(t *testing.T) {
	src := `
table T { id: int key, a: int, b: int, }
txn rd(k: int) {
  x := select a, b from T where id = k;
  return x.a + x.b;
}
`
	p := mustProg(t, src)
	p2, err := Split(p, "rd", "S1", [][]string{{"a"}, {"b"}})
	if err != nil {
		t.Fatalf("Split: %v", err)
	}
	checkSema(t, p2, "split select")
	cmds := ast.Commands(p2.Txn("rd").Body)
	if len(cmds) != 2 {
		t.Fatalf("commands = %d, want 2", len(cmds))
	}
	ret := ast.ExprString(p2.Txn("rd").Ret)
	if !strings.Contains(ret, "x_1.a") || !strings.Contains(ret, "x_2.b") {
		t.Fatalf("return = %s, want split variable accesses", ret)
	}
	// A field in two groups would leave x.b unbound.
	if _, err := Split(p, "rd", "S1", [][]string{{"a"}, {"a"}}); fmt.Sprint(err) != `refactor: split: rd.S1: field "a" is in two groups` {
		t.Errorf("groups naming a twice: %v", err)
	}
}

func TestMergeSelectsEqualWhere(t *testing.T) {
	src := `
table T { id: int key, a: int, b: int, }
txn rd(k: int) {
  x := select a from T where id = k;
  y := select b from T where id = k;
  return x.a + y.b;
}
`
	p := mustProg(t, src)
	p2, err := Merge(p, "rd", "S1", "S2")
	if err != nil {
		t.Fatalf("Merge: %v", err)
	}
	checkSema(t, p2, "merge")
	cmds := ast.Commands(p2.Txn("rd").Body)
	if len(cmds) != 1 {
		t.Fatalf("commands = %d, want 1", len(cmds))
	}
	sel := cmds[0].(*ast.Select)
	if len(sel.Fields) != 2 {
		t.Fatalf("merged fields = %v", sel.Fields)
	}
	if got := ast.ExprString(p2.Txn("rd").Ret); got != "(x.a + x.b)" {
		t.Fatalf("return = %s, want (x.a + x.b)", got)
	}
}

func TestMergeLookupPattern(t *testing.T) {
	// Fig. 9 after redirect: U1 (where st_id = id) and U2' (where
	// st_em_id = x.st_em_id, x selected by st_id = id) merge into one
	// update anchored at st_id = id.
	p3 := applyEmailCorr(t, mustProg(t, courseware))
	p4, err := Merge(p3, "setSt", "U1", "U2")
	if err != nil {
		t.Fatalf("Merge: %v", err)
	}
	checkSema(t, p4, "lookup merge")
	setSt := p4.Txn("setSt")
	var updates []*ast.Update
	for _, c := range ast.Commands(setSt.Body) {
		if u, ok := c.(*ast.Update); ok {
			updates = append(updates, u)
		}
	}
	if len(updates) != 1 {
		t.Fatalf("updates after merge = %d, want 1", len(updates))
	}
	if got := ast.ExprString(updates[0].Where); !strings.Contains(got, "st_id") {
		t.Fatalf("merged where = %s, want anchored at st_id", got)
	}
	if len(updates[0].Sets) != 2 {
		t.Fatalf("merged sets = %v", updates[0].Sets)
	}
}

func TestMergeRefusesDifferentRecords(t *testing.T) {
	src := `
table T { id: int key, a: int, }
txn rd(k: int, j: int) {
  x := select a from T where id = k;
  y := select a from T where id = j;
  return x.a + y.a;
}
`
	p := mustProg(t, src)
	if _, err := Merge(p, "rd", "S1", "S2"); err == nil {
		t.Fatal("merged selects on provably different keys")
	}
}

func TestMergeRefusesConflictBetween(t *testing.T) {
	src := `
table T { id: int key, a: int, b: int, }
txn rmw(k: int) {
  x := select a from T where id = k;
  update T set a = x.a + 1 where id = k;
  y := select b from T where id = k;
  return y.b;
}
`
	p := mustProg(t, src)
	// Merging S1 and S2 would move the second read above the write it must
	// observe.
	if _, err := Merge(p, "rmw", "S1", "S2"); err == nil {
		t.Fatal("merge across a conflicting update accepted")
	}
}

func TestDeadSelectRemoval(t *testing.T) {
	src := `
table T { id: int key, a: int, }
txn dead(k: int) {
  x := select a from T where id = k;
  y := select a from T where id = k;
  update T set a = y.a + 1 where id = k;
}
`
	p := mustProg(t, src)
	p, n := RemoveDeadSelects(p)
	if n != 1 {
		t.Fatalf("removed %d selects, want 1 (x unused)", n)
	}
	cmds := ast.Commands(p.Txn("dead").Body)
	if len(cmds) != 2 {
		t.Fatalf("commands = %d, want 2", len(cmds))
	}
}

func TestDeadSelectCascade(t *testing.T) {
	src := `
table T { id: int key, a: int, }
txn chain(k: int) {
  x := select a from T where id = k;
  y := select a from T where id = x.a;
}
`
	p := mustProg(t, src)
	// y is dead; removing it makes x dead too.
	if _, n := RemoveDeadSelects(p); n != 2 {
		t.Fatalf("removed %d selects, want 2 (cascade)", n)
	}
}

func TestGCSchemas(t *testing.T) {
	src := `
table USED { id: int key, a: int, b: int, }
table MOVED { id: int key, x: int, }
table IDLE { id: int key, y: int, }
txn rd(k: int) {
  v := select a from USED where id = k;
  return v.a;
}
`
	p := mustProg(t, src)
	// x of MOVED and b of USED have been relocated by correspondences;
	// y of IDLE has not.
	moved := map[string]map[string]bool{
		"MOVED": {"x": true},
		"USED":  {"b": true},
	}
	p, removed := GCSchemas(p, moved)
	if len(removed) != 1 || removed[0] != "MOVED" {
		t.Fatalf("removed = %v, want [MOVED]", removed)
	}
	// Field b of USED moved and is unaccessed: dropped; the key stays.
	used := p.Schema("USED")
	if used.Field("b") != nil {
		t.Error("moved, unaccessed field b survived GC")
	}
	if used.Field("id") == nil || used.Field("a") == nil {
		t.Error("GC removed live fields")
	}
	// IDLE is unaccessed but nothing moved out of it: its data must stay.
	idle := p.Schema("IDLE")
	if idle == nil {
		t.Fatal("unaccessed-but-unmoved table dropped (information loss)")
	}
	if idle.Field("y") == nil {
		t.Error("unmoved field y dropped (information loss)")
	}
}

func TestFieldAndTableNaming(t *testing.T) {
	p := mustProg(t, courseware)
	st := p.Schema("STUDENT")
	if got := DstFieldName(st, "em_addr"); got != "st_em_addr" {
		t.Errorf("DstFieldName = %s, want st_em_addr", got)
	}
	if got := DstFieldName(st, "co_avail"); got != "st_co_avail" {
		t.Errorf("DstFieldName = %s, want st_co_avail", got)
	}
	if got := LogTableName(p, "COURSE", "co_st_cnt"); got != "COURSE_CO_ST_CNT_LOG" {
		t.Errorf("LogTableName = %s", got)
	}
	if got := LogFieldName("co_st_cnt"); got != "co_st_cnt_log" {
		t.Errorf("LogFieldName = %s", got)
	}
}
