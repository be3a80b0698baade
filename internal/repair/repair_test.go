package repair

import (
	"strings"
	"testing"

	"atropos/internal/anomaly"
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

// TestRepairCoursewareMatchesFig3 is the paper's worked example end to end:
// Atropos turns Fig. 1 into Fig. 3.
func TestRepairCoursewareMatchesFig3(t *testing.T) {
	prog := mustProg(t, courseware)
	res, err := repairProg(prog, anomaly.EC)
	if err != nil {
		t.Fatalf("Repair: %v", err)
	}
	out := res.Program
	t.Logf("steps:\n  %s", strings.Join(res.Steps, "\n  "))
	t.Logf("repaired program:\n%s", ast.Format(out))
	if err := sema.Check(out); err != nil {
		t.Fatalf("repaired program ill-typed: %v", err)
	}

	// All anomalies eliminated (paper Table 1: Courseware EC=5, AT=0).
	if len(res.Remaining) != 0 {
		t.Fatalf("remaining anomalies: %v", res.Remaining)
	}
	if len(res.Initial) == 0 {
		t.Fatal("no initial anomalies detected")
	}

	// Schema shape of Fig. 3: STUDENT absorbed the email address and the
	// course availability; COURSE and EMAIL are gone; a logging table holds
	// the enrollment counter.
	st := out.Schema("STUDENT")
	if st == nil {
		t.Fatal("STUDENT missing")
	}
	if st.Field("st_em_addr") == nil {
		t.Error("STUDENT.st_em_addr missing")
	}
	if st.Field("st_co_avail") == nil {
		t.Error("STUDENT.st_co_avail missing")
	}
	if out.Schema("EMAIL") != nil {
		t.Error("EMAIL not dropped")
	}
	if out.Schema("COURSE") != nil {
		t.Error("COURSE not dropped")
	}
	logSchema := out.Schema("COURSE_CO_ST_CNT_LOG")
	if logSchema == nil {
		t.Fatal("COURSE_CO_ST_CNT_LOG missing")
	}
	if logSchema.Field("co_st_cnt_log") == nil {
		t.Error("log value field missing")
	}

	// Transaction shapes of Fig. 3.
	getSt := ast.Commands(out.Txn("getSt").Body)
	if len(getSt) != 1 {
		t.Errorf("getSt has %d commands, want 1 select", len(getSt))
	} else if _, ok := getSt[0].(*ast.Select); !ok {
		t.Errorf("getSt command is %T", getSt[0])
	}
	setSt := ast.Commands(out.Txn("setSt").Body)
	if len(setSt) != 1 {
		t.Errorf("setSt has %d commands, want 1 update", len(setSt))
	} else if _, ok := setSt[0].(*ast.Update); !ok {
		t.Errorf("setSt command is %T", setSt[0])
	}
	regSt := ast.Commands(out.Txn("regSt").Body)
	if len(regSt) != 2 {
		t.Errorf("regSt has %d commands, want update + insert", len(regSt))
	} else {
		if _, ok := regSt[0].(*ast.Update); !ok {
			t.Errorf("regSt[0] is %T, want update", regSt[0])
		}
		if ins, ok := regSt[1].(*ast.Insert); !ok {
			t.Errorf("regSt[1] is %T, want insert", regSt[1])
		} else if ins.Table != "COURSE_CO_ST_CNT_LOG" {
			t.Errorf("regSt insert targets %s", ins.Table)
		}
	}

	// Value correspondences were recorded.
	if len(res.Corrs) == 0 {
		t.Error("no correspondences recorded")
	}
	// Nothing needs serializability any more.
	if len(res.SerializableTxns) != 0 {
		t.Errorf("serializable txns = %v, want none", res.SerializableTxns)
	}
}

func TestRepairIdempotentOnCleanProgram(t *testing.T) {
	src := `
table T { id: int key, a: int, }
txn rd(k: int) {
  x := select a from T where id = k;
  return x.a;
}
`
	prog := mustProg(t, src)
	res, err := repairProg(prog, anomaly.EC)
	if err != nil {
		t.Fatalf("Repair: %v", err)
	}
	if len(res.Initial) != 0 || len(res.Remaining) != 0 {
		t.Fatalf("clean program reported anomalies: %v", res.Initial)
	}
	if len(res.Corrs) != 0 {
		t.Error("clean program got correspondences")
	}
}

func TestRepairLostUpdateViaLogging(t *testing.T) {
	src := `
table ACC { id: int key, bal: int, }
txn deposit(k: int, amt: int) {
  x := select bal from ACC where id = k;
  update ACC set bal = x.bal + amt where id = k;
}
`
	prog := mustProg(t, src)
	res, err := repairProg(prog, anomaly.EC)
	if err != nil {
		t.Fatalf("Repair: %v", err)
	}
	if len(res.Remaining) != 0 {
		t.Fatalf("remaining: %v\n%s", res.Remaining, ast.Format(res.Program))
	}
	if res.Program.Schema("ACC_BAL_LOG") == nil {
		t.Fatalf("no logging schema introduced:\n%s", ast.Format(res.Program))
	}
	cmds := ast.Commands(res.Program.Txn("deposit").Body)
	if len(cmds) != 1 {
		t.Fatalf("deposit has %d commands, want 1 insert", len(cmds))
	}
	if _, ok := cmds[0].(*ast.Insert); !ok {
		t.Fatalf("deposit command is %T, want insert", cmds[0])
	}
}

func TestRepairPreservesReadersOfLoggedField(t *testing.T) {
	// A reader aggregates the logged field: it must be rewritten to
	// sum over the log, not removed.
	src := `
table ACC { id: int key, bal: int, }
txn deposit(k: int, amt: int) {
  x := select bal from ACC where id = k;
  update ACC set bal = x.bal + amt where id = k;
}
txn balance(k: int) {
  x := select bal from ACC where id = k;
  return x.bal;
}
`
	prog := mustProg(t, src)
	res, err := repairProg(prog, anomaly.EC)
	if err != nil {
		t.Fatalf("Repair: %v", err)
	}
	if err := sema.Check(res.Program); err != nil {
		t.Fatalf("ill-typed: %v\n%s", err, ast.Format(res.Program))
	}
	bal := res.Program.Txn("balance")
	cmds := ast.Commands(bal.Body)
	if len(cmds) != 1 {
		t.Fatalf("balance has %d commands", len(cmds))
	}
	sel := cmds[0].(*ast.Select)
	if sel.Table != "ACC_BAL_LOG" {
		t.Fatalf("balance reads %s, want ACC_BAL_LOG:\n%s", sel.Table, ast.Format(res.Program))
	}
	if got := ast.ExprString(bal.Ret); !strings.Contains(got, "sum(") {
		t.Fatalf("balance return = %s, want sum aggregation", got)
	}
}

func TestRepairUnfixableAbsoluteWrite(t *testing.T) {
	// An absolute (non-increment) read-modify-write on a single field
	// cannot be merged or logged: it must be reported as remaining.
	src := `
table ACC { id: int key, bal: int, cap: int, }
txn clamp(k: int) {
  x := select bal from ACC where id = k;
  if (x.bal > 100) {
    update ACC set bal = 100 where id = k;
  }
}
`
	prog := mustProg(t, src)
	res, err := repairProg(prog, anomaly.EC)
	if err != nil {
		t.Fatalf("Repair: %v", err)
	}
	if len(res.Remaining) == 0 {
		t.Fatalf("absolute RMW write reported as repaired:\n%s", ast.Format(res.Program))
	}
	if len(res.SerializableTxns) != 1 || res.SerializableTxns[0] != "clamp" {
		t.Fatalf("serializable txns = %v, want [clamp]", res.SerializableTxns)
	}
}

func TestRepairSplitsMultiFieldUpdate(t *testing.T) {
	// regSt's U2 sets both co_st_cnt and co_avail; preprocessing must
	// split it (Fig. 11).
	prog := mustProg(t, courseware)
	res, err := repairProg(prog, anomaly.EC)
	if err != nil {
		t.Fatalf("Repair: %v", err)
	}
	foundSplit := false
	for _, s := range res.Steps {
		if strings.Contains(s, "split regSt.U2") {
			foundSplit = true
		}
	}
	if !foundSplit {
		t.Errorf("no split step recorded:\n%s", strings.Join(res.Steps, "\n"))
	}
}

func TestRepairedProgramStillRepairsToItself(t *testing.T) {
	// Repair is idempotent: repairing the repaired courseware changes
	// nothing.
	prog := mustProg(t, courseware)
	res1, err := repairProg(prog, anomaly.EC)
	if err != nil {
		t.Fatal(err)
	}
	res2, err := repairProg(res1.Program, anomaly.EC)
	if err != nil {
		t.Fatal(err)
	}
	if len(res2.Initial) != 0 {
		t.Fatalf("repaired program still has %d anomalies", len(res2.Initial))
	}
	if ast.Format(res2.Program) != ast.Format(res1.Program) {
		t.Errorf("second repair changed the program:\n--- first ---\n%s\n--- second ---\n%s",
			ast.Format(res1.Program), ast.Format(res2.Program))
	}
}

// TestDeriveThetaPicksFirstPinInClauseOrder: when two key fields of the
// destination are pinned by expressions equal to the source's pin, pattern
// (c) maps the source key to the first of them in clause order — zb here,
// though ya sorts and is declared first — on every run.
func TestDeriveThetaPicksFirstPinInClauseOrder(t *testing.T) {
	prog := mustProg(t, `
table DST {
  ya: int key,
  zb: int key,
  v: int,
}
table SRC {
  id: int key,
  w: int,
}
txn T(k: int) {
  x := select v from DST where zb = k && ya = k;
  y := select w from SRC where id = k;
  return x.v + y.w;
}`)
	txn := prog.Txn("T")
	c1, c2 := ast.FindCommand(txn, "S1"), ast.FindCommand(txn, "S2")
	for run := range 100 {
		theta, err := deriveTheta(prog, txn, c1, c2, prog.Schema("SRC"), prog.Schema("DST"))
		if err != nil {
			t.Fatal(err)
		}
		if theta["id"] != "zb" {
			t.Fatalf("run %d: θ̂(id) = %q, want zb (the first pin in clause order)", run, theta["id"])
		}
	}
}
