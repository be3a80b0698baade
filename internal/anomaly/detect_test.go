package anomaly

import (
	"testing"

	"atropos/internal/ast"
	"atropos/internal/parser"
	"atropos/internal/sema"
)

// courseware is the paper's running example (Fig. 1).
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

// refactored is the paper's Fig. 3: the Atropos output for courseware.
const refactored = `
table STUDENT {
  st_id: int key,
  st_name: string,
  st_em_id: int,
  st_em_addr: string,
  st_co_id: int,
  st_co_avail: bool,
  st_reg: bool,
}

table COURSE_CO_ST_CNT_LOG {
  co_id: int key,
  log_id: int key,
  co_st_cnt_log: int,
}

txn getSt(id: int) {
  x := select * from STUDENT where st_id = id;
  return x.st_em_addr;
}

txn setSt(id: int, name: string, email: string) {
  update STUDENT set st_name = name, st_em_addr = email where st_id = id;
}

txn regSt(id: int, course: int) {
  update STUDENT set st_co_id = course, st_co_avail = true, st_reg = true where st_id = id;
  insert into COURSE_CO_ST_CNT_LOG values (co_id = course, log_id = uuid(), co_st_cnt_log = 1);
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

func detect(t *testing.T, src string, m Model) *Report {
	t.Helper()
	r, err := NewSession(m).Detect(mustProg(t, src))
	if err != nil {
		t.Fatalf("Detect(%v): %v", m, err)
	}
	return r
}

func hasPair(r *Report, txn, c1, c2 string) bool {
	for _, p := range r.Pairs {
		if p.Txn == txn && ((p.C1 == c1 && p.C2 == c2) || (p.C1 == c2 && p.C2 == c1)) {
			return true
		}
	}
	return false
}

func TestCoursewareAnomaliesUnderEC(t *testing.T) {
	r := detect(t, courseware, EC)
	// The paper's §3.2/§5 examples: the non-repeatable read pairs in getSt
	// and setSt, and regSt's dirty read (U1,U3) and lost update (S1,U2)
	// (our labels: regSt has U1=student update, S1=count select, U2=course
	// update).
	if !hasPair(r, "getSt", "S1", "S2") {
		t.Error("missing getSt (S1,S2) non-repeatable read pair")
	}
	if !hasPair(r, "setSt", "U1", "U2") {
		t.Error("missing setSt (U1,U2) pair")
	}
	if !hasPair(r, "regSt", "U1", "U2") {
		t.Error("missing regSt (U1,U2) dirty-read pair")
	}
	if !hasPair(r, "regSt", "S1", "U2") {
		t.Error("missing regSt (S1,U2) lost-update pair")
	}
	if r.Count() == 0 {
		t.Fatal("no anomalies found in courseware under EC")
	}
	t.Logf("courseware EC anomalies: %d (queries: %d)", r.Count(), r.Queries)
	for _, p := range r.Pairs {
		t.Logf("  %s", p)
	}
}

func TestCoursewareCleanUnderSC(t *testing.T) {
	r := detect(t, courseware, SC)
	if r.Count() != 0 {
		t.Fatalf("SC reports %d anomalies, want 0:\n%v", r.Count(), r.Pairs)
	}
}

func TestLostUpdateKindAndWitness(t *testing.T) {
	r := detect(t, courseware, EC)
	found := false
	for _, p := range r.Pairs {
		if p.Txn == "regSt" && ((p.C1 == "S1" && p.C2 == "U2") || (p.C1 == "U2" && p.C2 == "S1")) {
			found = true
			if p.Kind != KindLostUpdate {
				t.Errorf("regSt (S1,U2) classified %s, want %s", p.Kind, KindLostUpdate)
			}
			if p.Witness.Txn == "" || p.Witness.D1 == "" {
				t.Error("witness not populated")
			}
		}
	}
	if !found {
		t.Fatal("regSt (S1,U2) not reported")
	}
}

func TestRefactoredProgramFixedUnderEC(t *testing.T) {
	r := detect(t, refactored, EC)
	if r.Count() != 0 {
		t.Fatalf("refactored courseware has %d anomalies under EC, want 0:\n%v", r.Count(), r.Pairs)
	}
}

func TestWeakerModelsBetweenECAndSC(t *testing.T) {
	ec := detect(t, courseware, EC).Count()
	cc := detect(t, courseware, CC).Count()
	rr := detect(t, courseware, RR).Count()
	sc := detect(t, courseware, SC).Count()
	if sc != 0 {
		t.Errorf("SC = %d, want 0", sc)
	}
	if cc > ec {
		t.Errorf("CC (%d) > EC (%d): CC must not add anomalies", cc, ec)
	}
	if rr > ec {
		t.Errorf("RR (%d) > EC (%d): RR must not add anomalies", rr, ec)
	}
	t.Logf("EC=%d CC=%d RR=%d SC=%d", ec, cc, rr, sc)
}

func TestReadOnlyProgramClean(t *testing.T) {
	src := `
table T { id: int key, n: int, }
txn r1(k: int) {
  x := select n from T where id = k;
  y := select n from T where id = k;
  return x.n + y.n;
}
txn r2(k: int) {
  x := select n from T where id = k;
  return x.n;
}
`
	r := detect(t, src, EC)
	if r.Count() != 0 {
		t.Fatalf("read-only program has %d anomalies:\n%v", r.Count(), r.Pairs)
	}
}

func TestDistinctConstantsNeverAlias(t *testing.T) {
	// The two commands operate on provably different records (distinct
	// constant keys), so no anomaly is possible.
	src := `
table T { id: int key, n: int, }
txn a() {
  x := select n from T where id = 1;
  update T set n = x.n + 1 where id = 1;
}
txn b() {
  y := select n from T where id = 2;
  update T set n = y.n + 1 where id = 2;
}
`
	r := detect(t, src, EC)
	for _, p := range r.Pairs {
		if (p.Txn == "a" && p.Witness.Txn == "b") || (p.Txn == "b" && p.Witness.Txn == "a") {
			t.Fatalf("cross-key anomaly reported: %s", p)
		}
	}
	// a racing with another instance of a IS anomalous (same key).
	if !hasPair(r, "a", "S1", "U1") {
		t.Error("self-race lost update on a not reported")
	}
}

func TestUUIDInsertsNeverConflict(t *testing.T) {
	// Append-only logging with uuid keys: concurrent inserts target
	// provably distinct records, so a write-only logger is anomaly-free.
	src := `
table LOG { k: int key, lid: int key, v: int, }
txn logIt(k: int, v: int) {
  insert into LOG values (k = k, lid = uuid(), v = v);
  insert into LOG values (k = k, lid = uuid(), v = v + 1);
}
`
	r := detect(t, src, EC)
	if r.Count() != 0 {
		t.Fatalf("logger program has %d anomalies:\n%v", r.Count(), r.Pairs)
	}
}

func TestSelectVsInsertPhantom(t *testing.T) {
	// A transaction that reads an aggregate over a log table twice can see
	// different phantom sets: anomalous with the inserter.
	src := `
table LOG { k: int key, lid: int key, v: int, }
txn audit(k: int) {
  x := select v from LOG where k = k;
  y := select v from LOG where k = k;
  return sum(x.v) - sum(y.v);
}
txn logIt(k: int, v: int) {
  insert into LOG values (k = k, lid = uuid(), v = v);
  insert into LOG values (k = k, lid = uuid(), v = 0 - v);
}
`
	r := detect(t, src, EC)
	if !hasPair(r, "audit", "S1", "S2") {
		t.Error("phantom non-repeatable read between selects and inserts not reported")
	}
	if !hasPair(r, "logIt", "U1", "U2") {
		t.Error("fractured visibility of the two inserts not reported")
	}
}

func TestDirtyReadClassification(t *testing.T) {
	r := detect(t, courseware, EC)
	for _, p := range r.Pairs {
		if p.Txn == "setSt" && ((p.C1 == "U1" && p.C2 == "U2") || (p.C1 == "U2" && p.C2 == "U1")) {
			if p.Kind != KindDirtyRead {
				t.Errorf("setSt (U1,U2) kind = %s, want %s (both writes)", p.Kind, KindDirtyRead)
			}
			return
		}
	}
	t.Fatal("setSt (U1,U2) not reported")
}

func TestDetectDeterministic(t *testing.T) {
	a := detect(t, courseware, EC)
	b := detect(t, courseware, EC)
	if a.Count() != b.Count() {
		t.Fatalf("nondeterministic counts: %d vs %d", a.Count(), b.Count())
	}
	for i := range a.Pairs {
		if a.Pairs[i].Txn != b.Pairs[i].Txn || a.Pairs[i].C1 != b.Pairs[i].C1 || a.Pairs[i].C2 != b.Pairs[i].C2 {
			t.Fatalf("nondeterministic pair %d: %v vs %v", i, a.Pairs[i], b.Pairs[i])
		}
	}
}

// TestRRKillsRepeatedReadPair: two reads of the same field in one
// transaction racing a single writer form a non-repeatable read under EC;
// the paper's repeatable read fixes exactly this snapshot-stability
// pattern (§7.1 measured 5–16% reductions of this kind).
func TestRRKillsRepeatedReadPair(t *testing.T) {
	src := `
table T { id: int key, n: int, }
txn readTwice(k: int) {
  x := select n from T where id = k;
  y := select n from T where id = k;
  return x.n - y.n;
}
txn bump(k: int, v: int) {
  update T set n = v where id = k;
}
`
	ec := detect(t, src, EC)
	if !hasPair(ec, "readTwice", "S1", "S2") {
		t.Fatal("EC misses the non-repeatable read")
	}
	rr := detect(t, src, RR)
	if hasPair(rr, "readTwice", "S1", "S2") {
		t.Fatal("RR still reports the repeated-read pair; snapshot stability broken")
	}
	if rr.Count() >= ec.Count() {
		t.Errorf("RR count %d not below EC count %d", rr.Count(), ec.Count())
	}
}

// TestRRKeepsLostUpdate: repeatable read famously does not prevent lost
// updates (no first-committer-wins): the increment race must survive RR.
func TestRRKeepsLostUpdate(t *testing.T) {
	src := `
table T { id: int key, n: int, }
txn inc(k: int) {
  x := select n from T where id = k;
  update T set n = x.n + 1 where id = k;
}
`
	rr := detect(t, src, RR)
	if !hasPair(rr, "inc", "S1", "U1") {
		t.Fatal("RR eliminated the lost update; it must not")
	}
}

// TestCCKeepsFracturedRead: causal consistency gives no transaction
// isolation, so the fractured read of a two-table writer survives CC
// (the paper found CC ineffective on nearly every benchmark).
func TestCCKeepsFracturedRead(t *testing.T) {
	src := `
table A { a_id: int key, a_n: int, }
table B { b_id: int key, b_n: int, }
txn readBoth(k: int) {
  x := select a_n from A where a_id = k;
  y := select b_n from B where b_id = k;
  return x.a_n + y.b_n;
}
txn writeBoth(k: int, v: int) {
  update A set a_n = v where a_id = k;
  update B set b_n = v where b_id = k;
}
`
	cc := detect(t, src, CC)
	if !hasPair(cc, "readBoth", "S1", "S2") {
		t.Fatal("CC eliminated the fractured read; causal delivery should not isolate transactions")
	}
}

// TestMultiKeyAliasing: composite primary keys alias only when every
// jointly pinned field can be equal.
func TestMultiKeyAliasing(t *testing.T) {
	src := `
table T { a: int key, b: int key, n: int, }
txn one(k: int) {
  x := select n from T where a = 1 && b = k;
  update T set n = x.n + 1 where a = 1 && b = k;
}
txn two(k: int) {
  x := select n from T where a = 2 && b = k;
  update T set n = x.n + 1 where a = 2 && b = k;
}
`
	r := detect(t, src, EC)
	for _, p := range r.Pairs {
		if (p.Txn == "one" && p.Witness.Txn == "two") || (p.Txn == "two" && p.Witness.Txn == "one") {
			t.Fatalf("pair witnessed across provably distinct composite keys: %s", p)
		}
	}
	// Each transaction still races its own twin.
	if !hasPair(r, "one", "S1", "U1") || !hasPair(r, "two", "S1", "U1") {
		t.Error("self-races missing")
	}
}

// TestCommandsInsideIterate: commands under iterate participate in
// detection (bounded to one iteration).
func TestCommandsInsideIterate(t *testing.T) {
	src := `
table T { id: int key, n: int, }
txn loopInc(k: int, times: int) {
  iterate (times) {
    x := select n from T where id = k;
    update T set n = x.n + 1 where id = k;
  }
}
`
	r := detect(t, src, EC)
	if !hasPair(r, "loopInc", "S1", "U1") {
		t.Fatal("anomaly inside iterate body missed")
	}
}
