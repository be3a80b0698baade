package anomaly

import (
	"context"
	"reflect"
	"testing"

	"atropos/internal/sat"
)

// budgeted is a one-shot sequential detection of prog under m with every
// solve bounded by b.
func budgeted(t *testing.T, prog string, m Model, record bool, b sat.Budget) *Report {
	t.Helper()
	rep, err := coldDetect(context.Background(), mustProg(t, prog), m, 1, record, b)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// TestDetectBudgetedHugeEquivalent is the degradation differential's easy
// half: a budget far above what any courseware solve needs must produce a
// report byte-identical to the unbudgeted detector's — same pairs, same
// query counters, nothing degraded.
func TestDetectBudgetedHugeEquivalent(t *testing.T) {
	huge := sat.Budget{Conflicts: 1 << 40, Propagations: 1 << 40, ArenaLits: 1 << 40}
	for _, m := range []Model{EC, CC, RR} {
		want := budgeted(t, courseware, m, false, sat.Budget{})
		got := budgeted(t, courseware, m, false, huge)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%v: huge-budget report differs from unbudgeted:\ngot  %+v\nwant %+v", m, got, want)
		}
		fresh, err := freshDetect(context.Background(), mustProg(t, courseware), m, false, huge)
		if err != nil {
			t.Fatal(err)
		}
		sameVerdict(t, m.String()+" huge budget", got, fresh)
	}
}

// TestDetectBudgetedZeroEquivalent: the zero budget is the documented
// off-switch — a session handed one must report exactly what a session
// never handed a budget does.
func TestDetectBudgetedZeroEquivalent(t *testing.T) {
	s := NewSession(EC)
	s.SetParallelism(1)
	want, err := s.Detect(mustProg(t, courseware))
	if err != nil {
		t.Fatal(err)
	}
	got := budgeted(t, courseware, EC, false, sat.Budget{})
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("zero-budget report differs from unbudgeted:\ngot  %+v\nwant %+v", got, want)
	}
}

// TestDetectBudgetedStarvedDegrades is the hard half: under a starvation
// budget the report must degrade soundly — flagged Degraded with the
// unresolved pairs enumerated, reported pairs a subset of the full
// verdict's (exhaustion removes answers, never invents them), and the
// whole outcome deterministic across runs.
func TestDetectBudgetedStarvedDegrades(t *testing.T) {
	full := budgeted(t, courseware, EC, false, sat.Budget{})
	starved := sat.Budget{Propagations: 1}
	got := budgeted(t, courseware, EC, false, starved)
	if !got.Degraded || got.Exhausted == 0 {
		t.Fatalf("starved detect not degraded: degraded=%v exhausted=%d", got.Degraded, got.Exhausted)
	}
	if got.Unknown != len(got.UnknownPairs) {
		t.Fatalf("Unknown=%d but %d UnknownPairs", got.Unknown, len(got.UnknownPairs))
	}
	if got.Unknown == 0 {
		t.Fatal("starved detect resolved every pair")
	}
	for _, p := range got.Pairs {
		if !hasPair(full, p.Txn, p.C1, p.C2) {
			t.Fatalf("starved detect invented pair %s(%s,%s) absent from the full verdict", p.Txn, p.C1, p.C2)
		}
	}
	again := budgeted(t, courseware, EC, false, starved)
	if !reflect.DeepEqual(got, again) {
		t.Fatalf("starved detection nondeterministic:\nrun1 %+v\nrun2 %+v", got, again)
	}
}

// TestSessionBudgetDegradedNotCached: a degraded detection must not poison
// the session's caches — lifting the budget and re-detecting the same
// program through the same session yields the full unbudgeted verdict.
func TestSessionBudgetDegradedNotCached(t *testing.T) {
	prog := mustProg(t, courseware)
	full, err := freshDetect(context.Background(), prog, EC, false, sat.Budget{})
	if err != nil {
		t.Fatal(err)
	}
	s := NewSession(EC)
	s.SetSolveBudget(sat.Budget{Propagations: 1})
	deg, err := s.DetectContext(context.Background(), prog)
	if err != nil {
		t.Fatal(err)
	}
	if !deg.Degraded {
		t.Fatal("setup: starved session detect not degraded")
	}
	s.SetSolveBudget(sat.Budget{})
	got, err := s.DetectContext(context.Background(), prog)
	if err != nil {
		t.Fatal(err)
	}
	if got.Degraded || got.Unknown != 0 {
		t.Fatalf("unbudgeted re-detect still degraded: %+v", got)
	}
	if len(got.Pairs) != len(full.Pairs) {
		t.Fatalf("re-detect found %d pairs, fresh detect %d — degraded results leaked into the cache",
			len(got.Pairs), len(full.Pairs))
	}
	for _, p := range full.Pairs {
		if !hasPair(got, p.Txn, p.C1, p.C2) {
			t.Fatalf("re-detect missing pair %s(%s,%s)", p.Txn, p.C1, p.C2)
		}
	}
}

// TestDetectWitnessedBudgetedDegrades: a witness-recording detection
// degrades the same way, and every pair it does report still carries its
// executable schedule.
func TestDetectWitnessedBudgetedDegrades(t *testing.T) {
	got := budgeted(t, courseware, EC, true, sat.Budget{Propagations: 1})
	if !got.Degraded {
		t.Fatal("starved witnessed detect not degraded")
	}
	for _, p := range got.Pairs {
		if p.Witness.Schedule == nil {
			t.Fatalf("reported pair %s(%s,%s) has no witness schedule", p.Txn, p.C1, p.C2)
		}
	}
}
