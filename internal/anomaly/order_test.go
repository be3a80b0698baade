package anomaly_test

import (
	"testing"

	"atropos/internal/anomaly"
	"atropos/internal/benchmarks"
)

// The experiment drivers diff detector output textually (Table 1 goldens,
// the repair goldens, the -analyze CLI), so Report.Pairs must come back in the
// same order — and render identically — whether the fresh reference or a
// session produced them.

func pairStrings(rep *anomaly.Report) []string {
	out := make([]string, len(rep.Pairs))
	for i, p := range rep.Pairs {
		out[i] = p.String()
	}
	return out
}

// TestReportOrderingAcrossEngines pins that fresh detection and a session
// report byte-identical pair sequences.
func TestReportOrderingAcrossEngines(t *testing.T) {
	for _, b := range []*benchmarks.Benchmark{benchmarks.SmallBank, benchmarks.TPCC} {
		prog := b.MustProgram()
		for _, model := range []anomaly.Model{anomaly.EC, anomaly.RR} {
			fresh, err := anomaly.FreshDetect(prog, model)
			if err != nil {
				t.Fatalf("%s/%s: Detect: %v", b.Name, model, err)
			}
			want := pairStrings(fresh)

			rep, err := anomaly.NewSession(model).Detect(prog)
			if err != nil {
				t.Fatalf("%s/%s: session: %v", b.Name, model, err)
			}
			got := pairStrings(rep)
			if len(got) != len(want) {
				t.Fatalf("%s/%s: session reported %d pairs, fresh %d",
					b.Name, model, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Errorf("%s/%s: session pair %d:\n got %s\nwant %s",
						b.Name, model, i, got[i], want[i])
				}
			}
		}
	}
}

// TestAccessPairStringGolden pins the exact rendering the drivers diff.
// Update deliberately, with the Table-1 goldens.
func TestAccessPairStringGolden(t *testing.T) {
	rep, err := anomaly.NewSession(anomaly.EC).Detect(benchmarks.SmallBank.MustProgram())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Pairs) == 0 {
		t.Fatal("no pairs detected")
	}
	const want = "depositChecking: (S1, [chk_bal], U1, [chk_bal]) [lost-update via depositChecking(U1,S1)]"
	if got := rep.Pairs[0].String(); got != want {
		t.Errorf("first SmallBank/EC pair rendered\n got %s\nwant %s", got, want)
	}
}
