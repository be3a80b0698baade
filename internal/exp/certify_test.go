package exp

import (
	"strings"
	"testing"

	"atropos/internal/anomaly"
	"atropos/internal/benchmarks"
	"atropos/internal/corpus"
	"atropos/internal/replay"
)

// TestCertifyDriver runs the three steps of `atropos-exp -exp certify` on
// SmallBank: the grid matches the total, lowered and certified columns of
// the golden table (internal/corpus/testdata/cells.tsv), the negative
// controls replay no violation and the gate passes both; then the gate
// must flag a row under its floor, a benchmark with nothing replayed and
// a negative control with a violation.
func TestCertifyDriver(t *testing.T) {
	golden, err := corpus.Golden()
	if err != nil {
		t.Fatal(err)
	}
	smallBank := []*benchmarks.Benchmark{benchmarks.SmallBank}
	rows, err := CertifyGrid(smallBank)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(CertModels) {
		t.Fatalf("%d rows, want one per model in %v", len(rows), CertModels)
	}
	for i, r := range rows {
		cell := r.Benchmark + "/" + r.Model.String()
		w := golden[cell]
		if r.Model != CertModels[i] || r.Total != w.Int("total") || r.Lowered != w.Int("lowered") || r.Certified != w.Int("certified") {
			t.Errorf("row %d: %s %d/%d/%d, golden %d/%d/%d (total/lowered/certified)", i, cell,
				r.Total, r.Lowered, r.Certified, w.Int("total"), w.Int("lowered"), w.Int("certified"))
		}
	}
	negs, err := CertifyNegatives(smallBank)
	if err != nil {
		t.Fatal(err)
	}
	if len(negs) != 1 || negs[0].Benchmark != "SmallBank" {
		t.Fatalf("negative controls %+v, want one for SmallBank", negs)
	}
	if c := negs[0].Cert; c.SCRuns == 0 || c.SCViolations != 0 || c.RepairedViolations != 0 || len(c.Errors) != 0 {
		t.Errorf("SmallBank negative controls: %d/%d SC, %d/%d repaired violations, errors %q; want runs and no violation",
			c.SCViolations, c.SCRuns, c.RepairedViolations, c.RepairedRuns, c.Errors)
	}
	if fails := CertifyGate(rows, negs); len(fails) != 0 {
		t.Errorf("gate fails SmallBank: %q", fails)
	}
	if text := FormatCertify(rows) + FormatCertifyNegatives(negs); strings.Count(text, "SmallBank") != len(rows)+1 {
		t.Errorf("rendered tables name SmallBank %d times, want %d:\n%s", strings.Count(text, "SmallBank"), len(rows)+1, text)
	}

	low := CertifyRow{Benchmark: "Low", Model: anomaly.EC, Total: 20, Lowered: 20, Certified: 18}
	empty := CertifyRow{Benchmark: "Empty", Model: anomaly.EC}
	violated := CertifyNegative{Benchmark: "Violated", Cert: &replay.RepairCertificate{SCRuns: 4, SCViolations: 1}}
	fails := CertifyGate(append(rows, low, empty), append(negs, violated))
	want := []string{
		"Low/EC: reproduction rate 90% below 95% (18/20)",
		"Empty: no replayed schedule under any model (vacuous certificate)",
		"Violated: 1/4 serial (SC) replays exhibited a violation",
	}
	if strings.Join(fails, "\n") != strings.Join(want, "\n") {
		t.Errorf("gate failures:\n%s\nwant:\n%s", strings.Join(fails, "\n"), strings.Join(want, "\n"))
	}
}
