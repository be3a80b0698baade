package replay_test

import (
	"context"
	"testing"

	"atropos/internal/anomaly"
	"atropos/internal/corpus"
	"atropos/internal/replay"
)

// TestCertifiedGolden replays witness certificates for all nine benchmarks
// under EC/CC/RR and checks them against the total, certified and outcomes
// columns of the golden table (internal/corpus/testdata/cells.tsv), the
// ≥95% reproduction floor, and that every detected pair's witness lowered
// into a runnable schedule.
//
// The one pair that never reproduces is SmallBank writeCheck (U1, U2):
// its two commands sit on mutually exclusive branches of the same guard,
// so no single execution can run both — an honest over-approximation of
// the static encoding (DESIGN.md §11).
func TestCertifiedGolden(t *testing.T) {
	golden, err := corpus.Golden()
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range corpus.Benchmarks() {
		for _, model := range []anomaly.Model{anomaly.EC, anomaly.CC, anomaly.RR} {
			cell := b.Name + "/" + model.String()
			cert, rep, err := replay.CertifyModelContext(context.Background(), b.Prog, model)
			if err != nil {
				t.Fatalf("%s: %v", cell, err)
			}
			w := golden[cell]
			if cert.Total != len(rep.Pairs) {
				t.Errorf("%s: certificate covers %d pairs, report has %d", cell, cert.Total, len(rep.Pairs))
			}
			if cert.Total != w.Int("total") || cert.Certified != w.Int("certified") {
				t.Errorf("%s: certified %d/%d, golden %d/%d",
					cell, cert.Certified, cert.Total, w.Int("certified"), w.Int("total"))
			}
			if got := outcomesHash(cert); got != w.Uint("outcomes") {
				t.Errorf("%s: outcomes hash %#016x, golden %#016x", cell, got, w.Uint("outcomes"))
			}
			if cert.Lowered != cert.Total {
				t.Errorf("%s: only %d/%d witnesses lowered into runnable schedules", cell, cert.Lowered, cert.Total)
			}
			if cert.Rate() < 0.95 {
				t.Errorf("%s: reproduction rate %.2f below the 0.95 floor", cell, cert.Rate())
			}
		}
	}
}
