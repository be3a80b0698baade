package replay_test

import (
	"context"
	"testing"

	"atropos/internal/anomaly"
	"atropos/internal/benchmarks"
	"atropos/internal/replay"
)

// Differential-oracle golden: the exact per-benchmark certificate counts
// for every benchmark × weak model. Like the Table-1 golden, these pin the
// current behavior — update deliberately when the detector, the lowering,
// or a benchmark changes, never to paper over a regression.
//
// The one pair that never reproduces is SmallBank writeCheck (U1, U2):
// its two commands sit on mutually exclusive branches of the same guard,
// so no single execution can run both — an honest over-approximation of
// the static encoding (DESIGN.md §11).

type certCounts struct {
	total, certified int
	// outcomes is outcomesHash of the certificate (outcomes_test.go),
	// recorded on the clone-per-command replayer this one replaced.
	outcomes uint64
}

var certGolden = map[string]map[anomaly.Model]certCounts{
	"TPC-C":      {anomaly.EC: {123, 123, 0xa9f272fb4bb5dda}, anomaly.CC: {123, 123, 0xf22d1f549cc0fb08}, anomaly.RR: {123, 123, 0xd7e0a29cbb6d30f0}},
	"SEATS":      {anomaly.EC: {38, 38, 0x990776a5e4c327aa}, anomaly.CC: {38, 38, 0x3aef5f6716b9b5f4}, anomaly.RR: {38, 38, 0x12d06fdd1b2e445e}},
	"Courseware": {anomaly.EC: {10, 10, 0x9489cebe761afd9c}, anomaly.CC: {10, 10, 0x99891d2cc0a28624}, anomaly.RR: {10, 10, 0x84a05e5b86e7313a}},
	"SmallBank":  {anomaly.EC: {32, 31, 0xfb37ea405db1f8cc}, anomaly.CC: {32, 31, 0xf27e3c985128c4c7}, anomaly.RR: {31, 30, 0xaa9b35b6e0b7fe3d}},
	"Twitter":    {anomaly.EC: {11, 11, 0xf8fe5ba03bf9cf19}, anomaly.CC: {11, 11, 0xf8850e4f7c21bbfd}, anomaly.RR: {11, 11, 0xaa0074797b2289e}},
	"FMKe":       {anomaly.EC: {23, 23, 0xa98e123ef9fed1a6}, anomaly.CC: {23, 23, 0x6c87bb467344e198}, anomaly.RR: {23, 23, 0x4fc7ba8a2c9c6dd}},
	"SIBench":    {anomaly.EC: {1, 1, 0x98861880f396034}, anomaly.CC: {1, 1, 0x98861880f396034}, anomaly.RR: {1, 1, 0x98861880f396034}},
	"Wikipedia":  {anomaly.EC: {29, 29, 0xa6fa318c0adcbb60}, anomaly.CC: {29, 29, 0xe248486cdd00f21c}, anomaly.RR: {29, 29, 0xfbaa43bca81fc68}},
	"Killrchat":  {anomaly.EC: {13, 13, 0xd09f620d8d2104bb}, anomaly.CC: {13, 13, 0x77d472b9036d1d7b}, anomaly.RR: {13, 13, 0x13330c2ed0dbe1a5}},
}

// TestCertifiedGolden replays witness certificates for all nine benchmarks
// under EC/CC/RR and pins the exact counts, the ≥95% reproduction floor,
// and that every detected pair's witness lowered into a runnable schedule.
func TestCertifiedGolden(t *testing.T) {
	for _, b := range benchmarks.All() {
		want, ok := certGolden[b.Name]
		if !ok {
			t.Errorf("%s: benchmark missing from certGolden — add its counts", b.Name)
			continue
		}
		prog := b.MustProgram()
		for _, model := range []anomaly.Model{anomaly.EC, anomaly.CC, anomaly.RR} {
			cert, rep, err := replay.CertifyModelContext(context.Background(), prog, model)
			if err != nil {
				t.Fatalf("%s/%s: %v", b.Name, model, err)
			}
			w := want[model]
			if cert.Total != len(rep.Pairs) {
				t.Errorf("%s/%s: certificate covers %d pairs, report has %d",
					b.Name, model, cert.Total, len(rep.Pairs))
			}
			if cert.Total != w.total || cert.Certified != w.certified {
				t.Errorf("%s/%s: certified %d/%d, golden %d/%d",
					b.Name, model, cert.Certified, cert.Total, w.certified, w.total)
			}
			if got := outcomesHash(cert); got != w.outcomes {
				t.Errorf("%s/%s: outcomes hash %#x, golden %#x", b.Name, model, got, w.outcomes)
			}
			if cert.Lowered != cert.Total {
				t.Errorf("%s/%s: only %d/%d witnesses lowered into runnable schedules",
					b.Name, model, cert.Lowered, cert.Total)
			}
			if cert.Rate() < 0.95 {
				t.Errorf("%s/%s: reproduction rate %.2f below the 0.95 floor",
					b.Name, model, cert.Rate())
			}
		}
	}
}
