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
	// recorded on the small model's canonical witness schedules (the SAT
	// solver's models certified the same pairs with other schedules).
	outcomes uint64
}

var certGolden = map[string]map[anomaly.Model]certCounts{
	"TPC-C":      {anomaly.EC: {123, 123, 0xd235c6751feedb4e}, anomaly.CC: {123, 123, 0xd235c6751feedb4e}, anomaly.RR: {123, 123, 0x9335bea4f1b58791}},
	"SEATS":      {anomaly.EC: {38, 38, 0x2632cf00e94a2047}, anomaly.CC: {38, 38, 0x2632cf00e94a2047}, anomaly.RR: {38, 38, 0x64abdc7dddaab27}},
	"Courseware": {anomaly.EC: {10, 10, 0x9f3b5f44f33d292c}, anomaly.CC: {10, 10, 0x9f3b5f44f33d292c}, anomaly.RR: {10, 10, 0x3c098ae4f31630da}},
	"SmallBank":  {anomaly.EC: {32, 31, 0x67910477387db356}, anomaly.CC: {32, 31, 0x67910477387db356}, anomaly.RR: {31, 30, 0xf671cbe6179d058e}},
	"Twitter":    {anomaly.EC: {11, 11, 0x2d3870ec13f0b02f}, anomaly.CC: {11, 11, 0x2d3870ec13f0b02f}, anomaly.RR: {11, 11, 0x3b0dfb6b571df7a6}},
	"FMKe":       {anomaly.EC: {23, 23, 0x1ae55a03559808d7}, anomaly.CC: {23, 23, 0x1ae55a03559808d7}, anomaly.RR: {23, 23, 0x8298212b441e2c3}},
	"SIBench":    {anomaly.EC: {1, 1, 0x98861880f396034}, anomaly.CC: {1, 1, 0x98861880f396034}, anomaly.RR: {1, 1, 0x98861880f396034}},
	"Wikipedia":  {anomaly.EC: {29, 29, 0x38eda9ea8057e157}, anomaly.CC: {29, 29, 0x38eda9ea8057e157}, anomaly.RR: {29, 29, 0x214a05e17c3911d3}},
	"Killrchat":  {anomaly.EC: {13, 13, 0x4cfd09388e09ba75}, anomaly.CC: {13, 13, 0x4cfd09388e09ba75}, anomaly.RR: {13, 13, 0x15c88c371c8793c3}},
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
