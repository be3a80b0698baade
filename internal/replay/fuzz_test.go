package replay_test

import (
	"testing"

	"atropos/internal/anomaly"
	"atropos/internal/progen"
	"atropos/internal/replay"
)

// FuzzWitnessReplaySoundness drives the detect → extract → lower → replay
// pipeline over generator-derived programs under fuzzed seeds. Invariants:
//
//   - witnessed detection and certification never error or panic;
//   - a certified pair really is backed by a run — Certified ≤ Lowered ≤
//     Total, every reproduced outcome names its method, and every
//     non-reproduced one its reason (no certified-but-irreproducible pair);
//   - certification is deterministic: a second replay of the same report
//     reproduces exactly the same outcomes, trace lines included, and so
//     does certifying each pair alone on a fresh directed-run plan;
//   - the serial (SC) control never exhibits a violation — serial runs
//     order every dependency edge one way, so a cycle there would be a
//     soundness bug in the replayer's cycle check.
//
// The nightly CI job fuzzes this target for 30s per night
// (see .github/workflows/nightly.yml); `make fuzz` runs it locally.
func FuzzWitnessReplaySoundness(f *testing.F) {
	for seed := int64(0); seed < 8; seed++ {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		prog := progen.Program(seed)
		s := anomaly.NewSession(anomaly.EC)
		s.RecordWitnesses()
		rep, err := s.Detect(prog)
		if err != nil {
			t.Fatalf("seed %d: recording Detect: %v", seed, err)
		}
		cert := replay.Certify(prog, rep)
		if cert.Total != len(rep.Pairs) {
			t.Fatalf("seed %d: certificate covers %d pairs, report has %d", seed, cert.Total, len(rep.Pairs))
		}
		if cert.Certified > cert.Lowered || cert.Lowered > cert.Total {
			t.Fatalf("seed %d: incoherent counts certified=%d lowered=%d total=%d",
				seed, cert.Certified, cert.Lowered, cert.Total)
		}
		for i, out := range cert.Outcomes {
			if out.Reproduced && !out.Lowered {
				t.Fatalf("seed %d: pair %d certified without a lowered schedule", seed, i)
			}
			if out.Reproduced && out.Method == "" {
				t.Fatalf("seed %d: pair %d certified without naming its replay method", seed, i)
			}
			if !out.Reproduced && out.Reason == "" {
				t.Fatalf("seed %d: pair %d unreproduced without a reason", seed, i)
			}
		}
		// Determinism: replaying the same witnessed report again must land
		// on identical outcomes.
		again := replay.Certify(prog, rep)
		if again.Certified != cert.Certified || again.Lowered != cert.Lowered {
			t.Fatalf("seed %d: replay nondeterministic: %d/%d then %d/%d",
				seed, cert.Certified, cert.Lowered, again.Certified, again.Lowered)
		}
		// ... and so must certifying each pair alone: the directed-run plan
		// is the only state that outlives a pair within a certification.
		alone := certifyEachAlone(prog, rep)
		for i := range cert.Outcomes {
			want := outcomeText(cert.Outcomes[i])
			if got := outcomeText(again.Outcomes[i]); got != want {
				t.Fatalf("seed %d: pair %d outcome nondeterministic:\n%s then\n%s", seed, i, want, got)
			}
			if got := outcomeText(alone[i]); got != want {
				t.Fatalf("seed %d: pair %d outcome depends on the shared plan:\n%s alone\n%s", seed, i, want, got)
			}
		}
		// Serial control: replaying the lowered inputs serially (both
		// orders) must never exhibit a violation.
		rc := replay.CertifyRepair(prog, nil, rep, nil)
		if rc.SCViolations != 0 {
			t.Fatalf("seed %d: %d/%d serial replays exhibited a violation", seed, rc.SCViolations, rc.SCRuns)
		}
	})
}
