package anomaly_test

import (
	"reflect"
	"testing"

	"atropos/internal/anomaly"
	"atropos/internal/progen"
)

// FuzzDetectSessionEquivalence fuzzes the detector's core contract: a
// DetectSession must report byte-identical pairs to the cache-free
// reference on the same program, under every weak model — on its first
// pass and again from its caches. The nightly CI job runs this target
// (see .github/workflows/nightly.yml).
func FuzzDetectSessionEquivalence(f *testing.F) {
	f.Add(int64(0), uint8(0))
	f.Add(int64(1), uint8(1))
	f.Add(int64(2), uint8(2))
	f.Fuzz(func(t *testing.T, seed int64, modelByte uint8) {
		model := sessionModels[int(modelByte)%3]
		p := progen.Program(seed)
		fresh, err := anomaly.FreshDetect(p, model)
		if err != nil {
			t.Fatalf("seed %d %v: fresh Detect: %v", seed, model, err)
		}
		s := anomaly.NewSession(model)
		for _, pass := range []string{"cold", "warm"} {
			got, err := s.Detect(p)
			if err != nil {
				t.Fatalf("seed %d %v: %s session Detect: %v", seed, model, pass, err)
			}
			if !reflect.DeepEqual(fresh.Pairs, got.Pairs) || got.Queries != fresh.Queries {
				t.Fatalf("seed %d %v: %s session diverges from the fresh oracle (%d/%d queries):\nfresh %v\ngot   %v",
					seed, model, pass, got.Queries, fresh.Queries, fresh.Pairs, got.Pairs)
			}
		}
	})
}

// FuzzParallelDetectEquivalence fuzzes the parallel fast path's contract:
// over random progen programs, weak models and fan-out widths, a wavefront
// detection must report the same pairs from the same number of queries as
// the sequential cache-free reference. The nightly CI job runs this target
// alongside the others.
func FuzzParallelDetectEquivalence(f *testing.F) {
	f.Add(int64(0), uint8(0), uint8(2))
	f.Add(int64(1), uint8(1), uint8(4))
	f.Add(int64(2), uint8(2), uint8(8))
	f.Fuzz(func(t *testing.T, seed int64, modelByte, parByte uint8) {
		model := sessionModels[int(modelByte)%3]
		par := 2 + int(parByte)%7 // 2..8 workers
		p := progen.Program(seed)
		fresh, err := anomaly.FreshDetect(p, model)
		if err != nil {
			t.Fatalf("seed %d %v: fresh Detect: %v", seed, model, err)
		}
		s := anomaly.NewSession(model)
		s.SetParallelism(par)
		got, err := s.Detect(p)
		if err != nil {
			t.Fatalf("seed %d %v par=%d: wavefront Detect: %v", seed, model, par, err)
		}
		if got.Queries != fresh.Queries {
			t.Fatalf("seed %d %v par=%d: wavefront issued %d queries, fresh %d", seed, model, par, got.Queries, fresh.Queries)
		}
		if !reflect.DeepEqual(fresh.Pairs, got.Pairs) {
			t.Fatalf("seed %d %v par=%d: wavefront diverges:\nfresh %v\ngot   %v", seed, model, par, fresh.Pairs, got.Pairs)
		}
	})
}
