package anomaly_test

import (
	"fmt"
	"testing"

	"atropos/internal/anomaly"
	"atropos/internal/ast"
	"atropos/internal/progen"
)

// FuzzDetectSessionEquivalence fuzzes the detector's core contract: a
// DetectSession must report byte-identical pairs to the cache-free
// reference on the same program, under every weak model — on its first
// pass, again from its caches, and through an edit: transaction k dropped,
// then restored, where restoring answers from bodies the session never
// rebuilt. The nightly CI job runs this target (see
// .github/workflows/nightly.yml).
func FuzzDetectSessionEquivalence(f *testing.F) {
	f.Add(int64(0), uint8(0), uint8(0))
	f.Add(int64(1), uint8(1), uint8(1))
	f.Add(int64(2), uint8(2), uint8(2))
	f.Fuzz(func(t *testing.T, seed int64, modelByte, editByte uint8) {
		model := sessionModels[int(modelByte)%3]
		p := progen.Program(seed)
		k := int(editByte) % len(p.Txns)
		s := anomaly.NewSession(model)
		for _, pass := range []struct {
			name string
			prog *ast.Program
		}{{"cold", p}, {"warm", p}, {"edited", without(p, k)}, {"restored", p}} {
			got, err := s.Detect(pass.prog)
			if err != nil {
				t.Fatalf("seed %d %v: %s session Detect: %v", seed, model, pass.name, err)
			}
			sameAsFresh(t, fmt.Sprintf("seed %d %v %s (txn %d)", seed, model, pass.name, k), pass.prog, model, got)
		}
	})
}
