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
// pass, again from its caches, through an edit: transaction k dropped,
// then restored, with its schemas reordered behind a new first table,
// where every query hits the query memo and the report misses, and then with
// another transaction dropped, where plans read back facts built under
// other table indices. Each program is detected twice, the second time
// from the report memo. The nightly CI job runs this target (see
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
		}{{"cold", p}, {"warm", p}, {"edited", without(p, k)}, {"restored", p},
			{"schemas reordered", reordered(p)},
			{"schemas reordered, txn dropped", without(reordered(p), (k+1)%len(p.Txns))}} {
			// The second detection of each is answered from the report memo.
			for range 2 {
				got, err := s.Detect(pass.prog)
				if err != nil {
					t.Fatalf("seed %d %v: %s session Detect: %v", seed, model, pass.name, err)
				}
				sameAsFresh(t, fmt.Sprintf("seed %d %v %s (txn %d)", seed, model, pass.name, k), pass.prog, model, got)
			}
		}
	})
}
