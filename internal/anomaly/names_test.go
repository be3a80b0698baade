package anomaly

import (
	"testing"
	"unsafe"

	"atropos/internal/ast"
	"atropos/internal/progen"
	"atropos/internal/sema"
)

// TestStoredNamesOwnNoSource: no name in a session's stored pairs lies
// inside the source text its program was parsed from, so a cached session
// does not pin the text of every program it detected — on progen
// 7 000 001–7 000 049 under EC, CC and RR. The parser does slice names
// from the source; the test checks that it still does, or it would check
// nothing.
func TestStoredNamesOwnNoSource(t *testing.T) {
	pairs := 0
	for seed := int64(7_000_001); seed <= 7_000_049; seed++ {
		src := ast.Format(progen.Program(seed))
		prog, err := sema.Load(src)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		lo := uintptr(unsafe.Pointer(unsafe.StringData(src)))
		inSource := func(name string) bool {
			p := uintptr(unsafe.Pointer(unsafe.StringData(name)))
			return name != "" && p >= lo && p < lo+uintptr(len(src))
		}
		if !inSource(prog.Txns[0].Name) {
			t.Fatalf("seed %d: transaction name %q is not sliced from the source", seed, prog.Txns[0].Name)
		}
		for _, model := range []Model{EC, CC, RR} {
			s := NewSession(model)
			if _, err := s.Detect(prog); err != nil {
				t.Fatalf("seed %d, %s: %v", seed, model, err)
			}
			for _, e := range s.txns {
				for _, p := range e.pairs {
					pairs++
					names := append([]string{p.Txn, p.C1, p.C2, p.Witness.Txn, p.Witness.D1, p.Witness.D2}, p.F1...)
					for _, name := range append(names, p.F2...) {
						if inSource(name) {
							t.Fatalf("seed %d, %s: stored pair %s holds %q inside the source", seed, model, p, name)
						}
					}
				}
			}
		}
	}
	if pairs == 0 {
		t.Fatal("no pair stored")
	}
	t.Logf("%d stored pairs", pairs)
}
