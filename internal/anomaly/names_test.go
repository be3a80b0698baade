package anomaly

import (
	"testing"
	"unsafe"

	"atropos/internal/ast"
	"atropos/internal/progen"
	"atropos/internal/sema"
)

// TestStoredNamesOwnNoSource: no name a session keeps — in its stored
// pairs, in its cached facts (transaction names and command labels), or in
// its layouts (field names) — lies inside the source text its program was
// parsed from, so a cached session does not pin the text of every program
// it detected — on progen 7 000 001–7 000 049 under EC, CC and RR. The
// parser does slice names from the source (a declaration its memo already
// held, from the source that declared it first, which may be another
// test's); the test checks that it still does, or it would check nothing.
func TestStoredNamesOwnNoSource(t *testing.T) {
	pairs, facts, fields := 0, 0, 0
	var sliced [2]int // transaction and field names sliced from srcs
	var srcs []string
	inSource := func(name string) bool {
		p := uintptr(unsafe.Pointer(unsafe.StringData(name)))
		for _, src := range srcs {
			lo := uintptr(unsafe.Pointer(unsafe.StringData(src)))
			if name != "" && p >= lo && p < lo+uintptr(len(src)) {
				return true
			}
		}
		return false
	}
	for seed := int64(7_000_001); seed <= 7_000_049; seed++ {
		src := ast.Format(progen.Program(seed))
		srcs = append(srcs, src)
		prog, err := sema.Load(src)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for _, txn := range prog.Txns {
			if inSource(txn.Name) {
				sliced[0]++
			}
		}
		for _, schema := range prog.Schemas {
			for _, f := range schema.Fields {
				if inSource(f.Name) {
					sliced[1]++
				}
			}
		}
		for _, model := range []Model{EC, CC, RR} {
			s := NewSession(model)
			if _, err := s.Detect(prog); err != nil {
				t.Fatalf("seed %d, %s: %v", seed, model, err)
			}
			for _, e := range s.reports {
				for _, p := range e.pairs {
					pairs++
					names := append([]string{p.Txn, p.C1, p.C2, p.Witness.Txn, p.Witness.D1, p.Witness.D2}, p.F1...)
					for _, name := range append(names, p.F2...) {
						if inSource(name) {
							t.Fatalf("seed %d, %s: stored pair %s holds %q inside a source", seed, model, p, name)
						}
					}
				}
			}
			for _, tf := range s.facts {
				facts++
				names := []string{tf.name}
				for _, c := range tf.cmds {
					names = append(names, c.label)
				}
				for _, name := range names {
					if inSource(name) {
						t.Fatalf("seed %d, %s: cached facts of %s hold %q inside a source", seed, model, tf.name, name)
					}
				}
			}
			for _, l := range s.layouts {
				for _, name := range l {
					fields++
					if inSource(name) {
						t.Fatalf("seed %d, %s: a cached layout holds %q inside a source", seed, model, name)
					}
				}
			}
		}
	}
	if sliced[0] == 0 || sliced[1] == 0 {
		t.Fatalf("%d transaction names and %d field names sliced from the sources: want some of each", sliced[0], sliced[1])
	}
	if pairs == 0 || facts == 0 || fields == 0 {
		t.Fatalf("%d stored pairs, %d cached facts, %d layout fields: want some of each", pairs, facts, fields)
	}
	t.Logf("%d stored pairs, %d cached facts, %d layout fields; %d transaction and %d field names sliced", pairs, facts, fields, sliced[0], sliced[1])
}
