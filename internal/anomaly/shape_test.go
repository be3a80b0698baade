package anomaly

import (
	"reflect"
	"slices"
	"testing"

	"atropos/internal/ast"
	"atropos/internal/benchmarks"
)

// Tests of the re-detection hot path's shape: what a stored report is
// charged, how much a warm re-detection allocates, and that the pass's
// record of its pairs keeps nothing alive in the pooled scratch.

// TestReportChargesItsNames: storing a report charges Size its entry, its
// pair array and its block of field names. TPC-C with its transactions
// reversed is a new program whose facts, layouts and queries the session
// already holds from TPC-C, so its detection grows Size by its report
// alone.
func TestReportChargesItsNames(t *testing.T) {
	prog, err := benchmarks.TPCC.Program()
	if err != nil {
		t.Fatal(err)
	}
	s := NewSession(EC)
	if _, err := s.Detect(prog); err != nil {
		t.Fatal(err)
	}
	reversed := &ast.Program{Schemas: prog.Schemas, Txns: slices.Clone(prog.Txns)}
	slices.Reverse(reversed.Txns)
	before := s.Size()
	rep, err := s.Detect(reversed)
	if err != nil {
		t.Fatal(err)
	}
	names := 0
	for _, a := range rep.Pairs {
		names += len(a.F1) + len(a.F2)
	}
	want := len(rep.Pairs)*accessPairBytes + 16*names
	if grown := s.Size() - before; len(rep.Pairs) == 0 || grown < want {
		t.Fatalf("a report of %d pairs naming %d fields grew Size by %d bytes, want at least %d", len(rep.Pairs), names, grown, want)
	}
}

// TestWarmRedetectionAllocs: re-detecting TPC-C without one transaction,
// on a session that detected TPC-C, allocates no more than it did when
// each pair was built in the pass's scratch and copied out (measured as a
// session detecting both programs less one detecting TPC-C alone).
func TestWarmRedetectionAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts under the race detector are not the program's")
	}
	prog, err := benchmarks.TPCC.Program()
	if err != nil {
		t.Fatal(err)
	}
	detect := func(s *DetectSession, p *ast.Program) {
		if _, err := s.Detect(p); err != nil {
			t.Fatal(err)
		}
	}
	cold := testing.AllocsPerRun(20, func() { detect(NewSession(EC), prog) })
	bounds := []float64{9, 8, 9, 4, 4} // by dropped transaction
	if len(prog.Txns) != len(bounds) {
		t.Fatalf("TPC-C has %d transactions, want %d", len(prog.Txns), len(bounds))
	}
	for k, bound := range bounds {
		without := &ast.Program{Schemas: prog.Schemas, Txns: slices.Delete(slices.Clone(prog.Txns), k, k+1)}
		both := testing.AllocsPerRun(20, func() {
			s := NewSession(EC)
			detect(s, prog)
			detect(s, without)
		})
		if warm := both - cold; warm > bound {
			t.Errorf("TPC-C without %s: a warm re-detection makes %.0f allocations, want at most %.0f", prog.Txns[k].Name, warm, bound)
		}
	}
}

// TestFindingsHoldNoPointer: the pass records its pairs as pointer-free
// findings, so the scratch the pool keeps between passes pins no report,
// fact or name and done need not clear them.
func TestFindingsHoldNoPointer(t *testing.T) {
	var pointerful func(reflect.Type) bool
	pointerful = func(ty reflect.Type) bool {
		switch ty.Kind() {
		case reflect.Struct:
			for i := range ty.NumField() {
				if pointerful(ty.Field(i).Type) {
					return true
				}
			}
			return false
		case reflect.Array:
			return ty.Len() > 0 && pointerful(ty.Elem())
		case reflect.Pointer, reflect.UnsafePointer, reflect.Slice, reflect.Map, reflect.Chan, reflect.Func, reflect.Interface, reflect.String:
			return true
		}
		return false
	}
	f, ok := reflect.TypeOf(scratch{}).FieldByName("found")
	if !ok || f.Type.Kind() != reflect.Slice {
		t.Fatalf("scratch.found is not a slice")
	}
	if pointerful(f.Type.Elem()) {
		t.Errorf("scratch.found's element type %v holds a pointer", f.Type.Elem())
	}
}
