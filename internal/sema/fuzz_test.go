package sema_test

import (
	"testing"

	"atropos/internal/ast"
	"atropos/internal/benchmarks"
	"atropos/internal/cluster"
	"atropos/internal/parser"
	"atropos/internal/sema"
)

// FuzzSema fuzzes the checker on whatever the parser accepts, seeded with
// the nine benchmark sources and the field limit's edge: Check must not
// panic, and a program it accepts must compile for the simulator
// (cluster.CompileProgram), print (ast.Format), parse back and pass Check
// again. The nightly CI job runs this target.
func FuzzSema(f *testing.F) {
	for _, b := range benchmarks.All() {
		f.Add(b.Source)
	}
	// The widest table Check accepts, and one field more.
	f.Add(sema.WideTable(ast.MaxFields))
	f.Add(sema.WideTable(ast.MaxFields + 1))
	// A rebound variable and uuid() outside an insert, which Check refuses
	// because the compiler does.
	f.Add("table A { id: int key, v: int, } table B { id: int key, w: int, z: int, } txn t(k: int) { x := select v from A where id = k; x := select w, z from B where id = k; return x.w; }")
	f.Add("table A { id: int key, v: int, } txn t(k: int) { update A set v = uuid() where id = k; }")
	f.Fuzz(func(t *testing.T, src string) {
		p, err := parser.Parse(src)
		if err != nil {
			return
		}
		if sema.Check(p) != nil {
			return
		}
		if _, err := cluster.CompileProgram(p); err != nil {
			t.Fatalf("accepted program does not compile: %v\n%s", err, src)
		}
		text := ast.Format(p)
		p2, err := parser.Parse(text)
		if err != nil {
			t.Fatalf("accepted program prints unparsable text: %v\n%s", err, text)
		}
		if err := sema.Check(p2); err != nil {
			t.Fatalf("accepted program is rejected after printing: %v\n%s", err, text)
		}
	})
}
