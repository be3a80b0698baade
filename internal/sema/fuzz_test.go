package sema_test

import (
	"testing"

	"atropos/internal/ast"
	"atropos/internal/benchmarks"
	"atropos/internal/parser"
	"atropos/internal/sema"
)

// FuzzSema fuzzes the checker on whatever the parser accepts, seeded with
// the nine benchmark sources: Check must not panic, and a program it
// accepts must print (ast.Format), parse back and pass Check again. The
// nightly CI job runs this target.
func FuzzSema(f *testing.F) {
	for _, b := range benchmarks.All() {
		f.Add(b.Source)
	}
	f.Fuzz(func(t *testing.T, src string) {
		p, err := parser.Parse(src)
		if err != nil {
			return
		}
		if sema.Check(p) != nil {
			return
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
