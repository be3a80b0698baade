package parser_test

import (
	"strings"
	"testing"

	"atropos/internal/benchmarks"
	"atropos/internal/parser"
	"atropos/internal/sema"
)

// BenchmarkParseCold parses the nine benchmark sources with the memo
// emptied first: every declaration is lexed for its key, missed, parsed
// and stored, and so is every source. The warm paths are
// BenchmarkFrontEndReflowed and the root package's BenchmarkFrontEnd.
func BenchmarkParseCold(b *testing.B) {
	all := benchmarks.All()
	n := 0
	for _, bench := range all {
		n += len(bench.Source)
	}
	b.SetBytes(int64(n))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		parser.ResetMemo()
		for _, bench := range all {
			if _, err := parser.Parse(bench.Source); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkFrontEndReflowed parses and checks the nine benchmark sources
// re-indented with tabs, the memo forgetting whole sources before each
// round: every text is new, every declaration comes from the declaration
// memo (each lexed for its key) and every transaction carries its check's
// stamp, as on an editing loop's reformatted steps.
func BenchmarkFrontEndReflowed(b *testing.B) {
	var srcs []string
	n := 0
	for _, bench := range benchmarks.All() {
		srcs = append(srcs, strings.ReplaceAll(bench.Source, "  ", "\t"))
		n += len(srcs[len(srcs)-1])
	}
	frontEnd := func() {
		parser.ForgetSources()
		for _, src := range srcs {
			prog, err := parser.Parse(src)
			if err != nil {
				b.Fatal(err)
			}
			if err := sema.Check(prog); err != nil {
				b.Fatal(err)
			}
		}
	}
	frontEnd()
	b.SetBytes(int64(n))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		frontEnd()
	}
}
