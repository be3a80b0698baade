package parser_test

import (
	"testing"

	"atropos/internal/benchmarks"
	"atropos/internal/parser"
)

// BenchmarkParseCold parses the nine benchmark sources with the
// declaration memo emptied first: every declaration is lexed for its key,
// missed, parsed and stored. The warm path is the root package's
// BenchmarkFrontEnd.
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
