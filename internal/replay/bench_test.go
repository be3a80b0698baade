package replay_test

import (
	"testing"

	"atropos/internal/anomaly"
	"atropos/internal/ast"
	"atropos/internal/benchmarks"
	"atropos/internal/replay"
)

// The certification benchmarks time the replay phase alone: reports are
// detected once, outside the timer, and every op certifies them again.
// allocs/op is deterministic and gated by BENCH_allocs.json (make bench).

func benchCertify(b *testing.B, progs []*ast.Program, reps []*anomaly.Report) {
	b.ReportAllocs()
	b.ResetTimer()
	var pairs, runs int
	for i := 0; i < b.N; i++ {
		pairs, runs = 0, 0
		for j, prog := range progs {
			cert := replay.Certify(prog, reps[j])
			pairs += cert.Total
			runs += cert.Runs
		}
	}
	b.ReportMetric(float64(pairs), "pairs/op")
	b.ReportMetric(float64(runs), "runs/op")
}

// BenchmarkCertify_Progen is one pass over the service benchmark's
// population, where nine pairs in ten walk the whole attempt ladder.
func BenchmarkCertify_Progen(b *testing.B) {
	progs, reps := progenCorpus(b)
	benchCertify(b, progs, reps)
}

func benchCertifyNamed(b *testing.B, name string) {
	prog := benchmarks.ByName(name).MustProgram()
	benchCertify(b, []*ast.Program{prog}, []*anomaly.Report{witnessed(b, prog, anomaly.EC)})
}

// BenchmarkCertify_TPCC and _SmallBank are the other regime: nearly every
// pair reproduces on its first attempt.
func BenchmarkCertify_TPCC(b *testing.B)      { benchCertifyNamed(b, "TPC-C") }
func BenchmarkCertify_SmallBank(b *testing.B) { benchCertifyNamed(b, "SmallBank") }
