package exp

import (
	"context"
	"fmt"
	"strings"

	"atropos/internal/anomaly"
	"atropos/internal/benchmarks"
	"atropos/internal/pool"
	"atropos/internal/repair"
	"atropos/internal/replay"
)

// This file is the witness-replay certification driver behind
// `atropos-exp -exp certify` (and `make certify` in the CI gate): every
// Table-1 anomaly count is backed by an executable certificate — the
// detector's witness schedule lowered into a directed simulator run that
// exhibits the claimed dependency cycle — plus the two negative controls
// (serial replays of the original program and projected replays of the
// repaired one, both of which must show zero violations). See DESIGN.md §11.

// CertModels are the weak models certificates cover: SC admits no anomalies
// on the benchmarks, so there is nothing to replay there.
var CertModels = []anomaly.Model{anomaly.EC, anomaly.CC, anomaly.RR}

// certRateFloor is the acceptance threshold on the per-benchmark×model
// reproduction rate.
const certRateFloor = 0.95

// CertifyRow is one benchmark × model certificate measurement.
type CertifyRow struct {
	Benchmark string
	Model     anomaly.Model
	Total     int // anomalous pairs detected
	Lowered   int // pairs whose witness model was realizable as a run
	Certified int // pairs whose dependency cycle manifested when run
}

// Rate is the row's reproduction rate (1 when there is nothing to replay).
func (r CertifyRow) Rate() float64 {
	if r.Total == 0 {
		return 1
	}
	return float64(r.Certified) / float64(r.Total)
}

// CertifyGrid replays witness certificates for every benchmark × weak
// model on a bounded worker pool. Counts are deterministic and
// machine-independent; RunBaseline records them and the drift gate
// compares them.
func CertifyGrid(benches []*benchmarks.Benchmark, parallelism int) ([]CertifyRow, error) {
	for _, b := range benches {
		if _, err := b.Program(); err != nil {
			return nil, err
		}
	}
	rows := make([]CertifyRow, len(benches)*len(CertModels))
	err := pool.ForEach(pool.Workers(parallelism), len(rows), func(i int) error {
		b := benches[i/len(CertModels)]
		m := CertModels[i%len(CertModels)]
		prog, _ := b.Program()
		// Sequential detection, like the repairs below: the grid already
		// owns the worker pool.
		cert, _, err := replay.CertifyModelContext(context.Background(), prog, m)
		if err != nil {
			return err
		}
		rows[i] = CertifyRow{
			Benchmark: b.Name, Model: m,
			Total: cert.Total, Lowered: cert.Lowered, Certified: cert.Certified,
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// FormatCertify renders the grid as the EXPERIMENTS.md certificate table.
func FormatCertify(rows []CertifyRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-12s %6s %8s %8s %10s %6s\n", "benchmark", "model", "pairs", "lowered", "certified", "rate")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-12s %6s %8d %8d %10d %5.0f%%\n",
			r.Benchmark, r.Model, r.Total, r.Lowered, r.Certified, 100*r.Rate())
	}
	return b.String()
}

// CertifyNegative is one benchmark's negative-control measurement: the full
// certified repair under EC, with the serial (SC) and repaired-program
// replays that must show no violation.
type CertifyNegative struct {
	Benchmark string
	Cert      *replay.RepairCertificate
}

// CertifyNegatives runs the certified repair pipeline for each benchmark
// under EC on a bounded worker pool.
func CertifyNegatives(benches []*benchmarks.Benchmark, parallelism int) ([]CertifyNegative, error) {
	for _, b := range benches {
		if _, err := b.Program(); err != nil {
			return nil, err
		}
	}
	out := make([]CertifyNegative, len(benches))
	err := pool.ForEach(pool.Workers(parallelism), len(benches), func(i int) error {
		prog, _ := benches[i].Program()
		// Detection runs sequentially inside each repair: the benchmark
		// grid already owns the worker pool.
		res, err := repair.Run(context.Background(), prog, anomaly.EC, repair.Certify(true), repair.Parallelism(1))
		if err != nil {
			return err
		}
		out[i] = CertifyNegative{Benchmark: benches[i].Name, Cert: res.Certificate}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// FormatCertifyNegatives renders the negative-control table.
func FormatCertifyNegatives(negs []CertifyNegative) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-12s %10s %12s %15s %8s\n", "benchmark", "certified", "sc-replays", "repaired-runs", "errors")
	for _, n := range negs {
		c := n.Cert
		fmt.Fprintf(&b, "%-12s %6d/%-3d %6d/%-5d %9d/%-5d %8d\n",
			n.Benchmark, c.Certified, c.Total,
			c.SCViolations, c.SCRuns, c.RepairedViolations, c.RepairedRuns, len(c.Errors))
	}
	return b.String()
}

// CertifyGate evaluates the acceptance criteria over a grid and its
// negative controls, returning one message per failure; empty means the
// gate passes. The thresholds mirror ISSUE/EXPERIMENTS: every benchmark ×
// model replays at least 95% of its detected pairs, every benchmark
// contributes at least one replayed schedule (anti-vacuity), and the
// negative controls replay zero violations with no run errors.
func CertifyGate(rows []CertifyRow, negs []CertifyNegative) []string {
	var fails []string
	byBench := map[string]int{}
	for _, r := range rows {
		byBench[r.Benchmark] += r.Certified
		if r.Rate() < certRateFloor {
			fails = append(fails, fmt.Sprintf("%s/%s: reproduction rate %.0f%% below %.0f%% (%d/%d)",
				r.Benchmark, r.Model, 100*r.Rate(), 100*certRateFloor, r.Certified, r.Total))
		}
	}
	for _, r := range rows {
		if byBench[r.Benchmark] == 0 {
			fails = append(fails, fmt.Sprintf("%s: no replayed schedule under any model (vacuous certificate)", r.Benchmark))
			byBench[r.Benchmark] = -1 // report once
		}
	}
	for _, n := range negs {
		c := n.Cert
		if c.SCViolations > 0 {
			fails = append(fails, fmt.Sprintf("%s: %d/%d serial (SC) replays exhibited a violation", n.Benchmark, c.SCViolations, c.SCRuns))
		}
		if c.RepairedViolations > 0 {
			fails = append(fails, fmt.Sprintf("%s: %d/%d repaired-program replays exhibited a violation", n.Benchmark, c.RepairedViolations, c.RepairedRuns))
		}
		for _, e := range c.Errors {
			fails = append(fails, fmt.Sprintf("%s: negative control error: %s", n.Benchmark, e))
		}
	}
	return fails
}
