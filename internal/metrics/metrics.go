// Package metrics provides the latency/throughput aggregation used by the
// performance experiments: streaming mean, percentiles over a bounded
// reservoir, and formatted series output matching the paper's figures.
package metrics

import (
	"fmt"
	"math/rand"
	"slices"
	"time"
)

// Latencies aggregates latency samples with a fixed-size reservoir for
// percentile estimation.
type Latencies struct {
	count     int64
	sum       time.Duration
	reservoir []time.Duration
	cap       int
	rng       *rand.Rand
}

// NewLatencies creates an aggregator keeping at most cap samples for
// percentiles (reservoir sampling); the reservoir is allocated at cap.
func NewLatencies(cap int, seed int64) *Latencies {
	if cap <= 0 {
		cap = 4096
	}
	return &Latencies{reservoir: make([]time.Duration, 0, cap), cap: cap, rng: rand.New(rand.NewSource(seed))}
}

// Add records one sample.
func (l *Latencies) Add(d time.Duration) {
	l.count++
	l.sum += d
	if len(l.reservoir) < l.cap {
		l.reservoir = append(l.reservoir, d)
		return
	}
	if i := l.rng.Int63n(l.count); i < int64(l.cap) {
		l.reservoir[i] = d
	}
}

// Mean returns the average latency (0 when empty).
func (l *Latencies) Mean() time.Duration {
	if l.count == 0 {
		return 0
	}
	return time.Duration(int64(l.sum) / l.count)
}

// Point summarizes the samples as one curve point: the mean and the 50th,
// 95th and 99th percentiles. It sorts the reservoir in place, so it is
// read last: an Add after it would replace another sample than before.
func (l *Latencies) Point(clients int, throughput float64) Point {
	slices.Sort(l.reservoir)
	ms := func(d time.Duration) float64 { return float64(d.Microseconds()) / 1000 }
	return Point{Clients: clients, Throughput: throughput, MeanMs: ms(l.Mean()),
		P50Ms: ms(percentile(l.reservoir, 50)), P95Ms: ms(percentile(l.reservoir, 95)), P99Ms: ms(percentile(l.reservoir, 99))}
}

// percentile returns the p-th percentile of sorted, 0 if it is empty.
func percentile(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[int(p/100*float64(len(sorted)-1))]
}

// Point is one measurement of a throughput/latency curve.
type Point struct {
	Clients    int
	Throughput float64 // transactions per second
	MeanMs     float64 // mean latency in milliseconds
	P50Ms      float64
	P95Ms      float64
	P99Ms      float64
}

// Series is a labelled performance curve (one line in Figs. 12–15).
type Series struct {
	Label  string
	Points []Point
}

// Format renders the series as an aligned table, one row per point.
func (s Series) Format() string {
	out := fmt.Sprintf("%s:\n", s.Label)
	out += fmt.Sprintf("  %8s %14s %12s %10s\n", "clients", "txn/s", "mean-ms", "p95-ms")
	for _, p := range s.Points {
		out += fmt.Sprintf("  %8d %14.1f %12.2f %10.2f\n", p.Clients, p.Throughput, p.MeanMs, p.P95Ms)
	}
	return out
}
