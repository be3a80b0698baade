package metrics

import (
	"slices"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

// Count returns the number of samples recorded.
func (l *Latencies) Count() int64 { return l.count }

// Percentile returns the p-th percentile (0 < p <= 100) from a sorted copy
// of the reservoir.
func (l *Latencies) Percentile(p float64) time.Duration {
	sorted := slices.Clone(l.reservoir)
	slices.Sort(sorted)
	return percentile(sorted, p)
}

func TestMeanAndCount(t *testing.T) {
	l := NewLatencies(100, 1)
	for _, d := range []time.Duration{10 * time.Millisecond, 20 * time.Millisecond, 30 * time.Millisecond} {
		l.Add(d)
	}
	if l.Count() != 3 {
		t.Fatalf("count = %d", l.Count())
	}
	if got := l.Mean(); got != 20*time.Millisecond {
		t.Fatalf("mean = %v, want 20ms", got)
	}
}

func TestEmptyAggregator(t *testing.T) {
	l := NewLatencies(10, 1)
	if l.Mean() != 0 || l.Percentile(95) != 0 || l.Count() != 0 {
		t.Fatal("empty aggregator not zero-valued")
	}
}

func TestPercentileOrdering(t *testing.T) {
	l := NewLatencies(1000, 1)
	for i := 1; i <= 100; i++ {
		l.Add(time.Duration(i) * time.Millisecond)
	}
	p50 := l.Percentile(50)
	p95 := l.Percentile(95)
	p100 := l.Percentile(100)
	if !(p50 <= p95 && p95 <= p100) {
		t.Fatalf("percentiles not monotone: p50=%v p95=%v p100=%v", p50, p95, p100)
	}
	if p100 != 100*time.Millisecond {
		t.Fatalf("p100 = %v, want 100ms", p100)
	}
	if p50 < 45*time.Millisecond || p50 > 55*time.Millisecond {
		t.Fatalf("p50 = %v, want ≈50ms", p50)
	}
}

// TestReservoirDeterministic: the seeded reservoir makes the percentile
// estimate a pure function of (seed, sample sequence) even after
// replacement kicks in — the property the cluster simulator's golden
// latency test (internal/cluster) builds on.
func TestReservoirDeterministic(t *testing.T) {
	run := func() (time.Duration, time.Duration) {
		l := NewLatencies(32, 5)
		for i := 1; i <= 1000; i++ {
			l.Add(time.Duration(i*i%997) * time.Millisecond)
		}
		return l.Percentile(50), l.Percentile(99)
	}
	p50a, p99a := run()
	p50b, p99b := run()
	if p50a != p50b || p99a != p99b {
		t.Fatalf("reservoir not deterministic: (%v,%v) vs (%v,%v)", p50a, p99a, p50b, p99b)
	}
	if p50a > p99a {
		t.Fatalf("p50 %v > p99 %v", p50a, p99a)
	}
}

// TestReservoirBounded is a property test: however many samples arrive,
// the reservoir never exceeds its capacity and mean stays within the
// sample range.
func TestReservoirBounded(t *testing.T) {
	f := func(samples []uint16) bool {
		l := NewLatencies(64, 7)
		var min, max time.Duration
		for i, s := range samples {
			d := time.Duration(s) * time.Microsecond
			l.Add(d)
			if i == 0 || d < min {
				min = d
			}
			if d > max {
				max = d
			}
		}
		if len(l.reservoir) > 64 {
			return false
		}
		if len(samples) == 0 {
			return l.Mean() == 0
		}
		m := l.Mean()
		return m >= min && m <= max
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSeriesFormat(t *testing.T) {
	s := Series{Label: "EC", Points: []Point{
		{Clients: 10, Throughput: 123.4, MeanMs: 5.6, P95Ms: 9.9},
	}}
	out := s.Format()
	if !strings.Contains(out, "EC:") || !strings.Contains(out, "123.4") {
		t.Fatalf("Format output malformed:\n%s", out)
	}
}

// TestPointReadsPercentiles: Point's fields are what Mean and Percentile
// read, in milliseconds to the microsecond, from one sort.
func TestPointReadsPercentiles(t *testing.T) {
	l := NewLatencies(64, 3)
	for i := 1; i <= 500; i++ {
		l.Add(time.Duration(i*7919%1009) * time.Microsecond * 13)
	}
	ms := func(d time.Duration) float64 { return float64(d.Microseconds()) / 1000 }
	want := Point{Clients: 4, Throughput: 2.5, MeanMs: ms(l.Mean()),
		P50Ms: ms(l.Percentile(50)), P95Ms: ms(l.Percentile(95)), P99Ms: ms(l.Percentile(99))}
	if got := l.Point(4, 2.5); got != want {
		t.Errorf("Point = %+v, want %+v", got, want)
	}
	if got := NewLatencies(8, 1).Point(1, 0); got != (Point{Clients: 1}) {
		t.Errorf("empty Point = %+v", got)
	}
}
