package main

import (
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"
)

// workload is one set of inputs the benchmark runs. setup makes the inputs
// from the seed and builds whatever the ops need; round runs one round of
// ops through rc.op, in an order drawn from (seed, r); close releases what
// setup started. Round 0 is the warm-up round.
type workload interface {
	name() string
	probeProgram() string // Table-1 benchmark the layer probes run on
	setup(seed int64, exp *expectations) error
	round(r int, rc *runCtx)
	close()
}

func workloads() []workload {
	return []workload{&table1Cold{}, &sessionEdits{}, &serviceMixed{}, &simPanel{}}
}

func workloadByName(name string) workload {
	for _, w := range workloads() {
		if w.name() == name {
			return w
		}
	}
	return nil
}

// roundRNG is the one source of seeded choices inside a round.
func roundRNG(seed int64, r int) *rand.Rand {
	return rand.New(rand.NewSource(seed*1_000_003 + int64(r)))
}

type sample struct {
	cell string
	ns   int64
}

// runCtx collects what one phase of a run (warm-up, timed, traced) produces.
// Ops may run on several goroutines.
type runCtx struct {
	tr *tracer // nil: tracing off

	mu        sync.Mutex
	samples   []sample
	attempted int
	failed    int
	failures  []string           // first few, for the report
	counts    map[string]float64 // per-layer counts; nil unless this round is counted
}

// op runs one op: f gets the op's root span and returns an error when the
// op failed or its output was wrong.
func (rc *runCtx) op(cell string, f func(op spanID) error) {
	root := rc.tr.start(0, cell)
	t0 := time.Now()
	err := f(root)
	ns := int64(time.Since(t0))
	rc.tr.end(root)
	rc.mu.Lock()
	rc.attempted++
	rc.samples = append(rc.samples, sample{cell, ns})
	if err != nil {
		rc.failed++
		if len(rc.failures) < 10 {
			rc.failures = append(rc.failures, fmt.Sprintf("%s: %v", cell, err))
		}
	}
	rc.mu.Unlock()
}

// count adds to a per-layer count when this round is the counted one.
func (rc *runCtx) count(name string, v float64) {
	rc.mu.Lock()
	if rc.counts != nil {
		rc.counts[name] += v
	}
	rc.mu.Unlock()
}

func (rc *runCtx) counting() bool {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	return rc.counts != nil
}

// absorb folds another phase's failures into rc (samples stay apart: only
// one phase is timed).
func (rc *runCtx) absorb(o *runCtx) {
	rc.attempted += o.attempted
	rc.failed += o.failed
	rc.failures = append(rc.failures, o.failures...)
}

// roundCost is what one timed round cost the process.
type roundCost struct {
	ops   int
	wall  time.Duration
	cpu   time.Duration
	alloc uint64
}

// runFor runs whole rounds, numbered from 1, until the time is up, so every
// cell has the same number of samples and the op mix is the same on every
// run. With costs set it notes each round's wall, CPU and allocation.
func runFor(w workload, rc *runCtx, d time.Duration, costs *[]roundCost) {
	t0 := time.Now()
	for r := 1; ; r++ {
		before := roundCost{ops: len(rc.samples), wall: time.Since(t0)}
		if costs != nil {
			before.cpu, before.alloc = cpuTime(), totalAlloc()
		}
		w.round(r, rc)
		el := time.Since(t0)
		if costs != nil {
			*costs = append(*costs, roundCost{
				ops: len(rc.samples) - before.ops, wall: el - before.wall,
				cpu: cpuTime() - before.cpu, alloc: totalAlloc() - before.alloc,
			})
		}
		if el >= d {
			return
		}
	}
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// setupRuns is how often a run sets the workload up; setup_s is the median.
const setupRuns = 3

// setUp sets the workload up setupRuns times, each followed by the warm-up
// round, and leaves the last one standing. It returns the median wall time
// and the warm-up rounds' verdicts.
func setUp(w workload, seed int64, exp *expectations, times int) (float64, *runCtx, error) {
	warm := &runCtx{}
	var walls []float64
	for i := 0; i < times; i++ {
		if i > 0 {
			w.close()
		}
		t0 := time.Now()
		if err := w.setup(seed, exp); err != nil {
			return 0, nil, fmt.Errorf("%s: setup: %w", w.name(), err)
		}
		rc := &runCtx{}
		w.round(0, rc)
		walls = append(walls, time.Since(t0).Seconds())
		warm.absorb(rc)
	}
	return median(walls), warm, nil
}

// result is what one run of one workload reports.
type result struct {
	Workload  string             `json:"workload"`
	Trace     bool               `json:"trace"`
	Verified  string             `json:"verified"` // "expected", or "structural" when this seed has no sim expectations
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Samples   int                `json:"samples"` // timed ops behind the percentiles
	Failures  []string           `json:"failures,omitempty"`
	Metrics   map[string]float64 `json:"metrics"`
	Cells     map[string]float64 `json:"cells_ms,omitempty"` // median ms per cell
}

// endToEndMetrics turns the timed phase into the end-to-end metrics.
// Latencies are quantiles over all timed ops; throughput, CPU and allocation
// are medians over the rounds, which all do the same work, so a burst of
// interference in a few rounds does not move them.
func endToEndMetrics(samples []sample, costs []roundCost, setupS float64) (map[string]float64, map[string]float64) {
	all := make([]float64, len(samples))
	byCell := map[string][]float64{}
	for i, s := range samples {
		ms := float64(s.ns) / 1e6
		all[i] = ms
		byCell[s.cell] = append(byCell[s.cell], ms)
	}
	cells := map[string]float64{}
	var medians []float64
	for c, xs := range byCell {
		cells[c] = median(xs)
		medians = append(medians, cells[c])
	}
	sort.Float64s(medians) // fixed summation order: the geomean repeats bit for bit
	var tput, cpu, alloc []float64
	for _, c := range costs {
		n := float64(c.ops)
		tput = append(tput, n/c.wall.Seconds())
		cpu = append(cpu, float64(c.cpu)/1e6/n)
		alloc = append(alloc, float64(c.alloc)/1e6/n)
	}
	return map[string]float64{
		"setup_s":         setupS,
		"op_p50_ms":       quantile(all, 0.50),
		"op_p90_ms":       quantile(all, 0.90),
		"geomean_ms":      geomean(medians),
		"ops_per_s":       median(tput),
		"cpu_ms_per_op":   median(cpu),
		"alloc_mb_per_op": median(alloc),
	}, cells
}

// runEndToEnd is the untraced run: set up, then time whole rounds for d.
func runEndToEnd(w workload, seed int64, d time.Duration, exp *expectations) (*result, error) {
	setupS, rc, err := setUp(w, seed, exp, setupRuns)
	if err != nil {
		return nil, err
	}
	defer w.close()
	runtime.GC()
	var costs []roundCost
	runFor(w, rc, d, &costs)
	metrics, cells := endToEndMetrics(rc.samples, costs, setupS)
	return &result{
		Workload: w.name(), Verified: exp.verified(),
		Attempted: rc.attempted, Failed: rc.failed, Samples: len(rc.samples), Failures: rc.failures,
		Metrics: metrics, Cells: cells,
	}, nil
}

// runTraced is the traced run. For two thirds of d it runs every round
// twice, untraced (the reference for the tracing overhead) and with the span
// recorder on, taking turns to go first, so that the two see the same
// inputs and the same machine; the first traced round's work is counted at
// the layer boundaries. Then it runs the layer probes and writes the spans
// out.
func runTraced(w workload, seed int64, d time.Duration, exp *expectations, outDir string) (*result, error) {
	_, rc, err := setUp(w, seed, exp, 1)
	if err != nil {
		return nil, err
	}
	defer w.close()
	runtime.GC()
	var ms0 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	heap := startHeapSampler()

	ref, traced := &runCtx{}, &runCtx{tr: newTracer(), counts: map[string]float64{}}
	var counts map[string]float64
	t0 := time.Now()
	for r := 1; r == 1 || time.Since(t0) < d*2/3; r++ {
		first, second := ref, traced
		if r%2 == 0 {
			first, second = traced, ref
		}
		w.round(r, first)
		w.round(r, second)
		if r == 1 {
			traced.mu.Lock()
			counts, traced.counts = traced.counts, nil
			traced.mu.Unlock()
		}
	}
	rc.absorb(ref)
	rc.absorb(traced)
	heapPeak := heap.stop()

	spans := traced.tr.snapshot()
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	if err := writeJSONL(fmt.Sprintf("%s/trace-%s.jsonl", outDir, w.name()), spans); err != nil {
		return nil, err
	}

	probes, err := runProbes(w.probeProgram())
	if err != nil {
		return nil, fmt.Errorf("%s: probes: %w", w.name(), err)
	}
	all := layerMetrics(spans, counts, probes)
	if ls, ok := w.(interface{ layerStats() map[string]float64 }); ok {
		for k, v := range ls.layerStats() {
			all[k] = v
		}
	}
	p50 := func(ss []sample) float64 {
		xs := make([]float64, len(ss))
		for i, s := range ss {
			xs[i] = float64(s.ns)
		}
		return median(xs)
	}
	all["proc.trace_overhead_share"] = p50(traced.samples)/p50(ref.samples) - 1
	procMetrics(all, &ms0, heapPeak)
	metrics := map[string]float64{} // the named metrics only; 0 where the layer saw no work
	for _, m := range perLayer {
		metrics[m.Name] = all[m.Name]
	}
	return &result{
		Workload: w.name(), Trace: true, Verified: exp.verified(),
		Attempted: rc.attempted, Failed: rc.failed, Samples: len(traced.samples), Failures: rc.failures,
		Metrics: metrics,
	}, nil
}
