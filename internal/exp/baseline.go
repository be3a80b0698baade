package exp

import (
	"context"
	"encoding/json"
	"runtime"
	"time"

	"atropos/internal/anomaly"
	"atropos/internal/ast"
	"atropos/internal/benchmarks"
	"atropos/internal/cluster"
	"atropos/internal/pool"
	"atropos/internal/progen"
	"atropos/internal/repair"
)

// This file is the benchmark-regression harness: RunBaseline measures the
// repo's three performance surfaces — per-benchmark repair wall time, the
// Table 1 pipeline's wall clock (sequential vs parallel), and the Fig. 12
// panel simulations — and serializes them as BENCH_baseline.json so later
// PRs have a machine-readable perf trajectory to beat. Regenerate with
//
//	atropos-exp -exp baseline -duration 2 -out BENCH_baseline.json
//
// (-duration 2 matches the committed snapshot; the file records the
// duration actually used, and panel wall clocks are only comparable at
// equal duration and gomaxprocs). See EXPERIMENTS.md §Baselines.

// BaselineConfig sizes the harness run.
type BaselineConfig struct {
	// Duration is simulated time per panel point (default 2s — the panels
	// are discrete-event simulations, so this is virtual, not wall, time).
	Duration time.Duration
	// Clients is the load of each panel point (default 50).
	Clients int
	// Parallelism is the worker bound for the parallel measurements;
	// <= 0 means GOMAXPROCS.
	Parallelism int
	// Seed fixes the simulated workloads.
	Seed int64
	// CountsOnly skips the wall-clock-oriented sections (Table 1 pipeline
	// timing and the Fig. 12 panels) and measures only the per-benchmark
	// repairs — the machine-independent count columns the CI drift gate
	// compares.
	CountsOnly bool
	// ServiceClients / ServiceRequests size the atroposd load test
	// (LoadConfig.Clients / RequestsPerClient); zero takes the load
	// harness defaults (64 clients × 4 requests).
	ServiceClients  int
	ServiceRequests int
}

// Baseline is the machine-readable perf snapshot.
type Baseline struct {
	// GoVersion and MaxProcs identify the measuring machine; wall-clock
	// numbers are only comparable at equal MaxProcs.
	GoVersion string `json:"go_version"`
	MaxProcs  int    `json:"gomaxprocs"`
	// Parallelism is the resolved worker count of the parallel runs.
	Parallelism int `json:"parallelism"`
	// PanelDurationMs is the simulated time per panel point; panel wall
	// clocks are only comparable at equal duration.
	PanelDurationMs float64 `json:"panel_duration_ms"`
	// Repairs is Table 1's Time column: per-benchmark analyze+repair wall
	// time, plus the anomaly counts guarding against "fast because wrong".
	Repairs []RepairBaseline `json:"repairs"`
	// Certificates records, per benchmark × weak model, how many detected
	// anomalous pairs replayed as executable certificates (DESIGN.md §11).
	// Deterministic counts — the drift gate compares them.
	Certificates []CertBaseline `json:"certificates"`
	// Corpus is the generated-program repair-throughput measurement: N
	// progen programs at fixed seeds repaired back to back, the workload
	// shape of ROADMAP-scale corpus evaluations.
	Corpus CorpusBaseline `json:"corpus"`
	// Service is the atroposd load-test measurement: concurrent progen
	// clients against the in-process HTTP engine. Requests/Completed and
	// the anomaly totals are deterministic (the drift gate compares them);
	// latency, throughput, retry, and hit-rate columns are informational.
	Service *LoadResult `json:"service,omitempty"`
	// Chaos is the fault-injection panel: Adya-style violation counts per
	// benchmark × fault scenario × deployment (see chaos.go). Virtual-time
	// deterministic, so the drift gate compares every column.
	Chaos []ChaosRow `json:"chaos,omitempty"`
	// ServiceChaos is the scripted service-fault panel (servicechaos.go):
	// admission, shed, degradation, breaker, and panic counters under
	// deterministic daemon-side fault injection. Every count column is
	// drift-gated.
	ServiceChaos *ServiceChaosResult `json:"service_chaos,omitempty"`
	// Table1 compares the sequential and parallel corpus pipelines.
	Table1 Table1Baseline `json:"table1"`
	// Panels is one Fig. 12 deployment point per benchmark × mode.
	Panels []PanelBaseline `json:"panels"`
}

// RepairBaseline is one benchmark's repair timing, plus the oracle's
// SAT-query counters. SATQueries counts the cycle queries the pipeline's
// three detection passes issued (what a fresh oracle would solve);
// SATSolved counts the ones that reached a SAT solver (cache-miss solves
// plus state-parity replays). Both are deterministic — the repairs run at
// parallelism 1 — so the CI drift gate compares them alongside the
// anomaly counts. AllocsPerRepair / BytesPerRepair are informational
// heap-allocation deltas (runtime mallocs / bytes across the repair):
// they track the encode/solve memory trajectory between PRs but vary
// slightly with the runtime version, so the drift gate never compares
// them.
type RepairBaseline struct {
	Benchmark       string  `json:"benchmark"`
	WallMs          float64 `json:"wall_ms"`
	Initial         int     `json:"initial_anomalies"`
	Remaining       int     `json:"remaining_anomalies"`
	SATQueries      int     `json:"sat_queries"`
	SATSolved       int     `json:"sat_solved"`
	CacheHitRate    float64 `json:"cache_hit_rate"`
	AllocsPerRepair uint64  `json:"allocs_per_repair"`
	BytesPerRepair  uint64  `json:"bytes_per_repair"`
}

// CertBaseline is one benchmark × model witness-replay certificate count:
// Total anomalous pairs detected, Certified the ones whose witness schedule
// reproduced its dependency cycle in the directed simulator.
type CertBaseline struct {
	Benchmark string `json:"benchmark"`
	Model     string `json:"model"`
	Total     int    `json:"total_pairs"`
	Certified int    `json:"certified"`
}

// CorpusBaseline is the progen-corpus repair measurement: Programs fixed
// seeds (0..Programs-1) repaired under EC. The anomaly totals are
// deterministic and machine-independent — the drift gate compares them —
// while WallMs, RepairsPerSec, and TotalAllocs are informational like
// every other wall-clock column.
type CorpusBaseline struct {
	Programs       int     `json:"programs"`
	WallMs         float64 `json:"wall_ms"`
	RepairsPerSec  float64 `json:"repairs_per_sec"`
	TotalAllocs    uint64  `json:"total_allocs"`
	TotalInitial   int     `json:"total_initial_anomalies"`
	TotalRemaining int     `json:"total_remaining_anomalies"`
}

// corpusPrograms is the fixed corpus size; seeds are 0..corpusPrograms-1.
const corpusPrograms = 32

// Table1Baseline is the corpus-wide pipeline wall clock.
type Table1Baseline struct {
	SequentialMs float64 `json:"sequential_ms"`
	ParallelMs   float64 `json:"parallel_ms"`
	SpeedupX     float64 `json:"speedup_x"`
}

// PanelBaseline is one benchmark's Fig. 12 panel: the wall clock of the
// whole panel (repair + row migration + its four deployment simulations,
// run at the recorded parallelism) and the simulated metrics per series.
// SimWallMs covers only the four deployment simulations; SimTxnsPerSec is
// the simulator's own throughput (simulated committed transactions per
// wall-clock second) — informational, like every wall-clock column: the
// drift gate never compares it.
type PanelBaseline struct {
	Benchmark     string           `json:"benchmark"`
	Topology      string           `json:"topology"`
	Clients       int              `json:"clients"`
	WallMs        float64          `json:"wall_ms"`
	SimWallMs     float64          `json:"sim_wall_ms"`
	SimTxns       int64            `json:"sim_txns"`
	SimTxnsPerSec float64          `json:"sim_txns_per_sec"`
	Series        []SeriesBaseline `json:"series"`
}

// SeriesBaseline is one deployment's simulated measurement (the figure's
// y-axes — virtual time, machine-independent).
type SeriesBaseline struct {
	Series     string  `json:"series"` // EC, AT-EC, SC, AT-SC
	Throughput float64 `json:"txn_per_s"`
	MeanMs     float64 `json:"mean_latency_ms"`
	P95Ms      float64 `json:"p95_latency_ms"`
}

func (c BaselineConfig) orDefault() BaselineConfig {
	if c.Duration == 0 {
		c.Duration = 2 * time.Second
	}
	if c.Clients == 0 {
		c.Clients = 50
	}
	return c
}

// RunBaseline measures the full baseline snapshot.
func RunBaseline(cfg BaselineConfig) (*Baseline, error) {
	cfg = cfg.orDefault()
	out := &Baseline{
		GoVersion:       runtime.Version(),
		MaxProcs:        runtime.GOMAXPROCS(0),
		Parallelism:     pool.Workers(cfg.Parallelism),
		PanelDurationMs: ms(cfg.Duration),
	}

	// Per-benchmark repair wall time (Table 1's Time column). Programs are
	// parsed up front so the numbers measure analysis+repair, not parsing.
	// Repairs run at parallelism 1 so the SAT-query counters are
	// deterministic and machine-independent (the drift gate compares them).
	all := benchmarks.All()
	for _, b := range all {
		if _, err := b.Program(); err != nil {
			return nil, err
		}
	}
	for _, b := range all {
		prog, _ := b.Program()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		start := time.Now()
		// Parallelism pinned to 1: SATSolved and CacheHitRate are
		// drift-gated, and only sequential detection keeps them exact
		// (concurrent workers shift which query populates a cache key).
		rep, err := repair.Run(context.Background(), prog, anomaly.EC, repair.Parallelism(1))
		if err != nil {
			return nil, err
		}
		wall := time.Since(start)
		runtime.ReadMemStats(&after)
		out.Repairs = append(out.Repairs, RepairBaseline{
			Benchmark:       b.Name,
			WallMs:          ms(wall),
			Initial:         len(rep.Initial),
			Remaining:       len(rep.Remaining),
			SATQueries:      rep.Stats.Queries,
			SATSolved:       rep.Stats.Solved + rep.Stats.Replayed,
			CacheHitRate:    rep.Stats.CacheHitRate(),
			AllocsPerRepair: after.Mallocs - before.Mallocs,
			BytesPerRepair:  after.TotalAlloc - before.TotalAlloc,
		})
	}
	// Witness-replay certificates: certified/total per benchmark × weak
	// model. Deterministic and machine-independent, so the drift gate
	// compares them alongside the anomaly counts.
	certRows, err := CertifyGrid(all, 1)
	if err != nil {
		return nil, err
	}
	for _, r := range certRows {
		out.Certificates = append(out.Certificates, CertBaseline{
			Benchmark: r.Benchmark, Model: r.Model.String(),
			Total: r.Total, Certified: r.Certified,
		})
	}
	// Corpus repair throughput: generated programs at fixed seeds, repaired
	// back to back. Programs are generated up front so the measurement
	// covers repair, not generation.
	corpus := make([]*ast.Program, corpusPrograms)
	for i := range corpus {
		corpus[i] = progen.Program(int64(i))
	}
	var cBefore, cAfter runtime.MemStats
	runtime.ReadMemStats(&cBefore)
	corpusStart := time.Now()
	for _, p := range corpus {
		// Sequential detection, as above: the corpus anomaly totals are
		// drift-gated.
		rep, err := repair.Run(context.Background(), p, anomaly.EC, repair.Parallelism(1))
		if err != nil {
			return nil, err
		}
		out.Corpus.TotalInitial += len(rep.Initial)
		out.Corpus.TotalRemaining += len(rep.Remaining)
	}
	corpusWall := time.Since(corpusStart)
	runtime.ReadMemStats(&cAfter)
	out.Corpus.Programs = corpusPrograms
	out.Corpus.WallMs = ms(corpusWall)
	out.Corpus.TotalAllocs = cAfter.Mallocs - cBefore.Mallocs
	if corpusWall > 0 {
		out.Corpus.RepairsPerSec = float64(corpusPrograms) / corpusWall.Seconds()
	}

	// Service load test: concurrent HTTP clients against the in-process
	// engine. Runs in counts-only mode too — its request and anomaly totals
	// are deterministic, so the drift gate compares them.
	svc, err := RunLoad(LoadConfig{
		Clients:           cfg.ServiceClients,
		RequestsPerClient: cfg.ServiceRequests,
	})
	if err != nil {
		return nil, err
	}
	out.Service = svc

	// Chaos panel: violation counts per benchmark × fault scenario ×
	// deployment. The sweep runs at the chaos harness's own fixed sizing —
	// deliberately independent of cfg.Duration, so drift runs at any
	// -duration compare equal against the committed snapshot.
	chaos, err := RunChaos(ChaosConfig{
		Seed:        cfg.Seed,
		Parallelism: cfg.Parallelism,
	})
	if err != nil {
		return nil, err
	}
	out.Chaos = chaos.Rows

	// Service-chaos panel: scripted daemon-side faults against one live
	// engine. The script fixes every request's fate, so all counters are
	// exact and drift-gated.
	sc, err := RunServiceChaos(ServiceChaosConfig{})
	if err != nil {
		return nil, err
	}
	out.ServiceChaos = sc

	if cfg.CountsOnly {
		return out, nil
	}

	// Corpus pipeline wall clock, sequential vs parallel.
	start := time.Now()
	if _, err := Table1(all, WithParallelism(1)); err != nil {
		return nil, err
	}
	seq := time.Since(start)
	start = time.Now()
	if _, err := Table1(all, WithParallelism(cfg.Parallelism)); err != nil {
		return nil, err
	}
	par := time.Since(start)
	out.Table1 = Table1Baseline{
		SequentialMs: ms(seq),
		ParallelMs:   ms(par),
		SpeedupX:     seq.Seconds() / par.Seconds(),
	}

	// Fig. 12 panel points (US cluster, one load level, all four series).
	for _, b := range []*benchmarks.Benchmark{benchmarks.SmallBank, benchmarks.SEATS, benchmarks.TPCC} {
		start := time.Now()
		res, err := Perf(PerfConfig{
			Benchmark:    b,
			Topology:     cluster.USCluster,
			ClientCounts: []int{cfg.Clients},
			Duration:     cfg.Duration,
			Warmup:       cfg.Duration / 10,
			Seed:         cfg.Seed,
			Parallelism:  cfg.Parallelism,
		})
		if err != nil {
			return nil, err
		}
		panel := PanelBaseline{
			Benchmark: b.Name,
			Topology:  res.Topology,
			Clients:   cfg.Clients,
			WallMs:    ms(time.Since(start)),
			SimWallMs: ms(res.SimWall),
			SimTxns:   res.Committed,
		}
		if res.SimWall > 0 {
			panel.SimTxnsPerSec = float64(res.Committed) / res.SimWall.Seconds()
		}
		for _, s := range res.Series {
			p := s.Points[0]
			panel.Series = append(panel.Series, SeriesBaseline{
				Series:     s.Label,
				Throughput: p.Throughput,
				MeanMs:     p.MeanMs,
				P95Ms:      p.P95Ms,
			})
		}
		out.Panels = append(out.Panels, panel)
	}
	return out, nil
}

// JSON renders the snapshot in the BENCH_baseline.json layout.
func (b *Baseline) JSON() ([]byte, error) {
	buf, err := json.MarshalIndent(b, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(buf, '\n'), nil
}

func ms(d time.Duration) float64 { return float64(d.Microseconds()) / 1000 }
