// Command atropos-exp regenerates the paper's tables and figures
// (see DESIGN.md §5 for the experiment index).
//
// Usage:
//
//	atropos-exp -exp table1
//	atropos-exp -exp fig12 [-bench SmallBank] [-duration 90]
//	atropos-exp -exp fig13|fig14|fig15          # per-topology panels
//	atropos-exp -exp fig16 [-rounds 20]
//	atropos-exp -exp invariants
//	atropos-exp -exp summary
//	atropos-exp -exp baseline [-out BENCH_baseline.json]
//	atropos-exp -exp drift [-baseline BENCH_baseline.json]
//	atropos-exp -exp certify                    # witness-replay gate
//	atropos-exp -exp chaos [-bench SmallBank] [-scenarios clean,rolling-crash]
//	atropos-exp -exp all
//
// Experiments fan out on a bounded worker pool; -parallel bounds the
// workers (default: GOMAXPROCS). Results are independent of the setting.
//
// The compiled cluster simulator (DESIGN.md §9) makes panels far larger
// than the paper's tractable. -scale N multiplies the initial population
// and the client sweep of the fig12-15 panels; -ops N switches each panel
// point to the ops-bounded mode, stopping after exactly N measured commits
// instead of at -duration. Million-row/million-transaction panels:
//
//	atropos-exp -exp fig12 -bench SmallBank -scale 10000 -ops 1000000
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"atropos/internal/benchmarks"
	"atropos/internal/cluster"
	"atropos/internal/exp"
)

var (
	expName  = flag.String("exp", "table1", "experiment: table1, fig12, fig13, fig14, fig15, fig16, invariants, summary, baseline, drift, certify, chaos, scaling, all")
	benchArg = flag.String("bench", "", "benchmark for fig12/fig16 (default: the figure's benchmarks)")
	duration = flag.Int("duration", 90, "seconds of simulated time per performance point")
	clients  = flag.String("clients", "", "comma-separated client counts (default: paper's sweep)")
	rounds   = flag.Int("rounds", 20, "random-refactoring rounds for fig16")
	seed     = flag.Int64("seed", 42, "random seed")
	records  = flag.Int("records", 100, "benchmark population scale")
	scaleUp  = flag.Int("scale", 1, "multiply the fig12-15 population and client sweep by this factor")
	ops      = flag.Int64("ops", 0, "stop each fig12-15 point after this many commits instead of -duration (0 = duration-bounded)")
	parallel = flag.Int("parallel", 0, "worker goroutines for the experiment drivers (0 = GOMAXPROCS)")
	outPath  = flag.String("out", "", "write the baseline snapshot to this file (baseline experiment)")
	baseline = flag.String("baseline", "BENCH_baseline.json", "committed snapshot the drift experiment compares against")
	cpuProf  = flag.String("cpuprofile", "", "write a CPU profile of the experiment to this file")
	memProf  = flag.String("memprofile", "", "write an allocation profile of the experiment to this file")
	scenArg  = flag.String("scenarios", "", "comma-separated chaos scenario names (default: the full panel)")
	workers  = flag.String("workers", "", "comma-separated detection-parallelism widths for the scaling sweep (default 1,2,4,8)")
	smoke    = flag.Bool("smoke", false, "scaling: cheap 1-vs-2 worker smoke variant instead of the full sweep")
)

func main() {
	flag.Parse()
	// The heap-profile defer is registered first so it runs last (LIFO):
	// the CPU profile is stopped and flushed before the heap is written,
	// and a heap-profile failure warns instead of exiting so it can never
	// truncate the CPU profile.
	if *memProf != "" {
		defer func() {
			f, err := os.Create(*memProf)
			if err != nil {
				fmt.Fprintln(os.Stderr, "atropos-exp: -memprofile:", err)
				return
			}
			defer f.Close()
			runtime.GC() // settle the heap so the profile shows retained + cumulative allocs
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "atropos-exp: -memprofile:", err)
			}
		}()
	}
	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	switch *expName {
	case "table1":
		runTable1()
	case "fig12":
		runFig(12)
	case "fig13":
		runFig(13)
	case "fig14":
		runFig(14)
	case "fig15":
		runFig(15)
	case "fig16":
		runFig16()
	case "invariants":
		runInvariants()
	case "summary":
		runSummary()
	case "baseline":
		runBaseline()
	case "drift":
		runDrift()
	case "certify":
		runCertify()
	case "chaos":
		runChaos()
	case "scaling":
		runScaling()
	case "all":
		runTable1()
		runFig(12)
		runFig(13)
		runFig(14)
		runFig(15)
		runFig16()
		runInvariants()
		runSummary()
		runBaseline()
	default:
		fatal(fmt.Errorf("unknown experiment %q", *expName))
	}
}

func runTable1() {
	fmt.Println("== Table 1: statically identified anomalous access pairs ==")
	rows, err := exp.Table1(benchmarks.All(), exp.WithParallelism(*parallel))
	if err != nil {
		fatal(err)
	}
	fmt.Print(exp.FormatTable1(rows))
	fmt.Println()
}

// figBenches returns the benchmarks of each performance figure.
func figBenches(fig int) []*benchmarks.Benchmark {
	switch fig {
	case 12: // Fig. 12: SmallBank, SEATS, TPC-C on the US cluster
		return []*benchmarks.Benchmark{benchmarks.SmallBank, benchmarks.SEATS, benchmarks.TPCC}
	case 13:
		return []*benchmarks.Benchmark{benchmarks.SmallBank}
	case 14:
		return []*benchmarks.Benchmark{benchmarks.SEATS}
	default:
		return []*benchmarks.Benchmark{benchmarks.TPCC}
	}
}

func figTopologies(fig int) []cluster.Topology {
	if fig == 12 {
		return []cluster.Topology{cluster.USCluster}
	}
	return cluster.Topologies() // Figs. 13-15: VA, US, Global
}

func runFig(fig int) {
	benches := figBenches(fig)
	if *benchArg != "" {
		b := benchmarks.ByName(*benchArg)
		if b == nil {
			fatal(fmt.Errorf("unknown benchmark %q", *benchArg))
		}
		benches = []*benchmarks.Benchmark{b}
	}
	fmt.Printf("== Figure %d: throughput and latency vs clients ==\n", fig)
	if *scaleUp < 1 {
		fatal(fmt.Errorf("-scale must be >= 1"))
	}
	for _, b := range benches {
		for _, topo := range figTopologies(fig) {
			res, err := exp.Perf(exp.PerfConfig{
				Benchmark:    b,
				Topology:     topo,
				ClientCounts: clientCounts(b),
				Duration:     time.Duration(*duration) * time.Second,
				Ops:          *ops,
				Scale:        benchmarks.Scale{Records: *records * *scaleUp},
				Seed:         *seed,
				Parallelism:  *parallel,
			})
			if err != nil {
				fatal(err)
			}
			fmt.Print(res.Format())
			fmt.Println()
		}
	}
}

// clientCounts returns the sweep for one panel: an explicit -clients list
// verbatim, or the paper's default sweep multiplied by -scale (the paper
// sweeps to 250 clients for SmallBank, 125 for SEATS/TPC-C).
func clientCounts(b *benchmarks.Benchmark) []int {
	if *clients != "" {
		var out []int
		for _, part := range strings.Split(*clients, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(part))
			if err != nil {
				fatal(fmt.Errorf("bad -clients: %w", err))
			}
			out = append(out, n)
		}
		return out
	}
	sweep := []int{10, 25, 50, 75, 100, 125}
	if b.Name == "SmallBank" {
		sweep = []int{10, 50, 100, 150, 200, 250}
	}
	for i := range sweep {
		sweep[i] *= *scaleUp
	}
	return sweep
}

func runFig16() {
	fmt.Println("== Figure 16: random refactoring vs Atropos (App. A.3) ==")
	benches := []*benchmarks.Benchmark{benchmarks.SmallBank, benchmarks.SEATS, benchmarks.TPCC}
	if *benchArg != "" {
		b := benchmarks.ByName(*benchArg)
		if b == nil {
			fatal(fmt.Errorf("unknown benchmark %q", *benchArg))
		}
		benches = []*benchmarks.Benchmark{b}
	}
	for _, b := range benches {
		res, err := exp.Fig16(b, *rounds, 10, *seed)
		if err != nil {
			fatal(err)
		}
		fmt.Print(res.Format())
		fmt.Println()
	}
}

func runInvariants() {
	fmt.Println("== SmallBank application-level invariants (§7.1, App. A.2) ==")
	res, err := exp.Invariants(60, *seed)
	if err != nil {
		fatal(err)
	}
	fmt.Print(res.Format())
	fmt.Println()
}

func runSummary() {
	fmt.Println("== Headline aggregates ==")
	t1, err := exp.Table1(benchmarks.All(), exp.WithParallelism(*parallel))
	if err != nil {
		fatal(err)
	}
	s, err := exp.Summary(t1, 150, time.Duration(*duration)*time.Second, *seed, exp.WithParallelism(*parallel))
	if err != nil {
		fatal(err)
	}
	fmt.Print(s.Format())
}

func runBaseline() {
	fmt.Println("== Benchmark-regression baseline ==")
	b, err := exp.RunBaseline(exp.BaselineConfig{
		Duration:    time.Duration(*duration) * time.Second,
		Parallelism: *parallel,
		Seed:        *seed,
	})
	if err != nil {
		fatal(err)
	}
	buf, err := b.JSON()
	if err != nil {
		fatal(err)
	}
	if *outPath != "" {
		if err := os.WriteFile(*outPath, buf, 0o644); err != nil {
			fatal(err)
		}
		fmt.Printf("baseline written to %s (table1 %0.fms sequential, %0.fms parallel, %.2fx)\n",
			*outPath, b.Table1.SequentialMs, b.Table1.ParallelMs, b.Table1.SpeedupX)
		return
	}
	os.Stdout.Write(buf)
}

// runDrift is the CI perf-drift gate: it re-measures the per-benchmark
// repair counts (anomalies and SAT queries — deterministic and
// machine-independent) and fails if they diverge from the committed
// baseline snapshot. Wall-clock columns are never compared.
func runDrift() {
	fmt.Println("== Perf-drift gate: counts vs committed baseline ==")
	want, err := exp.LoadBaseline(*baseline)
	if err != nil {
		fatal(err)
	}
	got, err := exp.RunBaseline(exp.BaselineConfig{
		Duration:    time.Duration(*duration) * time.Second,
		Parallelism: *parallel,
		Seed:        *seed,
		CountsOnly:  true,
	})
	if err != nil {
		fatal(err)
	}
	drift := exp.CountDrift(got, want)
	if len(drift) == 0 {
		fmt.Printf("no drift: %d benchmarks match %s\n", len(got.Repairs), *baseline)
		return
	}
	for _, d := range drift {
		fmt.Fprintln(os.Stderr, "drift:", d)
	}
	fmt.Fprintf(os.Stderr, "atropos-exp: %d count divergences from %s — regenerate with `make baseline` if intentional\n", len(drift), *baseline)
	os.Exit(1)
}

// runScaling is the multi-core scaling baseline (`make baseline-mc`) and
// its CI smoke variant (`make scaling-smoke`): the Table-1 repair corpus
// measured at increasing detection-parallelism widths, gated on anomaly
// counts staying identical at every width plus — on hosts with enough
// cores — a 0.7 efficiency floor at 8 workers (full sweep) or a
// speedup > 1.0 at 2 workers (smoke).
func runScaling() {
	fmt.Println("== Multi-core scaling: Table-1 repairs vs detection workers ==")
	cfg := exp.ScalingConfig{Smoke: *smoke}
	if *workers != "" {
		for _, part := range strings.Split(*workers, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(part))
			if err != nil {
				fatal(fmt.Errorf("bad -workers: %w", err))
			}
			cfg.Workers = append(cfg.Workers, n)
		}
	}
	res, err := exp.RunScaling(cfg)
	if err != nil {
		fatal(err)
	}
	fmt.Print(res.Format())
	if *outPath != "" {
		buf, err := res.JSON()
		if err != nil {
			fatal(err)
		}
		if err := os.WriteFile(*outPath, buf, 0o644); err != nil {
			fatal(err)
		}
		fmt.Printf("scaling summary written to %s\n", *outPath)
	}
	for _, s := range exp.ScalingGateSkipped(res) {
		fmt.Println("skipped:", s)
	}
	if fails := exp.ScalingGate(res); len(fails) > 0 {
		for _, f := range fails {
			fmt.Fprintln(os.Stderr, "scaling:", f)
		}
		fmt.Fprintf(os.Stderr, "atropos-exp: %d scaling-gate failures\n", len(fails))
		os.Exit(1)
	}
	fmt.Println("scaling gate passed")
}

// runCertify is the witness-replay certification gate (`make certify`):
// every benchmark × weak model must replay ≥95% of its detected anomalous
// pairs as executable certificates, every benchmark must contribute at
// least one replayed schedule, and the negative controls — serial replays
// of the original program and projected replays of the repaired one — must
// show zero violations.
func runCertify() {
	fmt.Println("== Witness-replay certificates: detected pairs reproduced in the simulator ==")
	benches := benchmarks.All()
	rows, err := exp.CertifyGrid(benches, *parallel)
	if err != nil {
		fatal(err)
	}
	fmt.Print(exp.FormatCertify(rows))
	fmt.Println()
	fmt.Println("== Negative controls: serial (SC) and repaired-program replays (EC) ==")
	negs, err := exp.CertifyNegatives(benches, *parallel)
	if err != nil {
		fatal(err)
	}
	fmt.Print(exp.FormatCertifyNegatives(negs))
	if fails := exp.CertifyGate(rows, negs); len(fails) > 0 {
		for _, f := range fails {
			fmt.Fprintln(os.Stderr, "certify:", f)
		}
		fmt.Fprintf(os.Stderr, "atropos-exp: %d certification failures\n", len(fails))
		os.Exit(1)
	}
	fmt.Println("\ncertification gate passed: all rates >= 95%, negative controls clean")
}

// runChaos is the fault-injection gate (`make chaos`): every selected
// benchmark runs the named fault scenarios in the EC / SC / AT-SC
// deployments, and the sweep must show violations on some unrepaired EC
// run under faults while the SC control and the repaired transactions of
// every AT-SC run stay at zero.
func runChaos() {
	fmt.Println("== Chaos panel: Adya-style violations under deterministic fault schedules ==")
	cfg := exp.ChaosConfig{
		Seed:        *seed,
		Parallelism: *parallel,
	}
	if *benchArg != "" {
		b := benchmarks.ByName(*benchArg)
		if b == nil {
			fatal(fmt.Errorf("unknown benchmark %q", *benchArg))
		}
		cfg.Benchmarks = []*benchmarks.Benchmark{b}
	}
	if *scenArg != "" {
		for _, part := range strings.Split(*scenArg, ",") {
			cfg.Scenarios = append(cfg.Scenarios, strings.TrimSpace(part))
		}
	}
	res, err := exp.RunChaos(cfg)
	if err != nil {
		fatal(err)
	}
	fmt.Print(res.Format())
	if fails := exp.ChaosGate(res.Rows); len(fails) > 0 {
		for _, f := range fails {
			fmt.Fprintln(os.Stderr, "chaos:", f)
		}
		fmt.Fprintf(os.Stderr, "atropos-exp: %d chaos-gate failures\n", len(fails))
		os.Exit(1)
	}
	fmt.Printf("\nchaos gate passed (%.1fs): unrepaired EC violates under faults, SC control and repaired deployments clean\n",
		res.Wall.Seconds())
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "atropos-exp:", err)
	os.Exit(1)
}
