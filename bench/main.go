// Command bench is the benchmark of the whole Atropos-Go pipeline: four
// workloads, seven end-to-end metrics measured with tracing off, and the
// per-layer numbers of a separately traced run. See README.md.
//
//	bash bench/run.sh                                   every workload, both runs, a report
//	bash bench/run.sh -repeat 2                         the same twice, compared with itself
//	bash bench/run.sh -compare a.json b.json            two result files, metric by metric
//	bash bench/run.sh --workload W --seed N --seconds S --trace 0|1
//	                                                    one run, one JSON line (BENCHMARK.json)
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "run one workload and print one JSON line (default: all four, with a report)")
	seed := fs.Int64("seed", 1, "seed of every generated input")
	seconds := fs.Float64("seconds", 25, "how long one run measures")
	trace := fs.Int("trace", 0, "with -workload: 0 reports the end-to-end metrics, 1 the per-layer metrics of a traced run")
	repeat := fs.Int("repeat", 1, "run everything this many times; with 2 or more, compare the first two")
	compare := fs.Bool("compare", false, "compare two result files given as arguments")
	record := fs.Bool("record", false, "write what this run saw to <out>/expected.observed.json, in expected.json's format")
	out := fs.String("out", "bench/out", "directory for trace and result files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	if *compare {
		if fs.NArg() != 2 {
			return fail(fmt.Errorf("-compare takes two result files"))
		}
		a, err := readReport(fs.Arg(0))
		if err != nil {
			return fail(err)
		}
		b, err := readReport(fs.Arg(1))
		if err != nil {
			return fail(err)
		}
		if worse := compareRuns(stdout, a.Runs, b.Runs); worse > 0 {
			return 1
		}
		return 0
	}
	exp, err := loadExpectations(*seed)
	if err != nil {
		return fail(err)
	}
	exp.recording = *record
	d := time.Duration(*seconds * float64(time.Second))

	if *workload != "" {
		w := workloadByName(*workload)
		if w == nil {
			return fail(fmt.Errorf("unknown workload %q", *workload))
		}
		var res *result
		if *trace == 1 {
			res, err = runTraced(w, *seed, d, exp, *out)
		} else {
			res, err = runEndToEnd(w, *seed, d, exp)
		}
		if err != nil {
			return fail(err)
		}
		for _, f := range res.Failures {
			fmt.Fprintln(stderr, "bench: wrong output:", f)
		}
		fmt.Fprintf(stderr, "bench: %s seed %d: %d ops attempted, %d failed, verified: %s\n", res.Workload, *seed, res.Attempted, res.Failed, res.Verified)
		fmt.Fprintln(stdout, contractLine(res))
		return 0
	}

	rep := report{Env: readEnv(), Seed: *seed, Seconds: *seconds}
	failed := 0
	for i := 0; i < *repeat; i++ {
		var p pass
		for _, w := range workloads() {
			fmt.Fprintf(stderr, "bench: run %d: %s\n", i+1, w.name())
			e2e, err := runEndToEnd(w, *seed, d, exp)
			if err != nil {
				return fail(err)
			}
			layers, err := runTraced(w, *seed, d, exp, *out)
			if err != nil {
				return fail(err)
			}
			failed += e2e.Failed + layers.Failed
			p.Workloads = append(p.Workloads, workloadResult{Name: w.name(), EndToEnd: e2e, PerLayer: layers})
		}
		rep.Runs = append(rep.Runs, p)
		printPass(stdout, &rep, &p)
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		return fail(err)
	}
	if err := writeJSON(filepath.Join(*out, "result.json"), &rep); err != nil {
		return fail(err)
	}
	if *record {
		if err := exp.record(filepath.Join(*out, "expected.observed.json"), *seed); err != nil {
			return fail(err)
		}
	}
	worse := 0
	if len(rep.Runs) >= 2 {
		worse = compareRuns(stdout, rep.Runs[:1], rep.Runs[1:2])
	}
	if failed > 0 || worse > 0 {
		fmt.Fprintf(stderr, "bench: %d wrong outputs, %d metrics worse\n", failed, worse)
		return 1
	}
	return 0
}

// contractLine is the one JSON object BENCHMARK.json's driver reads.
func contractLine(res *result) string {
	defs := endToEnd
	if res.Trace {
		defs = perLayer
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.Failed == 0, res.Attempted, res.Failed, map[string]value{}}
	for _, m := range defs {
		line.Metrics[m.Name] = value{res.Metrics[m.Name], m.Unit}
	}
	b, err := json.Marshal(line)
	if err != nil {
		panic(err) // numbers and strings; a NaN here is a harness bug
	}
	return string(b)
}

// env is the machine and build the numbers came from.
type env struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPU        string `json:"cpu"`
	Go         string `json:"go"`
	Commit     string `json:"commit"`
}

func readEnv() env {
	e := env{NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version(), CPU: "unknown", Commit: "unknown"}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				e.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				e.Commit = s.Value
			}
		}
	}
	return e
}

// report is the result file of a full run: every workload's two runs, once
// per -repeat.
type report struct {
	Env     env     `json:"env"`
	Seed    int64   `json:"seed"`
	Seconds float64 `json:"seconds"`
	Runs    []pass  `json:"runs"`
}

type pass struct {
	Workloads []workloadResult `json:"workloads"`
}

type workloadResult struct {
	Name     string  `json:"name"`
	EndToEnd *result `json:"end_to_end"`
	PerLayer *result `json:"per_layer"`
}

func readReport(path string) (*report, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r report
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// printPass prints every metric of one pass by name, with its unit.
func printPass(w io.Writer, rep *report, p *pass) {
	e := rep.Env
	fmt.Fprintf(w, "machine: nproc %d, GOMAXPROCS %d, %s, %s, commit %s, seed %d, %g s per run\n",
		e.NProc, e.GOMAXPROCS, e.CPU, e.Go, e.Commit, rep.Seed, rep.Seconds)
	for _, wr := range p.Workloads {
		r := wr.EndToEnd
		fmt.Fprintf(w, "\n== %s: %d timed ops, %d attempted, %d failed, fail_share %g, verified: %s\n",
			wr.Name, r.Samples, r.Attempted+wr.PerLayer.Attempted, r.Failed+wr.PerLayer.Failed,
			float64(r.Failed+wr.PerLayer.Failed)/float64(r.Attempted+wr.PerLayer.Attempted), r.Verified)
		for _, f := range append(r.Failures, wr.PerLayer.Failures...) {
			fmt.Fprintf(w, "   wrong output: %s\n", f)
		}
		for _, m := range endToEnd {
			fmt.Fprintf(w, "   %-28s %14.6g %s\n", m.Name, r.Metrics[m.Name], m.Unit)
		}
		fmt.Fprintf(w, "   cells (median ms):")
		for _, c := range sortedKeys(r.Cells) {
			fmt.Fprintf(w, " %s=%.4g", c, r.Cells[c])
		}
		fmt.Fprintf(w, "\n   per layer (traced run, %d traced ops):\n", wr.PerLayer.Samples)
		for _, m := range perLayer {
			fmt.Fprintf(w, "   %-28s %14.6g %s\n", m.Name, wr.PerLayer.Metrics[m.Name], m.Unit)
		}
	}
}
