// Command atropos analyzes and repairs database programs: it reports the
// anomalous access pairs found under a consistency model and prints the
// refactored program.
//
// Usage:
//
//	atropos [flags] program.dsl ...   # analyze + repair DSL files
//	atropos [flags] -bench SmallBank
//
// Flags:
//
//	-model EC|CC|RR|SC   consistency model (default EC)
//	-analyze             only detect anomalies, do not repair
//	-steps               print the refactoring steps applied
//	-bench NAME          use built-in benchmarks instead of files
//	                     (comma-separated names, or "all")
//	-parallel N          analyze inputs on N workers (0 = GOMAXPROCS);
//	                     with one input, the detection fan-out width
//	                     (0 = min(GOMAXPROCS, 4))
//	-certify             replay every detected anomaly as an executable
//	                     certificate in the cluster simulator; with
//	                     repair, also run the SC and repaired-program
//	                     negative controls
//
// Multiple inputs are analyzed concurrently on a bounded worker pool;
// output order matches input order.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"

	"atropos"
	"atropos/internal/pool"
)

func main() {
	model := flag.String("model", "EC", "consistency model: EC, CC, RR, or SC")
	analyzeOnly := flag.Bool("analyze", false, "only detect anomalies")
	showSteps := flag.Bool("steps", false, "print refactoring steps")
	benchName := flag.String("bench", "", `built-in benchmark names, comma-separated, or "all"`)
	outPath := flag.String("out", "", "write the refactored program to this file instead of stdout (single input only)")
	parallel := flag.Int("parallel", 0, "worker goroutines for multiple inputs (0 = GOMAXPROCS); with one input, the detection fan-out width (0 = min(GOMAXPROCS, 4))")
	certify := flag.Bool("certify", false, "replay every detected anomaly as an executable certificate in the cluster simulator")
	flag.Parse()

	m, err := atropos.ParseModel(*model)
	if err != nil {
		fatal(err)
	}
	inputs, err := loadInputs(*benchName, flag.Args())
	if err != nil {
		fatal(err)
	}
	if *outPath != "" && len(inputs) != 1 {
		fatal(fmt.Errorf("-out requires exactly one input, got %d", len(inputs)))
	}

	// Analyze/repair every input concurrently on a bounded worker pool;
	// buffer per-input output so the report order matches the input order.
	// With multiple inputs -parallel fans out across them and detection
	// inside each stays sequential (the cores are already claimed); with a
	// single input it instead bounds the detection session's (txn, witness)
	// fan-out, defaulting to the multi-core fast path (reports are
	// identical at every setting).
	width := 1
	if len(inputs) == 1 {
		width = *parallel
	}
	ctx := context.Background()
	outputs := make([]string, len(inputs))
	err = pool.ForEach(pool.Workers(*parallel), len(inputs), func(i int) error {
		var perr error
		outputs[i], perr = process(ctx, inputs[i], m, *analyzeOnly, *showSteps, *certify, *outPath, width)
		return perr
	})
	if err != nil {
		fatal(err)
	}
	for _, out := range outputs {
		fmt.Print(out)
	}
}

type input struct {
	name string
	prog *atropos.Program
}

// process runs one input through the pipeline, returning its full report.
func process(ctx context.Context, in input, m atropos.Model, analyzeOnly, showSteps, certify bool, outPath string, width int) (string, error) {
	var b strings.Builder
	if analyzeOnly {
		if certify {
			cert, report, err := atropos.Certify(ctx, in.prog, m)
			if err != nil {
				return "", err
			}
			fmt.Fprintf(&b, "%s: %d anomalous access pairs under %s, %d certified by replay (%.0f%%)\n",
				in.name, report.Count(), m, cert.Certified, 100*cert.Rate())
			for _, out := range cert.Outcomes {
				status := "replayed " + out.Method
				if !out.Reproduced {
					status = "not reproduced: " + out.Reason
				}
				fmt.Fprintf(&b, "  %s  [%s]\n", out.Pair, status)
			}
			return b.String(), nil
		}
		s := atropos.NewDetectSession(m)
		s.SetParallelism(width)
		report, err := s.DetectContext(ctx, in.prog)
		if err != nil {
			return "", err
		}
		fmt.Fprintf(&b, "%s: %d anomalous access pairs under %s\n", in.name, report.Count(), m)
		for _, p := range report.Pairs {
			fmt.Fprintf(&b, "  %s\n", p)
		}
		return b.String(), nil
	}

	res, err := atropos.Repair(ctx, in.prog, m, atropos.WithCertify(certify), atropos.WithDetectParallelism(width))
	if err != nil {
		return "", err
	}
	fmt.Fprintf(&b, "%s: %d anomalies under %s, %d remaining after repair (%.1fs)\n",
		in.name, len(res.Initial), m, len(res.Remaining), res.Elapsed.Seconds())
	fmt.Fprintf(&b, "SAT queries: %d issued, %d solved (%.0f%% cached); pair encoders: %d planned, %d built\n",
		res.Stats.Queries, res.Stats.Solved+res.Stats.Replayed, 100*res.Stats.CacheHitRate(),
		res.Stats.EncodersPlanned, res.Stats.EncodersBuilt)
	if c := res.Certificate; c != nil {
		fmt.Fprintf(&b, "certificates: %d/%d anomalies replayed (%.0f%%); SC controls %d/%d violations, repaired controls %d/%d\n",
			c.Certified, c.Total, 100*c.Rate(),
			c.SCViolations, c.SCRuns, c.RepairedViolations, c.RepairedRuns)
	}
	if showSteps {
		fmt.Fprintln(&b, "steps:")
		for _, s := range res.Steps {
			fmt.Fprintf(&b, "  %s\n", s)
		}
	}
	if len(res.Remaining) > 0 {
		fmt.Fprintf(&b, "transactions still requiring SC: %s\n", strings.Join(res.SerializableTxns, ", "))
	}
	text := atropos.Format(res.Program)
	if outPath != "" {
		if err := os.WriteFile(outPath, []byte(text), 0o644); err != nil {
			return "", err
		}
		fmt.Fprintf(&b, "refactored program written to %s\n", outPath)
		return b.String(), nil
	}
	fmt.Fprintf(&b, "\n-- refactored program --\n%s\n", text)
	return b.String(), nil
}

func loadInputs(benchNames string, args []string) ([]input, error) {
	if benchNames != "" {
		var benches []*atropos.Benchmark
		if benchNames == "all" {
			benches = atropos.Benchmarks()
		} else {
			for _, name := range strings.Split(benchNames, ",") {
				b := atropos.BenchmarkByName(strings.TrimSpace(name))
				if b == nil {
					var names []string
					for _, bb := range atropos.Benchmarks() {
						names = append(names, bb.Name)
					}
					return nil, fmt.Errorf("unknown benchmark %q (have: %s)", name, strings.Join(names, ", "))
				}
				benches = append(benches, b)
			}
		}
		var out []input
		for _, b := range benches {
			p, err := b.Program()
			if err != nil {
				return nil, err
			}
			out = append(out, input{name: b.Name, prog: p})
		}
		return out, nil
	}
	if len(args) == 0 {
		return nil, fmt.Errorf("usage: atropos [flags] program.dsl ... (or -bench NAME[,NAME...])")
	}
	var out []input
	for _, path := range args {
		src, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		p, err := atropos.Parse(string(src))
		if err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out = append(out, input{name: path, prog: p})
	}
	return out, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "atropos:", err)
	os.Exit(1)
}
