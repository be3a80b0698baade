package exp

import (
	"context"
	"encoding/json"
	"fmt"
	"runtime"
	"strings"
	"time"

	"atropos/internal/anomaly"
	"atropos/internal/ast"
	"atropos/internal/benchmarks"
	"atropos/internal/repair"
)

// ScalingConfig configures the multi-core scaling baseline
// (`make baseline-mc`): the Table-1 repair corpus is measured end to end
// at increasing detection-parallelism widths, with the benchmarks run
// strictly one after another so the only concurrency is the (txn, witness)
// wavefront inside each detection session.
type ScalingConfig struct {
	// Workers are the detection-parallelism widths to measure, each an
	// explicit repair.Options.Parallelism value. Default: 1, 2, 4, 8.
	Workers []int
	// Repeats is the number of measurements per width; the best
	// (minimum) wall time is kept, which discards warmup and scheduler
	// noise. Each repeat visits every width in turn. Default 3.
	Repeats int
	// Smoke trims the sweep to widths 1 and 2 — the cheap variant
	// `make scaling-smoke` runs on every CI push. It keeps the best of
	// three repeats like the full sweep: the whole corpus now repairs in
	// under 0.1 s a width, where one scheduler hiccup decides a single run.
	Smoke bool
}

func (c ScalingConfig) orDefault() ScalingConfig {
	if c.Smoke {
		c.Workers = []int{1, 2}
		c.Repeats = 3
		return c
	}
	if len(c.Workers) == 0 {
		c.Workers = []int{1, 2, 4, 8}
	}
	if c.Repeats == 0 {
		c.Repeats = 3
	}
	return c
}

// ScalingPoint is one measured width of the sweep.
type ScalingPoint struct {
	// Workers is the detection-parallelism width.
	Workers int `json:"workers"`
	// WallMs is the best-of-Repeats wall time of the full corpus.
	WallMs float64 `json:"wall_ms"`
	// SpeedupX is wall(1)/wall(Workers).
	SpeedupX float64 `json:"speedup_x"`
	// Efficiency is SpeedupX/Workers — 1.0 is perfect linear scaling.
	Efficiency float64 `json:"efficiency"`
	// Pairs is the total anomalous access pairs reported across the
	// corpus; it must be identical at every width (the wavefront's
	// equivalence contract), and ScalingGate checks that it is.
	Pairs int `json:"pairs"`
}

// ScalingResult is a finished sweep. Wall times are machine-dependent;
// the Pairs column is not.
type ScalingResult struct {
	GOMAXPROCS int            `json:"gomaxprocs"`
	Smoke      bool           `json:"smoke,omitempty"`
	Points     []ScalingPoint `json:"points"`
	Wall       time.Duration  `json:"-"`
}

// JSON renders the summary for scaling-summary.json (gitignored: the
// wall-time columns are machine-dependent).
func (r *ScalingResult) JSON() ([]byte, error) {
	buf, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(buf, '\n'), nil
}

// RunScaling measures the sweep. Each width repairs every Table-1
// benchmark sequentially (no outer fan-out) so the measured speedup is
// the detection wavefront's alone.
func RunScaling(cfg ScalingConfig) (*ScalingResult, error) {
	cfg = cfg.orDefault()
	start := time.Now()
	benches := benchmarks.All()
	progs := make([]*astProgram, 0, len(benches))
	for _, b := range benches {
		p, err := b.Program()
		if err != nil {
			return nil, err
		}
		progs = append(progs, &astProgram{name: b.Name, prog: p})
	}

	for _, w := range cfg.Workers {
		if w < 1 {
			return nil, fmt.Errorf("scaling: worker width must be >= 1, got %d", w)
		}
	}
	// Repeats are the outer loop: a slow phase of the machine (the whole
	// sweep is a few hundred milliseconds) then lands on one repeat of
	// every width instead of on every repeat of one.
	best := make([]time.Duration, len(cfg.Workers))
	pairs := make([]int, len(cfg.Workers))
	for rep := 0; rep < cfg.Repeats; rep++ {
		for i, w := range cfg.Workers {
			t0 := time.Now()
			total := 0
			for _, p := range progs {
				r, err := repair.Run(context.Background(), p.prog, anomaly.EC, repair.Parallelism(w))
				if err != nil {
					return nil, fmt.Errorf("scaling: %s at %d workers: %w", p.name, w, err)
				}
				total += len(r.Initial)
			}
			wall := time.Since(t0)
			if rep == 0 || wall < best[i] {
				best[i] = wall
			}
			pairs[i] = total
		}
	}

	res := &ScalingResult{GOMAXPROCS: runtime.GOMAXPROCS(0), Smoke: cfg.Smoke}
	var base float64
	for i, w := range cfg.Workers {
		pt := ScalingPoint{Workers: w, WallMs: ms(best[i]), Pairs: pairs[i]}
		if w == 1 {
			base = pt.WallMs
		}
		if base > 0 && pt.WallMs > 0 {
			pt.SpeedupX = base / pt.WallMs
			pt.Efficiency = pt.SpeedupX / float64(w)
		}
		res.Points = append(res.Points, pt)
	}
	res.Wall = time.Since(start)
	return res, nil
}

// astProgram pairs a parsed benchmark with its name for error messages.
type astProgram struct {
	name string
	prog *ast.Program
}

// scalingEfficiencyFloor is the CI threshold: at 8 workers the sweep
// must retain at least this fraction of linear speedup.
const scalingEfficiencyFloor = 0.7

// ScalingGate checks the CI thresholds of a finished sweep and returns
// the failures (empty = pass). The anomaly-count equality check always
// runs — it is machine-independent. The timing thresholds self-skip on
// hosts without enough cores to make them meaningful: the 0.7 efficiency
// floor at 8 workers needs GOMAXPROCS >= 8, and the smoke-mode
// 2-vs-1 speedup needs GOMAXPROCS >= 2.
func ScalingGate(res *ScalingResult) []string {
	var fails []string
	for _, pt := range res.Points[1:] {
		if pt.Pairs != res.Points[0].Pairs {
			fails = append(fails, fmt.Sprintf(
				"anomaly counts diverge: %d pairs at %d workers vs %d at %d",
				pt.Pairs, pt.Workers, res.Points[0].Pairs, res.Points[0].Workers))
		}
	}
	for _, pt := range res.Points {
		if pt.Workers == 8 && res.GOMAXPROCS >= 8 && pt.Efficiency < scalingEfficiencyFloor {
			fails = append(fails, fmt.Sprintf(
				"scaling efficiency %.2f at 8 workers below the %.1f floor (speedup %.2fx)",
				pt.Efficiency, scalingEfficiencyFloor, pt.SpeedupX))
		}
		if res.Smoke && pt.Workers == 2 && res.GOMAXPROCS >= 2 && pt.SpeedupX <= 1.0 {
			fails = append(fails, fmt.Sprintf(
				"smoke: 2 workers did not beat 1 (speedup %.2fx)", pt.SpeedupX))
		}
	}
	return fails
}

// ScalingGateSkipped reports which timing thresholds the host cannot
// check, for the gate's log line.
func ScalingGateSkipped(res *ScalingResult) []string {
	var skipped []string
	if res.GOMAXPROCS < 8 {
		skipped = append(skipped, fmt.Sprintf("8-worker efficiency floor (GOMAXPROCS=%d < 8)", res.GOMAXPROCS))
	}
	if res.Smoke && res.GOMAXPROCS < 2 {
		skipped = append(skipped, fmt.Sprintf("smoke speedup check (GOMAXPROCS=%d < 2)", res.GOMAXPROCS))
	}
	return skipped
}

// Format renders the sweep as the EXPERIMENTS.md scaling table.
func (r *ScalingResult) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-8s %10s %9s %11s %7s\n", "workers", "wall(ms)", "speedup", "efficiency", "pairs")
	for _, pt := range r.Points {
		fmt.Fprintf(&b, "%-8d %10.1f %8.2fx %11.2f %7d\n",
			pt.Workers, pt.WallMs, pt.SpeedupX, pt.Efficiency, pt.Pairs)
	}
	fmt.Fprintf(&b, "GOMAXPROCS=%d, %.1fs total\n", r.GOMAXPROCS, r.Wall.Seconds())
	return b.String()
}
