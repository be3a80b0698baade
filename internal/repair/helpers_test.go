package repair

import (
	"context"
	"os"
	"strconv"

	"atropos/internal/anomaly"
	"atropos/internal/ast"
)

// testWidth is the detection width the package's tests repair at when they
// do not pin one: the default rule (0), or the width `make race-par` forces
// through ATROPOS_TEST_PARALLELISM so the wavefront runs under contention
// regardless of host core count.
func testWidth() int {
	if n, err := strconv.Atoi(os.Getenv("ATROPOS_TEST_PARALLELISM")); err == nil && n > 0 {
		return n
	}
	return 0
}

// repairProg runs the pipeline with no option but the test width.
func repairProg(prog *ast.Program, model anomaly.Model) (*Result, error) {
	return repairOpts(prog, model, Options{})
}

// repairOpts runs the pipeline under opts, at the test width unless opts
// pins one.
func repairOpts(prog *ast.Program, model anomaly.Model, opts Options) (*Result, error) {
	if opts.Parallelism == 0 {
		opts.Parallelism = testWidth()
	}
	return RunWith(context.Background(), prog, model, opts)
}
