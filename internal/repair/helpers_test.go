package repair

import (
	"context"

	"atropos/internal/anomaly"
	"atropos/internal/ast"
)

// repairProg runs the pipeline with no option.
func repairProg(prog *ast.Program, model anomaly.Model) (*Result, error) {
	return Run(context.Background(), prog, model)
}
