package exp

import (
	"context"
	"fmt"
	"math/rand"
	"strings"

	"atropos/internal/anomaly"
	"atropos/internal/ast"
	"atropos/internal/benchmarks"
	"atropos/internal/refactor"
	"atropos/internal/repair"
)

// Fig16Point is one round of the random-refactoring ablation (App. A.3):
// the anomaly count after applying a batch of random refactorings.
type Fig16Point struct {
	Round     int
	Applied   int // refactorings that validated and applied
	Anomalies int
}

// Fig16Result compares random search against the oracle-guided repair.
type Fig16Result struct {
	Benchmark string
	Original  int // anomalies in the unmodified program
	Atropos   int // anomalies after oracle-guided repair (the blue line)
	Points    []Fig16Point
}

// Fig16 reproduces Appendix A.3: each round applies perRound random
// refactorings (random redirect or logger correspondences, merges, and
// splits — validity-checked, invalid draws are skipped) to the original
// program and counts the remaining anomalies, against the anomaly
// count of Atropos's oracle-guided repair.
func Fig16(b *benchmarks.Benchmark, rounds, perRound int, seed int64) (*Fig16Result, error) {
	prog, err := b.Program()
	if err != nil {
		return nil, err
	}
	// The rounds detect N variants of the same base program — the
	// detection session's exact use case: unchanged transactions are
	// answered from cache.
	detect := anomaly.NewSession(anomaly.EC).Detect
	ec, err := detect(prog)
	if err != nil {
		return nil, err
	}
	rep, err := repair.Run(context.Background(), prog, anomaly.EC)
	if err != nil {
		return nil, err
	}
	out := &Fig16Result{Benchmark: b.Name, Original: ec.Count(), Atropos: len(rep.Remaining)}
	for round := 1; round <= rounds; round++ {
		rng := rand.New(rand.NewSource(seed + int64(round)))
		// Every refactoring drawn is copy-on-write, so a round starts from
		// prog itself and leaves it as it was.
		p := prog
		applied := 0
		attempts := 0
		for applied < perRound && attempts < perRound*30 {
			attempts++
			if np, ok := randomRefactoring(p, rng); ok {
				p = np
				applied++
			}
		}
		r, err := detect(p)
		if err != nil {
			return nil, err
		}
		out.Points = append(out.Points, Fig16Point{Round: round, Applied: applied, Anomalies: r.Count()})
	}
	return out, nil
}

// randomRefactoring draws one refactoring and applies it if it validates.
func randomRefactoring(p *ast.Program, rng *rand.Rand) (*ast.Program, bool) {
	switch rng.Intn(3) {
	case 0:
		return randomRedirect(p, rng)
	case 1:
		return randomLogger(p, rng)
	default:
		return randomMerge(p, rng)
	}
}

func randomSchema(p *ast.Program, rng *rand.Rand) *ast.Schema {
	if len(p.Schemas) == 0 {
		return nil
	}
	return p.Schemas[rng.Intn(len(p.Schemas))]
}

// randomRedirect moves a random non-key field onto a random destination
// table with a randomly guessed θ̂.
func randomRedirect(p *ast.Program, rng *rand.Rand) (*ast.Program, bool) {
	src := randomSchema(p, rng)
	dst := randomSchema(p, rng)
	if src == nil || dst == nil || src.Name == dst.Name {
		return p, false
	}
	nonKey := src.NonKeyFields()
	if len(nonKey) == 0 {
		return p, false
	}
	f := nonKey[rng.Intn(len(nonKey))]
	theta := map[string]string{}
	for _, pk := range src.PrimaryKey() {
		// Guess a random destination field of the same type.
		var candidates []string
		for _, df := range dst.Fields {
			if df.Type == pk.Type {
				candidates = append(candidates, df.Name)
			}
		}
		if len(candidates) == 0 {
			return p, false
		}
		theta[pk.Name] = candidates[rng.Intn(len(candidates))]
	}
	dstField := refactor.DstFieldName(dst, f.Name)
	np, err := refactor.IntroField(p, dst.Name, ast.Field{Name: dstField, Type: f.Type})
	if err != nil {
		return p, false
	}
	np, err = refactor.ApplyCorr(np, refactor.ValueCorr{
		SrcTable: src.Name, SrcField: f.Name,
		DstTable: dst.Name, DstField: dstField,
		Theta: theta, Agg: ast.AggAny,
	})
	if err != nil {
		return p, false
	}
	return np, true
}

// randomLogger turns a random int field into a logging table.
func randomLogger(p *ast.Program, rng *rand.Rand) (*ast.Program, bool) {
	src := randomSchema(p, rng)
	if src == nil {
		return p, false
	}
	var ints []string
	for _, f := range src.NonKeyFields() {
		if f.Type == ast.TInt {
			ints = append(ints, f.Name)
		}
	}
	if len(ints) == 0 {
		return p, false
	}
	np, corr, err := refactor.BuildLoggerSchema(p, src.Name, ints[rng.Intn(len(ints))])
	if err != nil {
		return p, false
	}
	np, err = refactor.ApplyCorr(np, corr)
	if err != nil {
		return p, false
	}
	return np, true
}

// randomMerge merges two random same-kind commands of a random transaction.
func randomMerge(p *ast.Program, rng *rand.Rand) (*ast.Program, bool) {
	if len(p.Txns) == 0 {
		return p, false
	}
	t := p.Txns[rng.Intn(len(p.Txns))]
	cmds := ast.Commands(t.Body)
	if len(cmds) < 2 {
		return p, false
	}
	i := rng.Intn(len(cmds))
	j := rng.Intn(len(cmds))
	if i == j {
		return p, false
	}
	np, err := refactor.Merge(p, t.Name, cmds[i].CmdLabel(), cmds[j].CmdLabel())
	if err != nil {
		return p, false
	}
	return np, true
}

// Format renders the ablation like the paper's scatter: one row per round
// plus the Atropos reference line.
func (r *Fig16Result) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "=== %s: random refactoring vs Atropos ===\n", r.Benchmark)
	fmt.Fprintf(&b, "original anomalies: %d; Atropos repaired program: %d\n", r.Original, r.Atropos)
	fmt.Fprintf(&b, "%8s %10s %10s\n", "round", "applied", "anomalies")
	better := 0
	for _, pt := range r.Points {
		fmt.Fprintf(&b, "%8d %10d %10d\n", pt.Round, pt.Applied, pt.Anomalies)
		if pt.Anomalies <= r.Atropos {
			better++
		}
	}
	fmt.Fprintf(&b, "rounds at or below the Atropos line: %d/%d\n", better, len(r.Points))
	return b.String()
}
