// Package corpus names the programs the tests run on, in one order: the
// nine benchmarks, then generated programs by progen seed. The golden table
// (testdata/cells.tsv) pins every (program, model) cell of Programs(Seeds)
// under Models.
package corpus

import (
	_ "embed"
	"fmt"
	"strconv"
	"strings"

	"atropos/internal/ast"
	"atropos/internal/benchmarks"
	"atropos/internal/progen"
	"atropos/internal/sema"
)

// Seeds is how many progen seeds the golden table covers: 0–96, so that
// the service population (seeds 1–96) is inside it.
const Seeds = 97

// Models are the consistency models of the golden table, in row order.
var Models = []string{"EC", "CC", "RR"}

// Columns are the golden table's columns after the cell name:
//   - pairs: the pairs a fresh session reports;
//   - sched: FNV-1a over each pair with its witness schedule;
//   - program: ast.HashProgram of the program repair.Run returns;
//   - remaining, queries, solved: that repair's remaining pairs and the
//     cycle queries its passes issued and decided;
//   - total, lowered, certified: replay.Certify's counts;
//   - outcomes: FNV-1a over every PairOutcome, trace lines included.
var Columns = []string{"pairs", "sched", "program", "remaining", "queries", "solved", "total", "lowered", "certified", "outcomes"}

// Header is the golden table's first line.
func Header() string { return "cell\t" + strings.Join(Columns, "\t") }

//go:embed testdata/cells.tsv
var cells string

// Row is one cell's values in the golden table, in the order of Columns,
// as the table writes them: counts in decimal, hashes in hex.
type Row []string

// Int is the row's value in the named column, as an int.
func (r Row) Int(col string) int { return int(r.Uint(col)) }

// Uint is the row's value in the named column, as a uint64.
func (r Row) Uint(col string) uint64 {
	if len(r) != len(Columns) {
		panic("corpus: cell not in the golden table")
	}
	for i, c := range Columns {
		if c == col {
			v, err := strconv.ParseUint(r[i], 0, 64)
			if err != nil {
				panic("corpus: column " + col + ": " + err.Error())
			}
			return v
		}
	}
	panic("corpus: no column " + col)
}

// Golden reads the golden table: cell name ("TPC-C/EC", "progen3/RR") →
// its row.
func Golden() (map[string]Row, error) {
	lines := strings.Split(strings.TrimSuffix(cells, "\n"), "\n")
	if lines[0] != Header() {
		return nil, fmt.Errorf("cells.tsv: header %q, want %q", lines[0], Header())
	}
	rows := map[string]Row{}
	for _, line := range lines[1:] {
		fs := strings.Split(line, "\t")
		if len(fs) != 1+len(Columns) {
			return nil, fmt.Errorf("cells.tsv: row %q has %d columns, want %d", line, len(fs), 1+len(Columns))
		}
		rows[fs[0]] = fs[1:]
	}
	return rows, nil
}

// Program is one corpus entry: a benchmark, or "progen<seed>".
type Program struct {
	Name string
	Prog *ast.Program
}

// Benchmarks lists the nine benchmarks.
func Benchmarks() []Program {
	var ps []Program
	for _, b := range benchmarks.All() {
		ps = append(ps, Program{b.Name, b.MustProgram()})
	}
	return ps
}

// Progen lists the generated programs of seeds from ≤ seed < to, each
// printed and parsed back, as a request body would be.
func Progen(from, to int64) []Program {
	var ps []Program
	for seed := from; seed < to; seed++ {
		prog, err := sema.Load(ast.Format(progen.Program(seed)))
		if err != nil {
			panic("corpus: progen " + strconv.FormatInt(seed, 10) + ": " + err.Error())
		}
		ps = append(ps, Program{"progen" + strconv.FormatInt(seed, 10), prog})
	}
	return ps
}

// Programs lists the nine benchmarks, then progen seeds 0 to seeds-1.
func Programs(seeds int64) []Program {
	return append(Benchmarks(), Progen(0, seeds)...)
}
