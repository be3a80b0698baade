package refactor

import (
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"slices"
	"strings"
	"testing"

	"atropos/internal/ast"
	"atropos/internal/corpus"
)

// rulesObserved is where a failing TestRulesGolden writes the table it
// computed.
const rulesObserved = "testdata/rules.observed.tsv"

// TestRulesGolden pins every rule's outcome on inputs repair mostly never
// tries, for the nine benchmarks and progen seeds 0–95: one row per
// program in testdata/rules.tsv (program, outcome count, FNV-1a digest of
// the outcome lines). An outcome line is the rule's error text or the
// ast.HashProgram of its result. The outcomes are Merge on every ordered
// same-table command pair of each transaction; the split into singleton
// groups of every select and update with two or more own fields;
// DeadSelects of each transaction; RemoveDeadSelects of the program; and,
// for every int field some update sets, BuildLoggerSchema, ApplyCorr and
// then GCSchemas. A failing run writes the observed table to
// testdata/rules.observed.tsv (git-ignored); after a deliberate change,
// diff the two and move it over the table.
func TestRulesGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/rules.tsv")
	if err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	for _, c := range corpus.Programs(96) {
		h := fnv.New64a()
		n := ruleOutcomes(h, c.Prog)
		fmt.Fprintf(&out, "%s\t%d\t%#016x\n", c.Name, n, h.Sum64())
	}
	wantLines := strings.Split(strings.TrimSuffix(string(want), "\n"), "\n")
	gotLines := strings.Split(strings.TrimSuffix(out.String(), "\n"), "\n")
	if len(wantLines) != len(gotLines) {
		t.Errorf("%d programs, golden %d", len(gotLines), len(wantLines))
	}
	for i := 0; i < min(len(wantLines), len(gotLines)); i++ {
		if wantLines[i] != gotLines[i] {
			t.Errorf("got  %s\nwant %s", gotLines[i], wantLines[i])
		}
	}
	if t.Failed() {
		if err := os.WriteFile(rulesObserved, []byte(out.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// ruleOutcomes writes one line per rule outcome on p to w and returns the
// number of lines.
func ruleOutcomes(w io.Writer, p *ast.Program) int {
	n := 0
	emit := func(probe string, np *ast.Program, err error, extra ...any) {
		n++
		if err != nil {
			fmt.Fprintf(w, "%s: %v\n", probe, err)
			return
		}
		fmt.Fprintf(w, "%s: %#016x %v\n", probe, ast.HashProgram(np), extra)
	}
	for _, tx := range p.Txns {
		cmds := tx.Commands()
		for i, c1 := range cmds {
			for j, c2 := range cmds {
				if i != j && c1.TableName() == c2.TableName() {
					np, err := Merge(p, tx.Name, c1.CmdLabel(), c2.CmdLabel())
					emit("merge "+tx.Name+"."+c1.CmdLabel()+"+"+c2.CmdLabel(), np, err)
				}
			}
		}
		for _, c := range cmds {
			var own []string
			switch x := c.(type) {
			case *ast.Update:
				for _, a := range x.Sets {
					own = append(own, a.Field)
				}
			case *ast.Select:
				if !x.Star {
					own = x.Fields
				}
			}
			if len(own) < 2 {
				continue
			}
			groups := make([][]string, len(own))
			for i, f := range own {
				groups[i] = []string{f}
			}
			np, err := Split(p, tx.Name, c.CmdLabel(), groups)
			emit("split "+tx.Name+"."+c.CmdLabel(), np, err)
		}
		n++
		fmt.Fprintf(w, "dead %s: %v\n", tx.Name, DeadSelects(tx))
	}
	np, removed := RemoveDeadSelects(p)
	emit("remove-dead", np, nil, removed)
	type field struct{ table, name string }
	var logged []field
	for _, tx := range p.Txns {
		for _, c := range tx.Commands() {
			u, ok := c.(*ast.Update)
			if !ok {
				continue
			}
			for _, a := range u.Sets {
				f := field{u.Table, a.Field}
				if sf := p.Schema(f.table).Field(f.name); sf != nil && sf.Type == ast.TInt && !slices.Contains(logged, f) {
					logged = append(logged, f)
				}
			}
		}
	}
	for _, f := range logged {
		probe := "logger " + f.table + "." + f.name
		lp, corr, err := BuildLoggerSchema(p, f.table, f.name)
		if err != nil {
			emit(probe, nil, err)
			continue
		}
		ap, err := ApplyCorr(lp, corr)
		emit(probe, ap, err, corr)
		if err != nil {
			continue
		}
		gp, tables := GCSchemas(ap, map[string]map[string]bool{f.table: {f.name: true}})
		emit("gc "+f.table+"."+f.name, gp, nil, tables)
	}
	return n
}
