package corpus_test

import (
	"context"
	"fmt"
	"hash/fnv"
	"os"
	"strconv"
	"strings"
	"testing"

	"atropos/internal/anomaly"
	"atropos/internal/ast"
	"atropos/internal/corpus"
	"atropos/internal/repair"
	"atropos/internal/replay"
)

// observed is where a failing TestCells writes the table it computed.
const observed = "testdata/cells.observed.tsv"

// scheduleText is everything a witness schedule says: the transactions it
// names, every item with its key pins, the execution order, the visibility
// matrix, the aliasing valuation and both cycle edges. internal/replay's
// TestWitnessScheduleGolden hashes the same text into the same column.
func scheduleText(s *anomaly.Schedule) string {
	if s == nil {
		return "<nil>\n"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s %s %d\n", s.TxnA, s.TxnB, s.NA)
	for _, it := range s.Items {
		fmt.Fprintf(&b, "item %d %d %s %s", it.Inst, it.Idx, it.Label, it.Table)
		for _, p := range it.Pins {
			fmt.Fprintf(&b, " [%s %s %d %s]", p.Field, p.Term, p.Kind, ast.ExprString(p.Expr))
		}
		b.WriteByte('\n')
	}
	fmt.Fprintf(&b, "order %v\n", s.Order)
	for _, row := range s.Vis {
		fmt.Fprintf(&b, "vis %v\n", row)
	}
	for _, eq := range s.Eqs {
		fmt.Fprintf(&b, "eq %s %s %s %s %t\n", eq.Table, eq.Field, eq.A, eq.B, eq.Equal)
	}
	for _, e := range []anomaly.SchedEdge{s.Edge1, s.Edge2} {
		fmt.Fprintf(&b, "edge %d %d %s %v\n", e.From, e.To, e.Kind, e.Fields)
	}
	return b.String()
}

// outcomeText is everything a PairOutcome says, one line per trace event.
func outcomeText(out replay.PairOutcome) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s|%t|%t|%t|%s|%s|%d\n",
		out.Pair, out.Lowered, out.Reproduced, out.Exact, out.Method, out.Reason, len(out.Trace))
	for _, line := range out.Trace {
		fmt.Fprintln(&b, line)
	}
	return b.String()
}

// cell is one (program, model) cell's columns, and its certificate.
type cell struct {
	pairs                      int
	sched, program             uint64
	remaining, queries, solved int
	cert                       *replay.Certificate
	outcomes                   uint64
}

func (c cell) row() []string {
	hex := func(h uint64) string { return fmt.Sprintf("%#016x", h) }
	return []string{
		strconv.Itoa(c.pairs), hex(c.sched), hex(c.program),
		strconv.Itoa(c.remaining), strconv.Itoa(c.queries), strconv.Itoa(c.solved),
		strconv.Itoa(c.cert.Total), strconv.Itoa(c.cert.Lowered), strconv.Itoa(c.cert.Certified), hex(c.outcomes),
	}
}

// cellOf computes every column of one cell in one pass.
func cellOf(t *testing.T, name string, prog *ast.Program, m anomaly.Model) cell {
	rep, err := anomaly.NewSession(m).Detect(prog)
	if err != nil {
		t.Fatalf("%s: detection: %v", name, err)
	}
	scheds := anomaly.WitnessSchedules(prog, rep)
	if len(scheds) != len(rep.Pairs) {
		t.Fatalf("%s: %d schedules for %d pairs", name, len(scheds), len(rep.Pairs))
	}
	sh := fnv.New64a()
	for j, p := range rep.Pairs {
		fmt.Fprintf(sh, "%s\n%s", p, scheduleText(scheds[j]))
	}
	res, err := repair.Run(context.Background(), prog, m)
	if err != nil {
		t.Fatalf("%s: repair: %v", name, err)
	}
	if len(res.Initial) != len(rep.Pairs) {
		t.Errorf("%s: repair starts from %d pairs, detection reports %d", name, len(res.Initial), len(rep.Pairs))
	}
	cert := replay.Certify(prog, rep)
	oh := fnv.New64a()
	for _, out := range cert.Outcomes {
		oh.Write([]byte(outcomeText(out)))
	}
	return cell{
		pairs: len(rep.Pairs), sched: sh.Sum64(), program: ast.HashProgram(res.Program),
		remaining: len(res.Remaining), queries: res.Stats.Queries, solved: res.Stats.Solved,
		cert: cert, outcomes: oh.Sum64(),
	}
}

// TestCells computes every cell of the corpus — the nine benchmarks and
// progen seeds 0–96, each under EC, CC and RR — and compares it with
// testdata/cells.tsv, naming each moved cell with only the columns that
// moved ("progen3/EC: pairs 6→5, …", table value first). A failing run
// also writes the whole observed table to testdata/cells.observed.tsv
// (git-ignored). To re-record after a deliberate change, review the diff
// and move it over the table:
//
//	go test ./internal/corpus
//	diff internal/corpus/testdata/cells.tsv internal/corpus/testdata/cells.observed.tsv
//	mv internal/corpus/testdata/cells.observed.tsv internal/corpus/testdata/cells.tsv
func TestCells(t *testing.T) {
	want, err := corpus.Golden()
	if err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	out.WriteString(corpus.Header() + "\n")
	// Sums over rows: the service population (progen 1–96 under EC) and
	// the progen 0–31 repairs under EC.
	var total, lowered, certified, initial, remaining int
	methods := map[string]int{}
	nbench := len(corpus.Benchmarks())
	for i, p := range corpus.Programs(corpus.Seeds) {
		seed := i - nbench
		for _, ms := range corpus.Models {
			m, err := anomaly.ParseModel(ms)
			if err != nil {
				t.Fatal(err)
			}
			name := p.Name + "/" + ms
			c := cellOf(t, name, p.Prog, m)
			row := c.row()
			fmt.Fprintf(&out, "%s\t%s\n", name, strings.Join(row, "\t"))
			if w, ok := want[name]; !ok {
				t.Errorf("%s: not in the table", name)
			} else {
				var moved []string
				for j, col := range corpus.Columns {
					if w[j] != row[j] {
						moved = append(moved, fmt.Sprintf("%s %s→%s", col, w[j], row[j]))
					}
				}
				if moved != nil {
					t.Errorf("%s: %s", name, strings.Join(moved, ", "))
				}
			}
			delete(want, name)
			if c.cert.Lowered != c.cert.Total {
				t.Errorf("%s: only %d/%d witnesses lowered into runnable schedules", name, c.cert.Lowered, c.cert.Total)
			}
			if seed < 0 && c.cert.Rate() < 0.95 {
				t.Errorf("%s: reproduction rate %.2f below the 0.95 floor", name, c.cert.Rate())
			}
			if m == anomaly.EC && seed >= 1 && seed <= 96 {
				total += c.cert.Total
				lowered += c.cert.Lowered
				certified += c.cert.Certified
				for _, o := range c.cert.Outcomes {
					if o.Reproduced {
						methods[o.Method]++
					}
				}
			}
			if m == anomaly.EC && seed >= 0 && seed < 32 {
				initial += c.pairs
				remaining += c.remaining
			}
		}
	}
	if total != 417 || lowered != 417 || certified != 44 {
		t.Errorf("progen 1–96 under EC: %d pairs, %d lowered, %d certified; golden 417, 417, 44", total, lowered, certified)
	}
	wantMethods := map[string]int{"model": 35, "model@p1": 1, "split-hidden": 6, "split-hidden@p1": 1, "split-nonrep": 1}
	if fmt.Sprint(methods) != fmt.Sprint(wantMethods) {
		t.Errorf("progen 1–96 under EC: methods %v, golden %v", methods, wantMethods)
	}
	if initial != 122 || remaining != 98 {
		t.Errorf("progen 0–31 repaired under EC: %d pairs, %d remaining; golden 122, 98", initial, remaining)
	}
	for name := range want {
		t.Errorf("%s: in the table, not in the corpus", name)
	}
	if t.Failed() {
		if err := os.WriteFile(observed, []byte(out.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("observed table written to %s", observed)
	}
}
