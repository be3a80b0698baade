package anomaly

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"atropos/internal/ast"
	"atropos/internal/corpus"
	"atropos/internal/parser"
)

// Tests of the pass's integer representation against the string form
// (render_test.go): field sets render back to the command's
// access, term digests are equal exactly when the printed terms are, and a
// memoized answer read back under another layout of its tables names the
// same fields.

// oracleAccess is a command's read and write sets as names: CommandAccess,
// plus alive for the selects and updates that filter on it, sorted.
func oracleAccess(c ast.DBCommand, schema *ast.Schema) (reads, writes []string) {
	acc := ast.CommandAccess(c, schema)
	reads = slices.Clone(acc.Reads)
	switch c.(type) {
	case *ast.Select, *ast.Update:
		reads = append(reads, ast.AliveField)
	}
	slices.Sort(reads)
	writes = slices.Clone(acc.Writes)
	slices.Sort(writes)
	return slices.Compact(reads), slices.Compact(writes)
}

// oracleKey is a command's key constraint in string form: its pins with
// termOf's terms, a field pinned twice keeping its last pin, sorted by
// field name.
func oracleKey(c ast.DBCommand, schema *ast.Schema, inst, idx int) []strKeyTerm {
	var out []strKeyTerm
	pkPins(c, schema, func(field string, e ast.Expr) {
		if k := slices.IndexFunc(out, func(kt strKeyTerm) bool { return kt.field == field }); k >= 0 {
			out[k].term = termOf(e, inst, idx)
		} else {
			out = append(out, strKeyTerm{field, termOf(e, inst, idx)})
		}
	})
	slices.SortFunc(out, func(a, b strKeyTerm) int { return strings.Compare(a.field, b.field) })
	return out
}

// TestFactsRenderToStrings: over the corpus, every command's field sets
// render to its access, its key constraints to the string-form ones, and
// two key terms of a pass share a digest exactly when termOf prints them
// alike.
func TestFactsRenderToStrings(t *testing.T) {
	for _, c := range corpus.Programs(97) {
		p := newPass(c.Prog, EC)
		digests := map[string]uint64{}
		strs := map[uint64]string{}
		for ti, txn := range c.Prog.Txns {
			tf, err := p.txnFacts(ti)
			if err != nil {
				t.Fatal(err)
			}
			// A plan of the transaction against itself addresses each
			// command as instance A (item ci) and B (item nA+ci).
			pe := p.planPair(tf, tf)
			for ci, cmd := range ast.Commands(txn.Body) {
				what := fmt.Sprintf("%s %s.%s", c.Name, txn.Name, cmd.CmdLabel())
				schema := c.Prog.Schema(cmd.TableName())
				reads, writes := oracleAccess(cmd, schema)
				if got := pe.readNames(ci); !slices.Equal(got, reads) {
					t.Errorf("%s: reads render as %v, access %v", what, got, reads)
				}
				if got := pe.writeNames(ci); !slices.Equal(got, writes) {
					t.Errorf("%s: writes render as %v, access %v", what, got, writes)
				}
				if got := pe.tableName(ci); got != cmd.TableName() {
					t.Errorf("%s: table renders as %s", what, got)
				}
				for inst, x := range [2]int{ci, pe.nA + ci} {
					got, want := pe.strKey(x), oracleKey(cmd, schema, inst, ci)
					if len(got) != len(want) {
						t.Fatalf("%s instance %d: key renders as %v, termOf gives %v", what, inst, got, want)
					}
					for i, k := range pe.key(x) {
						if got[i].field != want[i].field || got[i].term.kind != want[i].term.kind {
							t.Errorf("%s instance %d: key renders as %v, termOf gives %v", what, inst, got, want)
						}
						s := want[i].term.id
						if d, ok := digests[s]; ok && d != k.digest {
							t.Errorf("%s: %s has digests %x and %x", what, s, d, k.digest)
						}
						if old, ok := strs[k.digest]; ok && old != s {
							t.Errorf("%s: digest %x stands for %s and %s", what, k.digest, old, s)
						}
						digests[s], strs[k.digest] = k.digest, s
					}
				}
			}
		}
	}
}

// withLeadingField returns prog with a field aaa, sorting before every
// other, added to each table: every field's bit moves up one.
func withLeadingField(prog *ast.Program) *ast.Program {
	schemas := make([]*ast.Schema, len(prog.Schemas))
	for i, s := range prog.Schemas {
		fields := append([]*ast.Field{{Name: "aaa", Type: ast.TInt}}, s.Fields...)
		schemas[i] = &ast.Schema{Name: s.Name, Fields: fields}
	}
	return ast.WithSchemas(prog, schemas)
}

// TestMemoAnswersSurviveALayoutChange: a session that detects P and then
// P′, whose tables each gain a field sorting first, reports for P′ what a
// fresh detection does, F1 and F2 included. P′'s queries hit answers
// decided on P, where every field sat one bit lower, so this holds only if
// answers name fields independently of the layout.
func TestMemoAnswersSurviveALayoutChange(t *testing.T) {
	for _, c := range corpus.Programs(16) {
		for _, m := range []Model{EC, CC, RR} {
			s := NewSession(m)
			if _, err := s.Detect(c.Prog); err != nil {
				t.Fatal(err)
			}
			wide := withLeadingField(c.Prog)
			got, err := s.Detect(wide)
			if err != nil {
				t.Fatal(err)
			}
			want, err := FreshDetect(wide, m)
			if err != nil {
				t.Fatal(err)
			}
			what := fmt.Sprintf("%s %v after a layout change", c.Name, m)
			sameVerdict(t, what, got, want)
			if got.Queries > 0 && got.Solved == got.Queries {
				t.Errorf("%s: all %d queries solved again; the memo was not read", what, got.Queries)
			}
		}
	}
}

// TestUnknownFieldIsAnError: a command naming a field its table lacks has
// no bit; detection refuses the program, as it does an unknown table,
// instead of dropping the field. (Sema rejects such programs; this one is
// only parsed.)
func TestUnknownFieldIsAnError(t *testing.T) {
	prog, err := parser.Parse(`
table T {
  id: int key,
  n: int,
}
txn a(k: int) {
  x := select zap from T where id = k;
  update T set n = 1 where id = k;
}`)
	if err != nil {
		t.Fatal(err)
	}
	_, err = NewSession(EC).Detect(prog)
	if err == nil || !strings.Contains(err.Error(), `a.S1: unknown field "zap" of table T`) {
		t.Errorf("Detect = %v, want an unknown-field error naming a.S1, zap and T", err)
	}
}
