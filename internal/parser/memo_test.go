package parser_test

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"atropos/internal/ast"
	"atropos/internal/benchmarks"
	"atropos/internal/parser"
	"atropos/internal/sema"
)

// The declaration memo (memo.go) against the reference parser: a source
// parses to the same program and the same error whether its declarations
// come from the memo or not.

// editSources are the edits of bench/run.sh's session-edits workload on
// each benchmark — the printed program, the program without each of its
// transactions, the program re-indented with tabs — and the program with
// comments inserted between and inside its declarations.
func editSources() []string {
	var srcs []string
	for _, b := range benchmarks.All() {
		prog := b.MustProgram()
		src := ast.Format(prog)
		srcs = append(srcs, src, strings.ReplaceAll(src, "  ", "\t"),
			"// edited\n"+strings.ReplaceAll(src, ";\n", "; // note\n\n"))
		for i := range prog.Txns {
			rest := append(append([]*ast.Txn{}, prog.Txns[:i]...), prog.Txns[i+1:]...)
			srcs = append(srcs, ast.Format(&ast.Program{Schemas: prog.Schemas, Txns: rest}))
		}
	}
	return srcs
}

// memoSources are editSources, the corpus and every seventh prefix of
// each benchmark source.
func memoSources() []string {
	srcs := append(editSources(), corpusSources()...)
	for _, b := range benchmarks.All() {
		for n := 0; n < len(b.Source); n += 7 {
			srcs = append(srcs, b.Source[:n])
		}
	}
	return srcs
}

// sameParse reports how two parses of one source differ, if they do: in
// error text, in printed program or in program hash.
func sameParse(p *ast.Program, err error, q *ast.Program, qerr error) (string, bool) {
	switch {
	case err != nil || qerr != nil:
		if err == nil || qerr == nil || err.Error() != qerr.Error() {
			return "error " + errText(err) + " vs " + errText(qerr), false
		}
	case ast.Format(p) != ast.Format(q):
		return "program\n" + ast.Format(p) + "\nvs\n" + ast.Format(q), false
	case ast.HashProgram(p) != ast.HashProgram(q):
		return "equal prints, different program hashes", false
	}
	return "", true
}

// TestMemoMatchesReference: each source parsed with the memo emptied
// (cold), then again (warm, its declarations from the memo), gives the
// reference's program or error; so does every source parsed in turn with
// the memo holding the declarations of all before it.
func TestMemoMatchesReference(t *testing.T) {
	srcs := memoSources()
	for i, src := range srcs {
		parser.ResetMemo()
		cold, cerr := parser.Parse(src)
		warm, werr := parser.Parse(src)
		ref, rerr := parser.RefParse(src)
		if diff, ok := sameParse(cold, cerr, ref, rerr); !ok {
			t.Fatalf("source %d cold vs reference: %s", i, diff)
		}
		if diff, ok := sameParse(warm, werr, ref, rerr); !ok {
			t.Fatalf("source %d warm vs reference: %s", i, diff)
		}
	}
	parser.ResetMemo()
	for pass := range 2 {
		for i, src := range srcs {
			p, err := parser.Parse(src)
			ref, rerr := parser.RefParse(src)
			if diff, ok := sameParse(p, err, ref, rerr); !ok {
				t.Fatalf("pass %d, source %d after the others: %s", pass, i, diff)
			}
		}
	}
}

// TestMemoShares: an edit shares every declaration it did not change with
// the program it edited, whitespace and comments notwithstanding.
func TestMemoShares(t *testing.T) {
	for _, b := range benchmarks.All() {
		src := ast.Format(parser.MustParse(b.Source))
		orig := parser.MustParse(src)
		for _, edit := range []string{src, strings.ReplaceAll(src, "  ", "\t"), "// c\n" + strings.ReplaceAll(src, "{\n", "{ // c\n")} {
			p := parser.MustParse(edit)
			for i, s := range p.Schemas {
				if s != orig.Schemas[i] {
					t.Errorf("%s: table %s parsed again", b.Name, s.Name)
				}
			}
			for i, tx := range p.Txns {
				if tx != orig.Txns[i] {
					t.Errorf("%s: txn %s parsed again", b.Name, tx.Name)
				}
			}
		}
	}
}

// TestMemoSchemaDependency: one transaction text reads differently after
// a table where its bare identifier is a field (this.v), after one where
// it is not (the parameter v) and where no table is declared (an error);
// in every order, each parse is the reference's.
func TestMemoSchemaDependency(t *testing.T) {
	const txn = "txn a(k: int, v: int) {\n  x := select n from T where v = k;\n  return x.n;\n}\n"
	srcs := []string{
		"table T { id: int key, n: int, v: int, }\n" + txn,
		"table T { id: int key, n: int, }\n" + txn,
		txn,
		txn + "table T { id: int key, n: int, v: int, }\n",
		"table T { id: int key, n: int, v: int, }\n" + txn + "table U { id: int key, }\n" + txn,
	}
	parser.ResetMemo()
	for pass := range 3 {
		for i := range srcs {
			src := srcs[(i+pass)%len(srcs)]
			p, err := parser.Parse(src)
			ref, rerr := parser.RefParse(src)
			if diff, ok := sameParse(p, err, ref, rerr); !ok {
				t.Fatalf("pass %d, %q: %s", pass, src, diff)
			}
		}
	}
	field, param := parser.MustParse(srcs[0]), parser.MustParse(srcs[1])
	if ast.Format(field) == ast.Format(param) {
		t.Fatal("the where clause reads the same with and without the field")
	}
}

// TestMemoConcurrent: goroutines parsing, checking, hashing and printing
// overlapping edits at once share nodes without a race (go test -race),
// and afterwards every shared node hashes and prints as a cold parse's.
func TestMemoConcurrent(t *testing.T) {
	srcs := editSources()
	want := make([]string, len(srcs))
	for i, src := range srcs {
		want[i] = ast.Format(parser.MustParse(src))
	}
	parser.ResetMemo()
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range srcs {
				i := (k*(g+1) + g) % len(srcs)
				p, err := parser.Parse(srcs[i])
				if err == nil {
					err = sema.Check(p)
				}
				if err == nil && ast.Format(p) != want[i] {
					err = fmt.Errorf("source %d prints differently", i)
				}
				if err != nil {
					errs <- err
					return
				}
				ast.HashProgram(p)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	warm := make([]*ast.Program, len(srcs))
	for i, src := range srcs {
		warm[i] = parser.MustParse(src)
	}
	parser.ResetMemo()
	for i, src := range srcs {
		cold := parser.MustParse(src)
		for j, tx := range warm[i].Txns {
			if ast.HashTxn(tx) != ast.HashTxn(cold.Txns[j]) || ast.Format(&ast.Program{Txns: []*ast.Txn{tx}}) != ast.Format(&ast.Program{Txns: []*ast.Txn{cold.Txns[j]}}) {
				t.Fatalf("source %d: shared txn %s differs from a cold parse", i, tx.Name)
			}
		}
	}
}

// TestMemoBound: the memo's key bytes never pass its bound; once full it
// stops inserting, and declarations not in it still parse correctly.
func TestMemoBound(t *testing.T) {
	parser.ResetMemo()
	t.Cleanup(parser.ResetMemo)
	long := strings.Repeat("f", 64<<10)
	src := func(i int) string {
		return fmt.Sprintf("table T%d%s { id: int key, }\ntxn a(k: int) { x := select id from T%d%s where id = k; }\n", i, long, i, long)
	}
	n := 0
	for before := -1; parser.MemoBytes() != before; n++ {
		if n > 2*parser.DeclMemoMax/len(long) {
			t.Fatalf("memo still inserting after %d sources", n)
		}
		before = parser.MemoBytes()
		parser.MustParse(src(n))
		if got := parser.MemoBytes(); got > parser.DeclMemoMax {
			t.Fatalf("memo holds %d key bytes, bound %d", got, parser.DeclMemoMax)
		}
	}
	full := parser.MemoBytes()
	for i := n; i < n+4; i++ {
		p, err := parser.Parse(src(i))
		ref, rerr := parser.RefParse(src(i))
		if diff, ok := sameParse(p, err, ref, rerr); !ok {
			t.Fatalf("source %d with the memo full: %s", i, diff)
		}
	}
	if got := parser.MemoBytes(); got != full {
		t.Fatalf("full memo went from %d to %d key bytes (bound %d)", full, got, parser.DeclMemoMax)
	}
}
