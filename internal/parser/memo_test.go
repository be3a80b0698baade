package parser_test

import (
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"

	"atropos/internal/ast"
	"atropos/internal/benchmarks"
	"atropos/internal/parser"
	"atropos/internal/sema"
)

// The parser's memo (memo.go) against the reference parser: a source
// parses to the same program and the same error whether it or its
// declarations come from the memo or not.

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
// (cold), then again (warm: the whole source from the memo if it parsed)
// and after a newline (new text, its declarations from the memo), gives
// the reference's program or error; so does every source parsed in turn
// with the memo holding all before it.
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
		nl, nerr := parser.Parse("\n" + src)
		ref, rerr = parser.RefParse("\n" + src)
		if diff, ok := sameParse(nl, nerr, ref, rerr); !ok {
			t.Fatalf("source %d after a newline vs reference: %s", i, diff)
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
			for k := range 2 * len(srcs) {
				i := (k/2*(g+1) + g) % len(srcs) // each source twice in a row
				p, err := parser.Parse(srcs[i])
				if err == nil {
					err = sema.Check(p)
				}
				if err == nil && ast.Format(p) != want[i] {
					err = fmt.Errorf("source %d prints differently", i)
				}
				if err == nil {
					p.Txns = append(p.Txns, p.Txns[0]) // a caller's header is its own
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

// TestMemoBound: declaration keys and whole sources are bounded apart. The
// bytes of each never pass its own bound; a full source share does not stop
// declarations being stored, nor a full key share sources; with both full
// the memo stores nothing, and sources not in it still parse correctly.
func TestMemoBound(t *testing.T) {
	parser.ResetMemo()
	t.Cleanup(parser.ResetMemo)
	long := strings.Repeat("f", 64<<10)
	if 2*len(long) >= parser.MaxKey {
		t.Fatalf("a %d-byte key cap leaves the declarations of this test unmemoized", parser.MaxKey)
	}
	src := func(i int) string {
		return fmt.Sprintf("table T%d%s { id: int key, }\ntxn a(k: int) { x := select id from T%d%s where id = k; }\n", i, long, i, long)
	}
	held := func() (int, int) {
		t.Helper()
		keys, srcs := parser.MemoBytes()
		if keys > parser.DeclMemoMax || srcs > parser.SrcMemoMax {
			t.Fatalf("memo holds %d key and %d source bytes, bounds %d and %d", keys, srcs, parser.DeclMemoMax, parser.SrcMemoMax)
		}
		return keys, srcs
	}
	parser.MustParse(src(0))
	keys, srcs := held()
	parser.MustParse("\n" + src(0)) // new text, every declaration a hit
	if k, s := held(); k != keys || s-srcs != len(src(0))+1 {
		t.Fatalf("a new text of known declarations added %d key and %d source bytes, want 0 and %d", k-keys, s-srcs, len(src(0))+1)
	}
	// Sources of long declarations fill the source share long before the
	// key share, which fills to within one source of its bound.
	n := 1
	for before := -1; keys != before; n++ {
		if n > 2*parser.DeclMemoMax/len(long) {
			t.Fatalf("memo still inserting after %d sources", n)
		}
		before = keys
		parser.MustParse(src(n))
		keys, srcs = held()
	}
	if l := len(src(n)); keys+l <= parser.DeclMemoMax || srcs+l <= parser.SrcMemoMax {
		t.Fatalf("memo stopped at %d key and %d source bytes, bounds %d and %d", keys, srcs, parser.DeclMemoMax, parser.SrcMemoMax)
	}
	for i := n; i < n+4; i++ {
		p, err := parser.Parse(src(i))
		ref, rerr := parser.RefParse(src(i))
		if diff, ok := sameParse(p, err, ref, rerr); !ok {
			t.Fatalf("source %d with the memo full: %s", i, diff)
		}
	}
	if k, s := held(); k != keys || s != srcs {
		t.Fatalf("full memo went from %d/%d to %d/%d key/source bytes", keys, srcs, k, s)
	}
	// With the key share full, a source is still stored and answered.
	parser.ForgetSources()
	again := "\n" + src(0)
	if a, b := parser.MustParse(again), parser.MustParse(again); &a.Txns[0] != &b.Txns[0] {
		t.Fatal("a source was not stored with the key share full")
	}
	if k, s := held(); k != keys || s != len(again) {
		t.Fatalf("a source with the key share full added %d key and %d source bytes, want 0 and %d", k-keys, s, len(again))
	}
	// Fill the source share with sources of one length: once one adds
	// nothing, the next stores neither its text nor its declaration.
	mid := strings.Repeat("g", 1<<10)
	fill := func(i int) string { return fmt.Sprintf("table S%04d%s { id: int key, }\n", i, mid) }
	i := 0
	for before := -1; srcs != before; i++ {
		before = srcs
		parser.MustParse(fill(i))
		keys, srcs = held()
	}
	if a, b := parser.MustParse(fill(i)), parser.MustParse(fill(i)); a.Schemas[0] == b.Schemas[0] {
		t.Fatalf("full memo (%d/%d key/source bytes) stored a source or its declaration", keys, srcs)
	}
	if k, s := held(); k != keys || s != srcs {
		t.Fatalf("full memo went from %d/%d to %d/%d key/source bytes", keys, srcs, k, s)
	}
}

// TestSourceMemo: a repeated source returns the first parse's nodes under
// a header of its own, whose slices a caller may append to without the
// next parse seeing it; ParseNew neither answers nor stores a source; a
// failing source fails again with the same error and is not stored.
func TestSourceMemo(t *testing.T) {
	parser.ResetMemo()
	t.Cleanup(parser.ResetMemo)
	src := benchmarks.All()[0].Source
	first := parser.MustParse(src)
	keys, srcs := parser.MemoBytes()
	orig := *first
	progs := []*ast.Program{first, parser.MustParse(src), parser.MustParse(src)}
	if k, s := parser.MemoBytes(); k != keys || s != srcs {
		t.Fatalf("repeats added %d key and %d source bytes", k-keys, s-srcs)
	}
	for i, p := range progs[1:] {
		if p == first || !slices.Equal(p.Schemas, orig.Schemas) || !slices.Equal(p.Txns, orig.Txns) {
			t.Fatalf("repeat %d: want the first parse's nodes under a new header", i+1)
		}
	}
	for i, p := range progs {
		p.Txns = append(p.Txns, &ast.Txn{Name: fmt.Sprint("extra", i)})
		p.Schemas = append(p.Schemas, &ast.Schema{Name: fmt.Sprint("extra", i)})
	}
	for i, p := range progs {
		if tx, s := p.Txns[len(p.Txns)-1], p.Schemas[len(p.Schemas)-1]; tx.Name != fmt.Sprint("extra", i) || s.Name != tx.Name {
			t.Fatalf("parse %d: its appended entries were overwritten by %s, %s", i, tx.Name, s.Name)
		}
	}
	if p := parser.MustParse(src); !slices.Equal(p.Schemas, orig.Schemas) || !slices.Equal(p.Txns, orig.Txns) {
		t.Fatal("an append to a parsed program showed in the next parse")
	}
	for _, in := range []string{src, "\n" + src} {
		p, err := parser.ParseNew(in)
		if err != nil || &p.Txns[0] == &orig.Txns[0] || !slices.Equal(p.Txns, orig.Txns) {
			t.Fatalf("ParseNew(%.10q…): want the memo's declarations in a new array, err %v", in, err)
		}
	}
	if k, s := parser.MemoBytes(); k != keys || s != srcs {
		t.Fatalf("ParseNew added %d key and %d source bytes", k-keys, s-srcs)
	}

	ok := "table T { id: int key, }\n"
	parser.MustParse(ok)
	keys, srcs = parser.MemoBytes()
	for _, bad := range []string{ok + "txn", ok + "txn a() { @ }", ok + "@", ok + ok, "\n" + ok + "table"} {
		_, rerr := parser.RefParse(bad)
		for range 3 {
			if _, err := parser.Parse(bad); errText(err) != errText(rerr) {
				t.Fatalf("%q: error %s, want %s", bad, errText(err), errText(rerr))
			}
		}
	}
	if k, s := parser.MemoBytes(); k != keys || s != srcs {
		t.Fatalf("failing sources added %d key and %d source bytes", k-keys, s-srcs)
	}
}

// TestMemoKeyCap: a declaration whose key passes the cap parses (or fails)
// as the reference's does and is not memoized; only an accepted source's
// own text is stored.
func TestMemoKeyCap(t *testing.T) {
	parser.ResetMemo()
	t.Cleanup(parser.ResetMemo)
	good := "table T" + strings.Repeat("f", parser.MaxKey) + " { id: int key, }\n"
	for _, src := range []string{good + "txn", good, "\n" + good} {
		keys, srcs := parser.MemoBytes()
		p, err := parser.Parse(src)
		ref, rerr := parser.RefParse(src)
		if diff, ok := sameParse(p, err, ref, rerr); !ok {
			t.Fatalf("%.20q…: %s", src, diff)
		}
		want := srcs
		if err == nil {
			want += len(src)
		}
		if k, s := parser.MemoBytes(); k != keys || s != want {
			t.Fatalf("%.20q…: memo grew by %d key and %d source bytes, want 0 and %d", src, k-keys, s-srcs, want-srcs)
		}
	}
	if parser.MustParse(good).Schemas[0] == parser.MustParse("\n" + good).Schemas[0] {
		t.Fatal("a declaration past the key cap was memoized")
	}
}
