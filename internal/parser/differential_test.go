package parser_test

import (
	"strings"
	"testing"

	"atropos/internal/ast"
	"atropos/internal/benchmarks"
	"atropos/internal/corpus"
	"atropos/internal/parser"
)

// The one-pass front end against the reference lexer and parser
// (reference_test.go): on every input within the nesting bound both give
// the same program, byte for byte as ast.Format prints it, labels
// included, or the same error text.

// corpusSources are the nine benchmark sources and the printed progen
// programs 0–95.
func corpusSources() []string {
	var srcs []string
	for _, b := range benchmarks.All() {
		srcs = append(srcs, b.Source)
	}
	for _, p := range corpus.Progen(0, 96) {
		srcs = append(srcs, ast.Format(p.Prog))
	}
	return srcs
}

// agree parses src with both parsers and reports how they differ, if at
// all. Inputs the production parser rejects for nesting are not given to
// the unbounded reference.
func agree(src string) (string, bool) {
	p, err := parser.Parse(src)
	if err != nil && strings.Contains(err.Error(), "nested deeper than") {
		return "", true
	}
	rp, rerr := parser.RefParse(src)
	switch {
	case err != nil || rerr != nil:
		if err == nil || rerr == nil || err.Error() != rerr.Error() {
			return "error " + errText(err) + ", reference " + errText(rerr), false
		}
	case ast.Format(p) != ast.Format(rp):
		return "program\n" + ast.Format(p) + "\nreference\n" + ast.Format(rp), false
	}
	return "", true
}

func errText(err error) string {
	if err == nil {
		return "<nil>"
	}
	return err.Error()
}

// TestParseMatchesReference: the corpus parses to byte-identical programs,
// and so does every prefix of a benchmark source — which is mostly a
// parse error, and must be the same one at the same position.
func TestParseMatchesReference(t *testing.T) {
	for i, src := range corpusSources() {
		if diff, ok := agree(src); !ok {
			t.Fatalf("source %d: %s", i, diff)
		}
	}
	for _, b := range benchmarks.All() {
		for n := 0; n < len(b.Source); n += 7 {
			if diff, ok := agree(b.Source[:n]); !ok {
				t.Fatalf("%s[:%d]: %s", b.Name, n, diff)
			}
		}
	}
}

// TestFragmentsMatchReference: lexical errors — every escape, unknown and
// multi-byte characters, unterminated literals — and operator chains —
// associativity, precedence, comparisons that do not chain, unary minus —
// read the same as in the reference.
func TestFragmentsMatchReference(t *testing.T) {
	const pre = "table T { id: int key, s: string, n: int, b: bool, }\ntxn a(k: int, j: int) {\n  update T set s = "
	for _, tail := range []string{
		`"a\nb\t\"c\\d" where id = k; }`,
		`"plain" where id = k; }`,
		`"bad \q" where id = k; }`,
		"\"line\\\nbreak\" where id = k; }",
		`"open where id = k; }`,
		`"ends in \`,
		`"x" where id = k # 1; }`,
		`"x" where id = k ! 1; }`,
		`"x" where id = k & 1; }`,
		`"x" where id = k | 1; }`,
		"\"x\" where id = k; } // trailing comment",
		"\"x\" where id = ké; }",
		"\"x\" where id = ª; }",
		"\"x\" where id = k \xff; }",
		`"x" where id = 99999999999999999999; }`,
		`"x" where id = k`,
		`"x" where id = k - j - 1 * 2 / k + -j; }`,
		`"x" where id < k < j; }`,
		`"x" where id = k = j; }`,
		`"x" where b && id < k < j; }`,
		`"x" where id < k && n < j < 3; }`,
		`"x" where b || id = k && n != j || b = (n >= k); }`,
		`"x" where id = --k * -(j - -1); }`,
		`"x" where (id = k) = b; }`,
		`"x" where id = k + ; }`,
		`"x" where id = (k; }`,
	} {
		if diff, ok := agree(pre + tail); !ok {
			t.Errorf("%q: %s", tail, diff)
		}
	}
}

// stringsSource is a program whose one string literal holds every byte
// but the quote and the backslash raw, and those two escaped.
func stringsSource() string {
	var b strings.Builder
	b.WriteString("table T { id: int key, s: string, }\ntxn a() {\n  update T set s = \"")
	for c := 0; c < 256; c++ {
		switch c {
		case '"', '\\':
			b.WriteByte('\\')
		}
		b.WriteByte(byte(c))
	}
	b.WriteString("\" where id = 1;\n}\n")
	return b.String()
}

// TestStringLiteralsRoundTrip: a string literal holding any byte prints to
// a literal that parses back to the same value.
func TestStringLiteralsRoundTrip(t *testing.T) {
	p, err := parser.Parse(stringsSource())
	if err != nil {
		t.Fatal(err)
	}
	text := ast.Format(p)
	p2, err := parser.Parse(text)
	if err != nil {
		t.Fatalf("printed program does not parse: %v", err)
	}
	if !ast.EqualStmt(p.Txns[0].Body[0], p2.Txns[0].Body[0]) || ast.Format(p2) != text {
		t.Fatalf("string literal changed in a round trip:\n%q\n%q", text, ast.Format(p2))
	}
}

// nested wraps inner in n levels of open/close around it.
func nested(n int, open, inner, close string) string {
	return strings.Repeat(open, n) + inner + strings.Repeat(close, n)
}

// TestNestingBound: expressions and if/iterate bodies nest up to maxDepth
// and fail with a positioned error one level past it.
func TestNestingBound(t *testing.T) {
	const pre = "table T { id: int key, v: int, }\ntxn a(k: int) {\n"
	const post = " where id = k;\n}\n"
	d := parser.MaxDepth
	cases := []struct {
		name, body, err string
	}{
		{"parentheses", "  update T set v = " + nested(d, "(", "1", ")") + post, ""},
		{"parentheses+1", "  update T set v = " + nested(d+1, "(", "1", ")") + post, "3:276: expression nested deeper than 256"},
		{"chain", "  update T set v = 1" + strings.Repeat(" + 1", d-1) + post, ""},
		{"chain+1", "  update T set v = 1" + strings.Repeat(" + 1", d) + post, "3:1042: expression nested deeper than 256"},
		{"minus", "  update T set v = " + strings.Repeat("-", d-1) + "1" + post, ""},
		{"minus+1", "  update T set v = " + strings.Repeat("-", d) + "1" + post, "3:20: expression nested deeper than 256"},
		{"index", "  x := select v from T where id = k;\n  update T set v = " + nested(d-1, "x.v[", "1", "]") + post, ""},
		{"index+1", "  x := select v from T where id = k;\n  update T set v = " + nested(d, "x.v[", "1", "]") + post, "4:23: expression nested deeper than 256"},
		{"if", nested(d, "  if (k > 0) {\n", "  skip;\n", "  }\n") + "}\n", ""},
		{"if+1", nested(d+1, "  if (k > 0) {\n", "  skip;\n", "  }\n") + "}\n", "259:3: if nested deeper than 256"},
		{"iterate+1", nested(d+1, "  iterate (k) {\n", "  skip;\n", "  }\n") + "}\n", "259:3: iterate nested deeper than 256"},
	}
	for _, tc := range cases {
		src := pre + tc.body
		_, err := parser.Parse(src)
		switch {
		case tc.err == "" && err != nil:
			t.Errorf("%s: %v", tc.name, err)
		case tc.err != "" && (err == nil || err.Error() != tc.err):
			t.Errorf("%s: error %v, want %q", tc.name, err, tc.err)
		}
		if tc.err == "" {
			if diff, ok := agree(src); !ok {
				t.Errorf("%s: %s", tc.name, diff)
			}
		}
	}
}

// FuzzParse: the one-pass parser never panics; within the nesting bound it
// agrees with the reference — on the input, on the input again (from the
// memo if it parsed), on the input after a newline (new text: its
// declarations from the memo) and on the input with its first table
// declaration moved to the end (the memo's transactions now read a
// different schema, or none) — and what it accepts prints to text that
// parses back to the same print (Format ∘ Parse is a fixpoint).
func FuzzParse(f *testing.F) {
	for _, src := range corpusSources() {
		f.Add(src)
	}
	f.Add(stringsSource())
	f.Fuzz(func(t *testing.T, src string) {
		if keys, srcs := parser.MemoBytes(); keys > parser.DeclMemoMax/2 || srcs > parser.SrcMemoMax/2 {
			parser.ResetMemo() // a full memo would store no new declaration or source
		}
		for _, in := range []string{src, src, "\n" + src, tableMoved(src)} {
			if diff, ok := agree(in); !ok {
				t.Fatalf("%q: %s", in, diff)
			}
		}
		p, err := parser.Parse(src)
		if err != nil {
			return
		}
		text := ast.Format(p)
		p2, err := parser.Parse(text)
		if err != nil {
			t.Fatalf("printed program does not parse: %v\n%s", err, text)
		}
		if again := ast.Format(p2); again != text {
			t.Fatalf("Format is not a fixpoint:\n%s\nthen\n%s", text, again)
		}
	})
}

// tableMoved returns src with the text from its first "table" to the
// next '}' moved to the end, or src if there is no such span.
func tableMoved(src string) string {
	i := strings.Index(src, "table")
	if i < 0 {
		return src
	}
	j := strings.IndexByte(src[i:], '}')
	if j < 0 {
		return src
	}
	return src[:i] + src[i+j+1:] + "\n" + src[i:i+j+1]
}
