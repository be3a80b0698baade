package parser

import (
	"fmt"
	"strconv"

	"atropos/internal/ast"
)

// maxDepth bounds how deeply a program may nest: the height of an
// expression tree, the parentheses, unary minuses and index brackets open
// around an expression, and if/iterate bodies. The daemon parses untrusted
// bodies of up to 1 MB; unbounded, a line of nested parentheses recursed
// hundreds of thousands of frames deep, and a long `1+1+…` chain built a
// tree that every later recursive walk (sema, hashing, printing, detection)
// descended again. A tree within the bound prints (ast.Format parenthesizes
// every binary node) to text within it.
const maxDepth = 256

// Parse parses DSL source into a program in one pass over the tokens.
// Labels are assigned to every database command (S1.. for selects, U1..
// for updates and inserts, per-transaction counters), matching the paper's
// naming in Figs. 1 and 11, and every expression is hash-consed as it is
// built (ast.Cons): a parent is made from canonical children, so
// structurally equal where clauses and values share one node from the
// start, which makes the repair engine's EqualExpr checks O(1), and an
// expression seen before — in this program or an earlier one — is not
// allocated again.
func Parse(src string) (*ast.Program, error) {
	p := &parser{lex: lexer{src: src}}
	p.tok = p.lex.next()
	prog, err := p.parseProgram()
	if lerr := p.lex.finish(); lerr != nil {
		return nil, lerr
	}
	if err != nil {
		return nil, err
	}
	AssignLabels(prog)
	return prog, nil
}

// MustParse parses src and panics on error; intended for embedded benchmark
// sources and tests.
func MustParse(src string) *ast.Program {
	p, err := Parse(src)
	if err != nil {
		panic(fmt.Sprintf("parser.MustParse: %v", err))
	}
	return p
}

// AssignLabels (re)assigns stable command labels within each transaction:
// selects become S1, S2, ...; updates and inserts become U1, U2, ....
func AssignLabels(prog *ast.Program) {
	for _, t := range prog.Txns {
		var n labeler
		ast.WalkStmts(t.Body, func(s ast.Stmt) bool {
			switch c := s.(type) {
			case *ast.Select:
				c.Label = n.sel()
			case *ast.Update:
				c.Label = n.upd()
			case *ast.Insert:
				c.Label = n.upd()
			}
			return true
		})
	}
}

// labeler numbers one transaction's commands.
type labeler struct{ nSel, nUpd int }

func (l *labeler) sel() string { l.nSel++; return label(0, 'S', l.nSel) }
func (l *labeler) upd() string { l.nUpd++; return label(1, 'U', l.nUpd) }

// smallLabels holds S1..S15 and U1..U15, which cover nearly every command
// of real transactions, so labelling them allocates nothing.
var smallLabels = func() (t [2][16]string) {
	for n := 1; n < len(t[0]); n++ {
		t[0][n], t[1][n] = "S"+strconv.Itoa(n), "U"+strconv.Itoa(n)
	}
	return t
}()

func label(kind int, prefix byte, n int) string {
	if n < len(smallLabels[kind]) {
		return smallLabels[kind][n]
	}
	return string(prefix) + strconv.Itoa(n)
}

type parser struct {
	lex  lexer
	tok  token // the current token
	prog *ast.Program
	// whereSchema is the current where clause's table (nil outside where
	// clauses): bare identifiers naming one of its fields are this.f.
	whereSchema *ast.Schema
	// Lists being parsed are gathered on these stacks (see list).
	fields  []ast.Field
	params  []ast.Param
	stmts   []ast.Stmt
	names   []string
	assigns []ast.Assign
	// open counts the parentheses, unary minuses and index brackets around
	// the expression being parsed, blocks the if/iterate bodies around the
	// statement; height is the height of the expression the last expression
	// parse function returned. All three are bounded by maxDepth.
	open, blocks, height int
}

// list returns the elements pushed on the stack *buf since mark, copied at
// their exact length (nil if none), and pops them: a list costs one
// allocation however long it grows, and nested lists — if and iterate
// bodies — stack above their parent's.
func list[T any](buf *[]T, mark int) []T {
	if len(*buf) == mark {
		return nil
	}
	out := append([]T(nil), (*buf)[mark:]...)
	*buf = (*buf)[:mark]
	return out
}

// ptrs points into vals: a schema's fields or a transaction's parameters
// share one allocation.
func ptrs[T any](vals []T) []*T {
	if vals == nil {
		return nil
	}
	out := make([]*T, len(vals))
	for i := range vals {
		out[i] = &vals[i]
	}
	return out
}

func (p *parser) cur() token { return p.tok }

// advance moves past the current token (never past end of input) and
// returns it.
func (p *parser) advance() token {
	t := p.tok
	if t.kind != tokEOF {
		p.tok = p.lex.next()
	}
	return t
}

// text is a token's text as names and messages use it: an identifier's or
// integer's spelling, a string literal's value, "" for anything else.
func (p *parser) text(t token) string {
	if t.kind != tokString {
		return p.lex.src[t.start:t.end]
	}
	if t.str > 0 {
		return p.lex.strs[t.str-1]
	}
	return p.lex.src[t.start+1 : t.end-1]
}

func (p *parser) errf(t token, format string, args ...any) error {
	return errorAt(p.lex.src, t.start, fmt.Sprintf(format, args...))
}

func (p *parser) expect(k tokenKind) (token, error) {
	t := p.cur()
	if t.kind != k {
		return t, p.errf(t, "expected %s, found %s %q", k, t.kind, p.text(t))
	}
	return p.advance(), nil
}

// ident expects an identifier and returns its name.
func (p *parser) ident() (string, error) {
	t, err := p.expect(tokIdent)
	if err != nil {
		return "", err
	}
	return p.text(t), nil
}

func (p *parser) expectKeyword(kw string) error {
	t := p.cur()
	if t.kind != tokIdent || p.lex.src[t.start:t.end] != kw {
		return p.errf(t, "expected %q, found %s %q", kw, t.kind, p.text(t))
	}
	p.advance()
	return nil
}

func (p *parser) atKeyword(kw string) bool {
	t := p.cur()
	return t.kind == tokIdent && p.lex.src[t.start:t.end] == kw
}

func (p *parser) parseProgram() (*ast.Program, error) {
	p.prog = &ast.Program{}
	for {
		switch {
		case p.cur().kind == tokEOF:
			return p.prog, nil
		case p.atKeyword("table"):
			s, err := p.parseSchema()
			if err != nil {
				return nil, err
			}
			if p.prog.Schema(s.Name) != nil {
				return nil, p.errf(p.cur(), "duplicate table %q", s.Name)
			}
			p.prog.Schemas = append(p.prog.Schemas, s)
		case p.atKeyword("txn"):
			t, err := p.parseTxn()
			if err != nil {
				return nil, err
			}
			if p.prog.Txn(t.Name) != nil {
				return nil, p.errf(p.cur(), "duplicate transaction %q", t.Name)
			}
			p.prog.Txns = append(p.prog.Txns, t)
		default:
			return nil, p.errf(p.cur(), "expected 'table' or 'txn', found %s %q", p.cur().kind, p.text(p.cur()))
		}
	}
}

func (p *parser) parseSchema() (*ast.Schema, error) {
	p.advance() // table
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tokLBrace); err != nil {
		return nil, err
	}
	s := &ast.Schema{Name: name}
	mark := len(p.fields)
	for p.cur().kind != tokRBrace {
		fname, err := p.ident()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokColon); err != nil {
			return nil, err
		}
		ftype, err := p.parseType()
		if err != nil {
			return nil, err
		}
		f := ast.Field{Name: fname, Type: ftype}
		if p.atKeyword("key") {
			p.advance()
			f.PK = true
		}
		p.fields = append(p.fields, f)
		if p.cur().kind == tokComma {
			p.advance()
			continue
		}
		break
	}
	s.Fields = ptrs(list(&p.fields, mark))
	if _, err := p.expect(tokRBrace); err != nil {
		return nil, err
	}
	return s, nil
}

func (p *parser) parseType() (ast.Type, error) {
	t, err := p.expect(tokIdent)
	if err != nil {
		return ast.TInvalid, err
	}
	switch p.text(t) {
	case "int":
		return ast.TInt, nil
	case "bool":
		return ast.TBool, nil
	case "string":
		return ast.TString, nil
	default:
		return ast.TInvalid, p.errf(t, "unknown type %q", p.text(t))
	}
}

func (p *parser) parseTxn() (*ast.Txn, error) {
	p.advance() // txn
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tokLParen); err != nil {
		return nil, err
	}
	t := &ast.Txn{Name: name}
	mark := len(p.params)
	for p.cur().kind != tokRParen {
		pname, err := p.ident()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokColon); err != nil {
			return nil, err
		}
		ptype, err := p.parseType()
		if err != nil {
			return nil, err
		}
		p.params = append(p.params, ast.Param{Name: pname, Type: ptype})
		if p.cur().kind == tokComma {
			p.advance()
		}
	}
	t.Params = ptrs(list(&p.params, mark))
	p.advance() // )
	if _, err := p.expect(tokLBrace); err != nil {
		return nil, err
	}
	body, ret, err := p.parseBlockBody(true)
	if err != nil {
		return nil, err
	}
	t.Body = body
	t.Ret = ret
	if _, err := p.expect(tokRBrace); err != nil {
		return nil, err
	}
	return t, nil
}

// parseBlockBody parses statements until '}'. When allowReturn is true a
// trailing `return e;` is captured as the transaction's return expression.
func (p *parser) parseBlockBody(allowReturn bool) ([]ast.Stmt, ast.Expr, error) {
	mark := len(p.stmts)
	for p.cur().kind != tokRBrace && p.cur().kind != tokEOF {
		if p.atKeyword("return") {
			if !allowReturn {
				return nil, nil, p.errf(p.cur(), "return is only allowed at the end of a transaction body")
			}
			p.advance()
			e, err := p.parseExpr()
			if err != nil {
				return nil, nil, err
			}
			if _, err := p.expect(tokSemi); err != nil {
				return nil, nil, err
			}
			if p.cur().kind != tokRBrace {
				return nil, nil, p.errf(p.cur(), "return must be the final statement")
			}
			return list(&p.stmts, mark), e, nil
		}
		s, err := p.parseStmt()
		if err != nil {
			return nil, nil, err
		}
		p.stmts = append(p.stmts, s)
	}
	return list(&p.stmts, mark), nil, nil
}

func (p *parser) parseStmt() (ast.Stmt, error) {
	t := p.cur()
	switch {
	case p.atKeyword("update"):
		return p.parseUpdate()
	case p.atKeyword("insert"):
		return p.parseInsert()
	case p.atKeyword("delete"):
		return p.parseDelete()
	case p.atKeyword("if"):
		return p.parseIf()
	case p.atKeyword("iterate"):
		return p.parseIterate()
	case p.atKeyword("skip"):
		p.advance()
		if _, err := p.expect(tokSemi); err != nil {
			return nil, err
		}
		return &ast.Skip{}, nil
	case t.kind == tokIdent:
		return p.parseSelect()
	default:
		return nil, p.errf(t, "expected statement, found %s %q", t.kind, p.text(t))
	}
}

// parseSelect parses `x := select …`, the one statement that starts with
// an identifier other than a keyword.
func (p *parser) parseSelect() (ast.Stmt, error) {
	t := p.advance()
	if p.cur().kind != tokAssign {
		return nil, p.errf(t, "expected statement, found %s %q", t.kind, p.text(t))
	}
	v := p.text(t)
	p.advance() // :=
	if err := p.expectKeyword("select"); err != nil {
		return nil, err
	}
	sel := &ast.Select{Var: v}
	if p.cur().kind == tokStar {
		p.advance()
		sel.Star = true
	} else {
		mark := len(p.names)
		for {
			f, err := p.ident()
			if err != nil {
				return nil, err
			}
			p.names = append(p.names, f)
			if p.cur().kind != tokComma {
				break
			}
			p.advance()
		}
		sel.Fields = list(&p.names, mark)
	}
	if err := p.expectKeyword("from"); err != nil {
		return nil, err
	}
	tbl, err := p.expect(tokIdent)
	if err != nil {
		return nil, err
	}
	sel.Table = p.text(tbl)
	if err := p.expectKeyword("where"); err != nil {
		return nil, err
	}
	w, err := p.parseWhere(tbl)
	if err != nil {
		return nil, err
	}
	sel.Where = w
	if _, err := p.expect(tokSemi); err != nil {
		return nil, err
	}
	return sel, nil
}

func (p *parser) parseUpdate() (ast.Stmt, error) {
	p.advance() // update
	tbl, err := p.expect(tokIdent)
	if err != nil {
		return nil, err
	}
	if err := p.expectKeyword("set"); err != nil {
		return nil, err
	}
	u := &ast.Update{Table: p.text(tbl)}
	mark := len(p.assigns)
	for {
		f, err := p.ident()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokEq); err != nil {
			return nil, err
		}
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		p.assigns = append(p.assigns, ast.Assign{Field: f, Expr: e})
		if p.cur().kind != tokComma {
			break
		}
		p.advance()
	}
	u.Sets = list(&p.assigns, mark)
	if err := p.expectKeyword("where"); err != nil {
		return nil, err
	}
	w, err := p.parseWhere(tbl)
	if err != nil {
		return nil, err
	}
	u.Where = w
	if _, err := p.expect(tokSemi); err != nil {
		return nil, err
	}
	return u, nil
}

func (p *parser) parseInsert() (ast.Stmt, error) {
	p.advance() // insert
	if err := p.expectKeyword("into"); err != nil {
		return nil, err
	}
	tbl, err := p.ident()
	if err != nil {
		return nil, err
	}
	if err := p.expectKeyword("values"); err != nil {
		return nil, err
	}
	if _, err := p.expect(tokLParen); err != nil {
		return nil, err
	}
	ins := &ast.Insert{Table: tbl}
	mark := len(p.assigns)
	for p.cur().kind != tokRParen {
		f, err := p.ident()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokEq); err != nil {
			return nil, err
		}
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		p.assigns = append(p.assigns, ast.Assign{Field: f, Expr: e})
		if p.cur().kind == tokComma {
			p.advance()
		}
	}
	ins.Values = list(&p.assigns, mark)
	p.advance() // )
	if _, err := p.expect(tokSemi); err != nil {
		return nil, err
	}
	return ins, nil
}

// parseDelete desugars `delete from R where φ` into an update clearing the
// implicit alive field (paper §3: DELETE and INSERT are modeled through the
// presence field without extending the core syntax).
func (p *parser) parseDelete() (ast.Stmt, error) {
	p.advance() // delete
	if err := p.expectKeyword("from"); err != nil {
		return nil, err
	}
	tbl, err := p.expect(tokIdent)
	if err != nil {
		return nil, err
	}
	if err := p.expectKeyword("where"); err != nil {
		return nil, err
	}
	w, err := p.parseWhere(tbl)
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tokSemi); err != nil {
		return nil, err
	}
	return &ast.Update{
		Table: p.text(tbl),
		Sets:  []ast.Assign{{Field: ast.AliveField, Expr: ast.Cons(&ast.BoolLit{Val: false})}},
		Where: w,
	}, nil
}

// parseCondBlock parses the `(e) { body }` of an if or iterate whose
// keyword is the current token.
func (p *parser) parseCondBlock() (ast.Expr, []ast.Stmt, error) {
	kw := p.advance()
	if p.blocks++; p.blocks > maxDepth {
		return nil, nil, p.errf(kw, "%s nested deeper than %d", p.text(kw), maxDepth)
	}
	if _, err := p.expect(tokLParen); err != nil {
		return nil, nil, err
	}
	e, err := p.parseExpr()
	if err != nil {
		return nil, nil, err
	}
	if _, err := p.expect(tokRParen); err != nil {
		return nil, nil, err
	}
	if _, err := p.expect(tokLBrace); err != nil {
		return nil, nil, err
	}
	body, _, err := p.parseBlockBody(false)
	if err != nil {
		return nil, nil, err
	}
	if _, err := p.expect(tokRBrace); err != nil {
		return nil, nil, err
	}
	p.blocks--
	return e, body, nil
}

func (p *parser) parseIf() (ast.Stmt, error) {
	cond, body, err := p.parseCondBlock()
	if err != nil {
		return nil, err
	}
	return &ast.If{Cond: cond, Then: body}, nil
}

func (p *parser) parseIterate() (ast.Stmt, error) {
	count, body, err := p.parseCondBlock()
	if err != nil {
		return nil, err
	}
	return &ast.Iterate{Count: count, Body: body}, nil
}

// parseWhere parses a where clause in the context of table tbl: bare
// identifiers that name a field of that table become this.f references.
func (p *parser) parseWhere(tbl token) (ast.Expr, error) {
	schema := p.prog.Schema(p.text(tbl))
	if schema == nil {
		return nil, p.errf(tbl, "unknown table %q", p.text(tbl))
	}
	p.whereSchema = schema
	e, err := p.parseExpr()
	p.whereSchema = nil
	return e, err
}

// Expression parsing by precedence climbing. Every parse function leaves
// the height of the tree it returns in p.height.

func (p *parser) parseExpr() (ast.Expr, error) { return p.parseBinary(levelOr) }

// Precedence levels of the binary operators, loosest first.
const (
	levelOr = 1 + iota
	levelAnd
	levelCmp
	levelAdd
	levelMul
)

// binOp maps a token to the binary operator it denotes and its level; the
// level is 0 for any other token.
func binOp(k tokenKind) (ast.BinOp, int) {
	switch k {
	case tokOrOr:
		return ast.OpOr, levelOr
	case tokAndAnd:
		return ast.OpAnd, levelAnd
	case tokLt:
		return ast.OpLt, levelCmp
	case tokLe:
		return ast.OpLe, levelCmp
	case tokEq:
		return ast.OpEq, levelCmp
	case tokNe:
		return ast.OpNe, levelCmp
	case tokGt:
		return ast.OpGt, levelCmp
	case tokGe:
		return ast.OpGe, levelCmp
	case tokPlus:
		return ast.OpAdd, levelAdd
	case tokMinus:
		return ast.OpSub, levelAdd
	case tokStar:
		return ast.OpMul, levelMul
	case tokSlash:
		return ast.OpDiv, levelMul
	}
	return 0, 0
}

// parseBinary parses an operand followed by operators of level min or
// tighter, left-associatively; each right operand takes the operators
// that bind tighter than its own. Once an operator of level lv is applied
// no tighter one can follow at this depth (the right operand took it),
// and after a comparison no comparison either: comparisons do not chain.
func (p *parser) parseBinary(min int) (ast.Expr, error) {
	l, err := p.parsePrimary()
	ceiling := levelMul
	for err == nil {
		op, lv := binOp(p.cur().kind)
		if lv < min || lv > ceiling {
			break
		}
		at, hl := p.advance(), p.height
		var r ast.Expr
		if r, err = p.parseBinary(lv + 1); err == nil {
			l, err = p.binary(at, op, l, r, hl)
		}
		if ceiling = lv; lv == levelCmp {
			ceiling--
		}
	}
	return l, err
}

// binary hash-conses l op r. l has height hl; r was parsed last, so its
// height is p.height. A tree taller than maxDepth is an error at the
// operator token at.
func (p *parser) binary(at token, op ast.BinOp, l, r ast.Expr, hl int) (ast.Expr, error) {
	if err := p.grow(at, max(hl, p.height)+1); err != nil {
		return nil, err
	}
	return ast.Cons(&ast.Binary{Op: op, L: l, R: r}), nil
}

// grow records h as the height of the expression being built at token at.
func (p *parser) grow(at token, h int) error {
	if h > maxDepth {
		return p.errf(at, "expression nested deeper than %d", maxDepth)
	}
	p.height = h
	return nil
}

// enter opens a parenthesis, unary minus or index bracket at token at;
// the caller decrements p.open when it closes.
func (p *parser) enter(at token) error {
	if p.open++; p.open > maxDepth {
		return p.errf(at, "expression nested deeper than %d", maxDepth)
	}
	return nil
}

// leaf hash-conses a leaf expression.
func (p *parser) leaf(e ast.Expr) ast.Expr {
	p.height = 1
	return ast.Cons(e)
}

func (p *parser) parsePrimary() (ast.Expr, error) {
	t := p.cur()
	switch t.kind {
	case tokInt:
		p.advance()
		n, err := strconv.ParseInt(p.text(t), 10, 64)
		if err != nil {
			return nil, p.errf(t, "invalid integer %q", p.text(t))
		}
		return p.leaf(&ast.IntLit{Val: n}), nil
	case tokString:
		p.advance()
		return p.leaf(&ast.StringLit{Val: p.text(t)}), nil
	case tokMinus:
		p.advance()
		if err := p.enter(t); err != nil {
			return nil, err
		}
		e, err := p.parsePrimary()
		if err != nil {
			return nil, err
		}
		p.open--
		if err := p.grow(t, p.height+1); err != nil {
			return nil, err
		}
		return ast.Cons(&ast.Binary{Op: ast.OpSub, L: ast.Cons(&ast.IntLit{Val: 0}), R: e}), nil
	case tokLParen:
		p.advance()
		if err := p.enter(t); err != nil {
			return nil, err
		}
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokRParen); err != nil {
			return nil, err
		}
		p.open--
		return e, nil
	case tokIdent:
		return p.parseIdentExpr()
	default:
		return nil, p.errf(t, "expected expression, found %s %q", t.kind, p.text(t))
	}
}

// aggFn maps an aggregator name to its function.
func aggFn(name string) (ast.AggFn, bool) {
	switch name {
	case "sum":
		return ast.AggSum, true
	case "min":
		return ast.AggMin, true
	case "max":
		return ast.AggMax, true
	case "count":
		return ast.AggCount, true
	case "any":
		return ast.AggAny, true
	}
	return 0, false
}

func (p *parser) parseIdentExpr() (ast.Expr, error) {
	name := p.text(p.advance())
	switch name {
	case "true":
		return p.leaf(&ast.BoolLit{Val: true}), nil
	case "false":
		return p.leaf(&ast.BoolLit{Val: false}), nil
	case "iter":
		return p.leaf(&ast.IterVar{}), nil
	case "uuid":
		if p.cur().kind == tokLParen {
			p.advance()
			if _, err := p.expect(tokRParen); err != nil {
				return nil, err
			}
			return p.leaf(&ast.UUID{}), nil
		}
	case "this":
		if p.cur().kind == tokDot {
			p.advance()
			f, err := p.ident()
			if err != nil {
				return nil, err
			}
			return p.leaf(&ast.ThisField{Field: f}), nil
		}
	}
	if fn, ok := aggFn(name); ok && p.cur().kind == tokLParen {
		p.advance()
		v, err := p.ident()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokDot); err != nil {
			return nil, err
		}
		f, err := p.ident()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokRParen); err != nil {
			return nil, err
		}
		return p.leaf(&ast.Agg{Fn: fn, Var: v, Field: f}), nil
	}
	// x.f or x.f[e]: access to a previously bound query variable.
	if p.cur().kind == tokDot {
		p.advance()
		f, err := p.ident()
		if err != nil {
			return nil, err
		}
		if p.cur().kind != tokLBracket {
			return p.leaf(&ast.FieldAt{Var: name, Field: f}), nil
		}
		at := p.advance()
		if err := p.enter(at); err != nil {
			return nil, err
		}
		idx, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokRBracket); err != nil {
			return nil, err
		}
		p.open--
		if err := p.grow(at, p.height+1); err != nil {
			return nil, err
		}
		return ast.Cons(&ast.FieldAt{Var: name, Field: f, Index: idx}), nil
	}
	// Bare identifier: inside a where clause, a field of the target table
	// denotes this.f; otherwise it is a transaction argument.
	if p.whereSchema != nil && p.whereSchema.HasField(name) {
		return p.leaf(&ast.ThisField{Field: name}), nil
	}
	return p.leaf(&ast.Arg{Name: name}), nil
}
