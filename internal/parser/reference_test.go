package parser

import (
	"fmt"
	"strconv"
	"strings"
	"unicode"

	"atropos/internal/ast"
)

// The reference front end: the lexer and parser production used before the
// one-pass front end, kept verbatim (identifiers prefixed ref) as the
// differential oracle of differential_test.go. It lexes with per-byte
// unicode calls into tokens that carry their text and line:col, parses
// with map-driven operator tables, labels commands with fmt, and interns
// expressions in a second walk over the finished program. It has no depth
// bound; the differential only feeds it inputs the production parser
// accepts within maxDepth.

type refToken struct {
	kind tokenKind
	text string
	line int
	col  int
}

type refLexer struct {
	src  string
	pos  int
	line int
	col  int
}

func newRefLexer(src string) *refLexer {
	return &refLexer{src: src, line: 1, col: 1}
}

func (l *refLexer) errf(format string, args ...any) *Error {
	return &Error{Line: l.line, Col: l.col, Msg: fmt.Sprintf(format, args...)}
}

func (l *refLexer) peekByte() byte {
	if l.pos >= len(l.src) {
		return 0
	}
	return l.src[l.pos]
}

func (l *refLexer) advance() byte {
	c := l.src[l.pos]
	l.pos++
	if c == '\n' {
		l.line++
		l.col = 1
	} else {
		l.col++
	}
	return c
}

func (l *refLexer) skipSpaceAndComments() {
	for l.pos < len(l.src) {
		c := l.peekByte()
		switch {
		case c == ' ' || c == '\t' || c == '\r' || c == '\n':
			l.advance()
		case c == '/' && l.pos+1 < len(l.src) && l.src[l.pos+1] == '/':
			for l.pos < len(l.src) && l.peekByte() != '\n' {
				l.advance()
			}
		default:
			return
		}
	}
}

func refIsIdentStart(c byte) bool {
	return c == '_' || unicode.IsLetter(rune(c))
}

func refIsIdentPart(c byte) bool {
	return c == '_' || unicode.IsLetter(rune(c)) || unicode.IsDigit(rune(c))
}

func (l *refLexer) next() (refToken, *Error) {
	l.skipSpaceAndComments()
	line, col := l.line, l.col
	mk := func(k tokenKind, text string) refToken {
		return refToken{kind: k, text: text, line: line, col: col}
	}
	if l.pos >= len(l.src) {
		return mk(tokEOF, ""), nil
	}
	c := l.peekByte()
	switch {
	case refIsIdentStart(c):
		start := l.pos
		for l.pos < len(l.src) && refIsIdentPart(l.peekByte()) {
			l.advance()
		}
		return mk(tokIdent, l.src[start:l.pos]), nil
	case unicode.IsDigit(rune(c)):
		start := l.pos
		for l.pos < len(l.src) && unicode.IsDigit(rune(l.peekByte())) {
			l.advance()
		}
		return mk(tokInt, l.src[start:l.pos]), nil
	case c == '"':
		l.advance()
		var sb strings.Builder
		for {
			if l.pos >= len(l.src) {
				return refToken{}, l.errf("unterminated string literal")
			}
			ch := l.advance()
			if ch == '"' {
				break
			}
			if ch == '\\' {
				if l.pos >= len(l.src) {
					return refToken{}, l.errf("unterminated escape in string literal")
				}
				esc := l.advance()
				switch esc {
				case 'n':
					sb.WriteByte('\n')
				case 't':
					sb.WriteByte('\t')
				case '"', '\\':
					sb.WriteByte(esc)
				default:
					return refToken{}, l.errf("unknown escape \\%c", esc)
				}
				continue
			}
			sb.WriteByte(ch)
		}
		return mk(tokString, sb.String()), nil
	}
	l.advance()
	two := func(nextc byte, k2 tokenKind, k1 tokenKind) (refToken, *Error) {
		if l.peekByte() == nextc {
			l.advance()
			return mk(k2, ""), nil
		}
		if k1 == tokEOF {
			return refToken{}, &Error{Line: line, Col: col, Msg: fmt.Sprintf("unexpected character %q", c)}
		}
		return mk(k1, ""), nil
	}
	switch c {
	case ':':
		return two('=', tokAssign, tokColon)
	case '(':
		return mk(tokLParen, ""), nil
	case ')':
		return mk(tokRParen, ""), nil
	case '{':
		return mk(tokLBrace, ""), nil
	case '}':
		return mk(tokRBrace, ""), nil
	case '[':
		return mk(tokLBracket, ""), nil
	case ']':
		return mk(tokRBracket, ""), nil
	case ',':
		return mk(tokComma, ""), nil
	case ';':
		return mk(tokSemi, ""), nil
	case '.':
		return mk(tokDot, ""), nil
	case '+':
		return mk(tokPlus, ""), nil
	case '-':
		return mk(tokMinus, ""), nil
	case '*':
		return mk(tokStar, ""), nil
	case '/':
		return mk(tokSlash, ""), nil
	case '<':
		return two('=', tokLe, tokLt)
	case '>':
		return two('=', tokGe, tokGt)
	case '=':
		return mk(tokEq, ""), nil
	case '!':
		return two('=', tokNe, tokEOF)
	case '&':
		return two('&', tokAndAnd, tokEOF)
	case '|':
		return two('|', tokOrOr, tokEOF)
	}
	return refToken{}, &Error{Line: line, Col: col, Msg: fmt.Sprintf("unexpected character %q", c)}
}

// refLexAll tokenizes the whole input.
func refLexAll(src string) ([]refToken, *Error) {
	const maxTokPresize = 4096
	l := newRefLexer(src)
	toks := make([]refToken, 0, min(len(src)/3+1, maxTokPresize))
	for {
		t, err := l.next()
		if err != nil {
			return nil, err
		}
		toks = append(toks, t)
		if t.kind == tokEOF {
			return toks, nil
		}
	}
}

// refParse parses DSL source into a program. Labels are assigned to every
// database command (S1.. for selects, U1.. for updates and inserts,
// per-transaction counters), matching the paper's naming in Figs. 1 and 11.
func refParse(src string) (*ast.Program, error) {
	toks, lerr := refLexAll(src)
	if lerr != nil {
		return nil, lerr
	}
	p := &refParser{toks: toks}
	prog, err := p.parseProgram()
	if err != nil {
		return nil, err
	}
	refAssignLabels(prog)
	return prog, nil
}

// refAssignLabels (re)assigns stable command labels within each transaction:
// selects become S1, S2, ...; updates and inserts become U1, U2, ....
func refAssignLabels(prog *ast.Program) {
	for _, t := range prog.Txns {
		nSel, nUpd := 0, 0
		ast.WalkStmts(t.Body, func(s ast.Stmt) bool {
			switch c := s.(type) {
			case *ast.Select:
				nSel++
				c.Label = fmt.Sprintf("S%d", nSel)
			case *ast.Update:
				nUpd++
				c.Label = fmt.Sprintf("U%d", nUpd)
			case *ast.Insert:
				nUpd++
				c.Label = fmt.Sprintf("U%d", nUpd)
			}
			return true
		})
	}
}

type refParser struct {
	toks []refToken
	pos  int
	prog *ast.Program
	// current transaction context for identifier resolution
	curParams map[string]bool
	curVars   map[string]bool
	// current where-clause table context (nil outside where clauses)
	whereSchema *ast.Schema
}

func (p *refParser) cur() refToken  { return p.toks[p.pos] }
func (p *refParser) peek() refToken { return p.toks[min(p.pos+1, len(p.toks)-1)] }

func (p *refParser) advance() refToken {
	t := p.toks[p.pos]
	if p.pos < len(p.toks)-1 {
		p.pos++
	}
	return t
}

func (p *refParser) errf(t refToken, format string, args ...any) error {
	return &Error{Line: t.line, Col: t.col, Msg: fmt.Sprintf(format, args...)}
}

func (p *refParser) expect(k tokenKind) (refToken, error) {
	t := p.cur()
	if t.kind != k {
		return t, p.errf(t, "expected %s, found %s %q", k, t.kind, t.text)
	}
	return p.advance(), nil
}

func (p *refParser) expectKeyword(kw string) error {
	t := p.cur()
	if t.kind != tokIdent || t.text != kw {
		return p.errf(t, "expected %q, found %s %q", kw, t.kind, t.text)
	}
	p.advance()
	return nil
}

func (p *refParser) atKeyword(kw string) bool {
	t := p.cur()
	return t.kind == tokIdent && t.text == kw
}

func (p *refParser) parseProgram() (*ast.Program, error) {
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
			return nil, p.errf(p.cur(), "expected 'table' or 'txn', found %s %q", p.cur().kind, p.cur().text)
		}
	}
}

func (p *refParser) parseSchema() (*ast.Schema, error) {
	p.advance() // table
	name, err := p.expect(tokIdent)
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tokLBrace); err != nil {
		return nil, err
	}
	s := &ast.Schema{Name: name.text}
	for p.cur().kind != tokRBrace {
		fname, err := p.expect(tokIdent)
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
		f := &ast.Field{Name: fname.text, Type: ftype}
		if p.atKeyword("key") {
			p.advance()
			f.PK = true
		}
		s.Fields = append(s.Fields, f)
		if p.cur().kind == tokComma {
			p.advance()
			continue
		}
		break
	}
	if _, err := p.expect(tokRBrace); err != nil {
		return nil, err
	}
	return s, nil
}

func (p *refParser) parseType() (ast.Type, error) {
	t, err := p.expect(tokIdent)
	if err != nil {
		return ast.TInvalid, err
	}
	switch t.text {
	case "int":
		return ast.TInt, nil
	case "bool":
		return ast.TBool, nil
	case "string":
		return ast.TString, nil
	default:
		return ast.TInvalid, p.errf(t, "unknown type %q", t.text)
	}
}

func (p *refParser) parseTxn() (*ast.Txn, error) {
	p.advance() // txn
	name, err := p.expect(tokIdent)
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tokLParen); err != nil {
		return nil, err
	}
	t := &ast.Txn{Name: name.text}
	p.curParams = map[string]bool{}
	p.curVars = map[string]bool{}
	for p.cur().kind != tokRParen {
		pname, err := p.expect(tokIdent)
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
		t.Params = append(t.Params, &ast.Param{Name: pname.text, Type: ptype})
		p.curParams[pname.text] = true
		if p.cur().kind == tokComma {
			p.advance()
		}
	}
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
func (p *refParser) parseBlockBody(allowReturn bool) ([]ast.Stmt, ast.Expr, error) {
	var body []ast.Stmt
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
			return body, e, nil
		}
		s, err := p.parseStmt()
		if err != nil {
			return nil, nil, err
		}
		body = append(body, s)
	}
	return body, nil, nil
}

func (p *refParser) parseStmt() (ast.Stmt, error) {
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
	case t.kind == tokIdent && p.peek().kind == tokAssign:
		return p.parseSelect()
	default:
		return nil, p.errf(t, "expected statement, found %s %q", t.kind, t.text)
	}
}

func (p *refParser) parseSelect() (ast.Stmt, error) {
	v, _ := p.expect(tokIdent)
	p.advance() // :=
	if err := p.expectKeyword("select"); err != nil {
		return nil, err
	}
	sel := &ast.Select{Var: v.text}
	if p.cur().kind == tokStar {
		p.advance()
		sel.Star = true
	} else {
		for {
			f, err := p.expect(tokIdent)
			if err != nil {
				return nil, err
			}
			sel.Fields = append(sel.Fields, f.text)
			if p.cur().kind != tokComma {
				break
			}
			p.advance()
		}
	}
	if err := p.expectKeyword("from"); err != nil {
		return nil, err
	}
	tbl, err := p.expect(tokIdent)
	if err != nil {
		return nil, err
	}
	sel.Table = tbl.text
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
	p.curVars[v.text] = true
	return sel, nil
}

func (p *refParser) parseUpdate() (ast.Stmt, error) {
	p.advance() // update
	tbl, err := p.expect(tokIdent)
	if err != nil {
		return nil, err
	}
	if err := p.expectKeyword("set"); err != nil {
		return nil, err
	}
	u := &ast.Update{Table: tbl.text}
	for {
		f, err := p.expect(tokIdent)
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
		u.Sets = append(u.Sets, ast.Assign{Field: f.text, Expr: e})
		if p.cur().kind != tokComma {
			break
		}
		p.advance()
	}
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

func (p *refParser) parseInsert() (ast.Stmt, error) {
	p.advance() // insert
	if err := p.expectKeyword("into"); err != nil {
		return nil, err
	}
	tbl, err := p.expect(tokIdent)
	if err != nil {
		return nil, err
	}
	if err := p.expectKeyword("values"); err != nil {
		return nil, err
	}
	if _, err := p.expect(tokLParen); err != nil {
		return nil, err
	}
	ins := &ast.Insert{Table: tbl.text}
	for p.cur().kind != tokRParen {
		f, err := p.expect(tokIdent)
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
		ins.Values = append(ins.Values, ast.Assign{Field: f.text, Expr: e})
		if p.cur().kind == tokComma {
			p.advance()
		}
	}
	p.advance() // )
	if _, err := p.expect(tokSemi); err != nil {
		return nil, err
	}
	return ins, nil
}

// parseDelete desugars `delete from R where φ` into an update clearing the
// implicit alive field (paper §3: DELETE and INSERT are modeled through the
// presence field without extending the core syntax).
func (p *refParser) parseDelete() (ast.Stmt, error) {
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
		Table: tbl.text,
		Sets:  []ast.Assign{{Field: ast.AliveField, Expr: &ast.BoolLit{Val: false}}},
		Where: w,
	}, nil
}

func (p *refParser) parseIf() (ast.Stmt, error) {
	p.advance() // if
	if _, err := p.expect(tokLParen); err != nil {
		return nil, err
	}
	cond, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tokRParen); err != nil {
		return nil, err
	}
	if _, err := p.expect(tokLBrace); err != nil {
		return nil, err
	}
	body, _, err := p.parseBlockBody(false)
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tokRBrace); err != nil {
		return nil, err
	}
	return &ast.If{Cond: cond, Then: body}, nil
}

func (p *refParser) parseIterate() (ast.Stmt, error) {
	p.advance() // iterate
	if _, err := p.expect(tokLParen); err != nil {
		return nil, err
	}
	count, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tokRParen); err != nil {
		return nil, err
	}
	if _, err := p.expect(tokLBrace); err != nil {
		return nil, err
	}
	body, _, err := p.parseBlockBody(false)
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tokRBrace); err != nil {
		return nil, err
	}
	return &ast.Iterate{Count: count, Body: body}, nil
}

// parseWhere parses a where clause in the context of table tbl: bare
// identifiers that name a field of that table become this.f references.
func (p *refParser) parseWhere(tbl refToken) (ast.Expr, error) {
	schema := p.prog.Schema(tbl.text)
	if schema == nil {
		return nil, p.errf(tbl, "unknown table %q", tbl.text)
	}
	prev := p.whereSchema
	p.whereSchema = schema
	defer func() { p.whereSchema = prev }()
	return p.parseExpr()
}

// Expression parsing with precedence climbing:
// or < and < comparison < additive < multiplicative < primary.

func (p *refParser) parseExpr() (ast.Expr, error) { return p.parseOr() }

func (p *refParser) parseOr() (ast.Expr, error) {
	l, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.cur().kind == tokOrOr {
		p.advance()
		r, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		l = &ast.Binary{Op: ast.OpOr, L: l, R: r}
	}
	return l, nil
}

func (p *refParser) parseAnd() (ast.Expr, error) {
	l, err := p.parseCmp()
	if err != nil {
		return nil, err
	}
	for p.cur().kind == tokAndAnd {
		p.advance()
		r, err := p.parseCmp()
		if err != nil {
			return nil, err
		}
		l = &ast.Binary{Op: ast.OpAnd, L: l, R: r}
	}
	return l, nil
}

var refCmpOps = map[tokenKind]ast.BinOp{
	tokLt: ast.OpLt, tokLe: ast.OpLe, tokEq: ast.OpEq,
	tokNe: ast.OpNe, tokGt: ast.OpGt, tokGe: ast.OpGe,
}

func (p *refParser) parseCmp() (ast.Expr, error) {
	l, err := p.parseAdd()
	if err != nil {
		return nil, err
	}
	if op, ok := refCmpOps[p.cur().kind]; ok {
		p.advance()
		r, err := p.parseAdd()
		if err != nil {
			return nil, err
		}
		return &ast.Binary{Op: op, L: l, R: r}, nil
	}
	return l, nil
}

func (p *refParser) parseAdd() (ast.Expr, error) {
	l, err := p.parseMul()
	if err != nil {
		return nil, err
	}
	for p.cur().kind == tokPlus || p.cur().kind == tokMinus {
		op := ast.OpAdd
		if p.cur().kind == tokMinus {
			op = ast.OpSub
		}
		p.advance()
		r, err := p.parseMul()
		if err != nil {
			return nil, err
		}
		l = &ast.Binary{Op: op, L: l, R: r}
	}
	return l, nil
}

func (p *refParser) parseMul() (ast.Expr, error) {
	l, err := p.parsePrimary()
	if err != nil {
		return nil, err
	}
	for p.cur().kind == tokStar || p.cur().kind == tokSlash {
		op := ast.OpMul
		if p.cur().kind == tokSlash {
			op = ast.OpDiv
		}
		p.advance()
		r, err := p.parsePrimary()
		if err != nil {
			return nil, err
		}
		l = &ast.Binary{Op: op, L: l, R: r}
	}
	return l, nil
}

var refAggFns = map[string]ast.AggFn{
	"sum": ast.AggSum, "min": ast.AggMin, "max": ast.AggMax,
	"count": ast.AggCount, "any": ast.AggAny,
}

func (p *refParser) parsePrimary() (ast.Expr, error) {
	t := p.cur()
	switch t.kind {
	case tokInt:
		p.advance()
		n, err := strconv.ParseInt(t.text, 10, 64)
		if err != nil {
			return nil, p.errf(t, "invalid integer %q", t.text)
		}
		return &ast.IntLit{Val: n}, nil
	case tokString:
		p.advance()
		return &ast.StringLit{Val: t.text}, nil
	case tokMinus:
		p.advance()
		e, err := p.parsePrimary()
		if err != nil {
			return nil, err
		}
		return &ast.Binary{Op: ast.OpSub, L: &ast.IntLit{Val: 0}, R: e}, nil
	case tokLParen:
		p.advance()
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokRParen); err != nil {
			return nil, err
		}
		return e, nil
	case tokIdent:
		return p.parseIdentExpr()
	default:
		return nil, p.errf(t, "expected expression, found %s %q", t.kind, t.text)
	}
}

func (p *refParser) parseIdentExpr() (ast.Expr, error) {
	t := p.advance()
	switch t.text {
	case "true":
		return &ast.BoolLit{Val: true}, nil
	case "false":
		return &ast.BoolLit{Val: false}, nil
	case "iter":
		return &ast.IterVar{}, nil
	case "uuid":
		if p.cur().kind == tokLParen {
			p.advance()
			if _, err := p.expect(tokRParen); err != nil {
				return nil, err
			}
			return &ast.UUID{}, nil
		}
	case "this":
		if p.cur().kind == tokDot {
			p.advance()
			f, err := p.expect(tokIdent)
			if err != nil {
				return nil, err
			}
			return &ast.ThisField{Field: f.text}, nil
		}
	}
	if fn, ok := refAggFns[t.text]; ok && p.cur().kind == tokLParen {
		p.advance()
		v, err := p.expect(tokIdent)
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokDot); err != nil {
			return nil, err
		}
		f, err := p.expect(tokIdent)
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokRParen); err != nil {
			return nil, err
		}
		return &ast.Agg{Fn: fn, Var: v.text, Field: f.text}, nil
	}
	// x.f or x.f[e]: access to a previously bound query variable.
	if p.cur().kind == tokDot {
		p.advance()
		f, err := p.expect(tokIdent)
		if err != nil {
			return nil, err
		}
		fa := &ast.FieldAt{Var: t.text, Field: f.text}
		if p.cur().kind == tokLBracket {
			p.advance()
			idx, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(tokRBracket); err != nil {
				return nil, err
			}
			fa.Index = idx
		}
		return fa, nil
	}
	// Bare identifier: inside a where clause, a field of the target table
	// denotes this.f; otherwise it is a transaction argument.
	if p.whereSchema != nil && p.whereSchema.HasField(t.text) {
		return &ast.ThisField{Field: t.text}, nil
	}
	return &ast.Arg{Name: t.text}, nil
}

// RefParse is the reference parser and MaxDepth the production parser's
// nesting bound, for the package's external tests.
var RefParse = refParse

const MaxDepth = maxDepth
