// Package parser implements a lexer and recursive-descent parser for the
// database-program DSL (paper Fig. 5). The concrete syntax follows the
// paper's listings:
//
//	table STUDENT { st_id: int key, st_name: string, }
//
//	txn getSt(id: int) {
//	  x := select * from STUDENT where st_id = id;
//	  return x.st_name;
//	}
//
// The parser auto-assigns the stable command labels (S1, U1, ...) used in
// the paper's figures and in anomaly reports.
package parser

import (
	"fmt"
	"strings"
	"unicode"
)

type tokenKind int

const (
	tokEOF tokenKind = iota
	tokIdent
	tokInt
	tokString
	// punctuation
	tokAssign // :=
	tokLParen
	tokRParen
	tokLBrace
	tokRBrace
	tokLBracket
	tokRBracket
	tokComma
	tokSemi
	tokColon
	tokDot
	// operators
	tokPlus
	tokMinus
	tokStar
	tokSlash
	tokLt
	tokLe
	tokEq
	tokNe
	tokGt
	tokGe
	tokAndAnd
	tokOrOr
)

func (k tokenKind) String() string {
	switch k {
	case tokEOF:
		return "end of input"
	case tokIdent:
		return "identifier"
	case tokInt:
		return "integer"
	case tokString:
		return "string"
	case tokAssign:
		return "':='"
	case tokLParen:
		return "'('"
	case tokRParen:
		return "')'"
	case tokLBrace:
		return "'{'"
	case tokRBrace:
		return "'}'"
	case tokLBracket:
		return "'['"
	case tokRBracket:
		return "']'"
	case tokComma:
		return "','"
	case tokSemi:
		return "';'"
	case tokColon:
		return "':'"
	case tokDot:
		return "'.'"
	case tokPlus:
		return "'+'"
	case tokMinus:
		return "'-'"
	case tokStar:
		return "'*'"
	case tokSlash:
		return "'/'"
	case tokLt:
		return "'<'"
	case tokLe:
		return "'<='"
	case tokEq:
		return "'='"
	case tokNe:
		return "'!='"
	case tokGt:
		return "'>'"
	case tokGe:
		return "'>='"
	case tokAndAnd:
		return "'&&'"
	case tokOrOr:
		return "'||'"
	default:
		return fmt.Sprintf("token(%d)", int(k))
	}
}

type token struct {
	kind tokenKind
	text string
	line int
	col  int
}

// Error is a parse or lex error with source position.
type Error struct {
	Line, Col int
	Msg       string
}

func (e *Error) Error() string {
	return fmt.Sprintf("%d:%d: %s", e.Line, e.Col, e.Msg)
}

type lexer struct {
	src  string
	pos  int
	line int
	col  int
}

func newLexer(src string) *lexer {
	return &lexer{src: src, line: 1, col: 1}
}

func (l *lexer) errf(format string, args ...any) *Error {
	return &Error{Line: l.line, Col: l.col, Msg: fmt.Sprintf(format, args...)}
}

func (l *lexer) peekByte() byte {
	if l.pos >= len(l.src) {
		return 0
	}
	return l.src[l.pos]
}

func (l *lexer) advance() byte {
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

func (l *lexer) skipSpaceAndComments() {
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

func isIdentStart(c byte) bool {
	return c == '_' || unicode.IsLetter(rune(c))
}

func isIdentPart(c byte) bool {
	return c == '_' || unicode.IsLetter(rune(c)) || unicode.IsDigit(rune(c))
}

func (l *lexer) next() (token, *Error) {
	l.skipSpaceAndComments()
	line, col := l.line, l.col
	mk := func(k tokenKind, text string) token {
		return token{kind: k, text: text, line: line, col: col}
	}
	if l.pos >= len(l.src) {
		return mk(tokEOF, ""), nil
	}
	c := l.peekByte()
	switch {
	case isIdentStart(c):
		start := l.pos
		for l.pos < len(l.src) && isIdentPart(l.peekByte()) {
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
				return token{}, l.errf("unterminated string literal")
			}
			ch := l.advance()
			if ch == '"' {
				break
			}
			if ch == '\\' {
				if l.pos >= len(l.src) {
					return token{}, l.errf("unterminated escape in string literal")
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
					return token{}, l.errf("unknown escape \\%c", esc)
				}
				continue
			}
			sb.WriteByte(ch)
		}
		return mk(tokString, sb.String()), nil
	}
	l.advance()
	two := func(nextc byte, k2 tokenKind, k1 tokenKind) (token, *Error) {
		if l.peekByte() == nextc {
			l.advance()
			return mk(k2, ""), nil
		}
		if k1 == tokEOF {
			return token{}, &Error{Line: line, Col: col, Msg: fmt.Sprintf("unexpected character %q", c)}
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
	return token{}, &Error{Line: line, Col: col, Msg: fmt.Sprintf("unexpected character %q", c)}
}

// lexAll tokenizes the whole input. The token slice is presized from the
// source length — the benchmark programs run 3.8–4.5 bytes per token, and
// growing from nil re-copied the slice a dozen times — but only up to
// maxTokPresize: the daemon lexes untrusted bodies of up to 1 MB, and a
// hostile one must not buy an allocation proportional to its length before
// its first token is read. Longer inputs grow by append from there.
func lexAll(src string) ([]token, *Error) {
	const maxTokPresize = 4096
	l := newLexer(src)
	toks := make([]token, 0, min(len(src)/3+1, maxTokPresize))
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
