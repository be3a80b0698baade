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

type tokenKind uint8

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

// token is one lexeme: its kind and the byte span [start, end) it covers in
// the source. Identifiers and integers are their span; punctuation and end
// of input have an empty span at their position. A string literal spans
// its quotes; str > 0 marks one written with escapes, whose value is the
// lexer's strs[str-1] — every other literal's value is the text between
// the quotes.
type token struct {
	kind       tokenKind
	str        int32
	start, end int
}

// Error is a parse or lex error with source position.
type Error struct {
	Line, Col int
	Msg       string
}

func (e *Error) Error() string {
	return fmt.Sprintf("%d:%d: %s", e.Line, e.Col, e.Msg)
}

// errorAt positions msg at byte offset off of src. Positions are only
// counted here, when an error is built: lines from 1 at each '\n', columns
// in bytes from 1.
func errorAt(src string, off int, msg string) *Error {
	line := 1 + strings.Count(src[:off], "\n")
	col := off + 1
	if nl := strings.LastIndexByte(src[:off], '\n'); nl >= 0 {
		col = off - nl
	}
	return &Error{Line: line, Col: col, Msg: msg}
}

// Byte classes. A letter is '_' or what unicode.IsLetter says of the byte
// read as a Latin-1 rune, a digit what unicode.IsDigit says: the lexer has
// always classified single bytes that way, and the table keeps it exactly.
const (
	cSpace uint8 = 1 << iota
	cIdentStart
	cIdentPart
	cDigit
)

var byteClass = func() (t [256]uint8) {
	for i := range t {
		c, r := byte(i), rune(i)
		if c == ' ' || c == '\t' || c == '\r' || c == '\n' {
			t[i] |= cSpace
		}
		if c == '_' || unicode.IsLetter(r) {
			t[i] |= cIdentStart | cIdentPart
		}
		if unicode.IsDigit(r) {
			t[i] |= cDigit | cIdentPart
		}
	}
	return t
}()

// punct maps a punctuation byte to its one-byte token kind; the second
// column is the kind of the two-byte token it starts when followed by the
// byte in the third. A zero one-byte kind (tokEOF) means the byte only
// occurs as the start of its two-byte token.
var punct = func() (t [256]struct {
	one, two tokenKind
	next     byte
}) {
	for c, k := range map[byte]tokenKind{
		'(': tokLParen, ')': tokRParen, '{': tokLBrace, '}': tokRBrace,
		'[': tokLBracket, ']': tokRBracket, ',': tokComma, ';': tokSemi,
		'.': tokDot, '+': tokPlus, '-': tokMinus, '*': tokStar, '/': tokSlash,
		'=': tokEq, ':': tokColon, '<': tokLt, '>': tokGt,
	} {
		t[c].one = k
	}
	for c, tw := range map[byte]struct {
		next byte
		k    tokenKind
	}{
		':': {'=', tokAssign}, '<': {'=', tokLe}, '>': {'=', tokGe},
		'!': {'=', tokNe}, '&': {'&', tokAndAnd}, '|': {'|', tokOrOr},
	} {
		t[c].two, t[c].next = tw.k, tw.next
	}
	return t
}()

// lexer produces tokens on demand, in one pass over the source's bytes,
// for a parser that needs no lookahead: a deeply nested or otherwise bad
// program is rejected after the tokens that show it, not after every token
// of a body of up to 1 MB has been stored. A lexical error anywhere
// in the source outranks any parse error (the parser has always lexed the
// whole source first), so Parse ends by lexing whatever the parser did not
// reach (finish).
type lexer struct {
	src string
	pos int
	// strs holds the values of the string literals written with escapes
	// (token.str); err is the first lexical error, after which the lexer
	// yields only end of input.
	strs []string
	err  *Error
}

// next lexes the token at the current position.
func (l *lexer) next() token {
	src, pos := l.src, l.pos
	for pos < len(src) {
		if c := src[pos]; byteClass[c]&cSpace != 0 {
			pos++
		} else if c == '/' && pos+1 < len(src) && src[pos+1] == '/' {
			nl := strings.IndexByte(src[pos:], '\n')
			if nl < 0 {
				nl = len(src) - pos
			}
			pos += nl
		} else {
			break
		}
	}
	if pos >= len(src) || l.err != nil {
		l.pos = pos
		return token{kind: tokEOF, start: pos, end: pos}
	}
	t := token{start: pos}
	switch c := src[pos]; {
	case byteClass[c]&cIdentStart != 0:
		for pos++; pos < len(src) && byteClass[src[pos]]&cIdentPart != 0; pos++ {
		}
		t.kind, t.end = tokIdent, pos
	case byteClass[c]&cDigit != 0:
		for pos++; pos < len(src) && byteClass[src[pos]]&cDigit != 0; pos++ {
		}
		t.kind, t.end = tokInt, pos
	case c == '"':
		var esc bool
		if pos, esc = l.scanString(pos + 1); l.err != nil {
			return token{kind: tokEOF, start: pos, end: pos}
		}
		t.kind, t.end = tokString, pos
		if esc {
			l.strs = append(l.strs, unescape(src[t.start+1:pos-1]))
			t.str = int32(len(l.strs))
		}
	default:
		// Punctuation has no text: its span is empty.
		switch p := &punct[c]; {
		case p.two != tokEOF && pos+1 < len(src) && src[pos+1] == p.next:
			t.kind, t.end = p.two, t.start
			pos += 2
		case p.one != tokEOF:
			t.kind, t.end = p.one, t.start
			pos++
		default:
			l.err = errorAt(src, pos, fmt.Sprintf("unexpected character %q", c))
			return token{kind: tokEOF, start: pos, end: pos}
		}
	}
	l.pos = pos
	return t
}

// finish lexes the rest of the source and returns the first lexical error
// in it, nil if there is none.
func (l *lexer) finish() *Error {
	for l.next().kind != tokEOF {
	}
	return l.err
}

// scanString scans a string literal's body from pos, just past its opening
// quote, to just past its closing quote, and reports whether it contains
// escapes; only \n, \t, \" and \\ are accepted. An error is recorded in
// l.err.
func (l *lexer) scanString(pos int) (int, bool) {
	src, esc := l.src, false
	for {
		if pos >= len(src) {
			l.err = errorAt(src, pos, "unterminated string literal")
			return pos, false
		}
		c := src[pos]
		pos++
		switch c {
		case '"':
			return pos, esc
		case '\\':
			if pos >= len(src) {
				l.err = errorAt(src, pos, "unterminated escape in string literal")
				return pos, false
			}
			switch e := src[pos]; e {
			case 'n', 't', '"', '\\':
			default:
				l.err = errorAt(src, pos+1, fmt.Sprintf("unknown escape \\%c", e))
				return pos, false
			}
			pos++
			esc = true
		}
	}
}

// unescape decodes the body of a string literal scanString accepted.
func unescape(s string) string {
	var sb strings.Builder
	sb.Grow(len(s))
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c == '\\' {
			i++
			switch c = s[i]; c {
			case 'n':
				c = '\n'
			case 't':
				c = '\t'
			}
		}
		sb.WriteByte(c)
	}
	return sb.String()
}
