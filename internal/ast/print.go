package ast

import (
	"fmt"
	"strconv"
	"sync"
)

// The printer appends every node straight into one byte slice: no per-node
// fmt call and no intermediate strings. The text is the parser's concrete
// syntax and must stay byte-stable — service responses, Table-1 output and
// the repair goldens all carry it.

// formatBufs holds Format's scratch: a program is printed into a pooled
// buffer and copied out once, so the only allocation is the text itself.
var formatBufs = sync.Pool{New: func() any { return new([]byte) }}

// maxPooledFormat is the largest scratch Format returns to the pool.
const maxPooledFormat = 64 << 10

// Format renders a program in the DSL concrete syntax accepted by the
// parser, with command labels as trailing comments (paper Fig. 1 style).
func Format(p *Program) string {
	bp := formatBufs.Get().(*[]byte)
	b := appendProgram((*bp)[:0], p)
	s := string(b)
	if cap(b) <= maxPooledFormat {
		*bp = b
		formatBufs.Put(bp)
	}
	return s
}

func appendProgram(b []byte, p *Program) []byte {
	for i, s := range p.Schemas {
		if i > 0 {
			b = append(b, '\n')
		}
		b = appendSchema(b, s)
	}
	for _, t := range p.Txns {
		b = append(b, '\n')
		b = appendTxn(b, t)
	}
	return b
}

// appendSchema appends one schema declaration.
func appendSchema(b []byte, s *Schema) []byte {
	b = append(b, "table "...)
	b = append(b, s.Name...)
	b = append(b, " {\n"...)
	for _, f := range s.Fields {
		b = append(b, "  "...)
		b = append(b, f.Name...)
		b = append(b, ": "...)
		b = append(b, f.Type.String()...)
		if f.PK {
			b = append(b, " key"...)
		}
		b = append(b, ",\n"...)
	}
	return append(b, "}\n"...)
}

// appendTxn appends one transaction declaration.
func appendTxn(b []byte, t *Txn) []byte {
	b = append(b, "txn "...)
	b = append(b, t.Name...)
	b = append(b, '(')
	for i, p := range t.Params {
		if i > 0 {
			b = append(b, ", "...)
		}
		b = append(b, p.Name...)
		b = append(b, ": "...)
		b = append(b, p.Type.String()...)
	}
	b = append(b, ") {\n"...)
	b = appendStmts(b, t.Body, 1)
	if t.Ret != nil {
		b = append(b, "  return "...)
		b = appendExpr(b, t.Ret)
		b = append(b, ";\n"...)
	}
	return append(b, "}\n"...)
}

func appendStmts(b []byte, body []Stmt, depth int) []byte {
	for _, s := range body {
		switch x := s.(type) {
		case *Select:
			b = indent(b, depth)
			b = append(b, x.Var...)
			b = append(b, " := select "...)
			if x.Star {
				b = append(b, '*')
			} else {
				for i, f := range x.Fields {
					if i > 0 {
						b = append(b, ", "...)
					}
					b = append(b, f...)
				}
			}
			b = append(b, " from "...)
			b = append(b, x.Table...)
			b = append(b, " where "...)
			b = appendExpr(b, x.Where)
			b = endCommand(b, x.Label)
		case *Update:
			b = indent(b, depth)
			if isDelete(x) {
				b = append(b, "delete from "...)
				b = append(b, x.Table...)
			} else {
				b = append(b, "update "...)
				b = append(b, x.Table...)
				b = append(b, " set "...)
				b = appendAssigns(b, x.Sets)
			}
			b = append(b, " where "...)
			b = appendExpr(b, x.Where)
			b = endCommand(b, x.Label)
		case *Insert:
			b = indent(b, depth)
			b = append(b, "insert into "...)
			b = append(b, x.Table...)
			b = append(b, " values ("...)
			b = appendAssigns(b, x.Values)
			b = append(b, ')')
			b = endCommand(b, x.Label)
		case *If:
			b = indent(b, depth)
			b = append(b, "if ("...)
			b = appendExpr(b, x.Cond)
			b = append(b, ") {\n"...)
			b = appendStmts(b, x.Then, depth+1)
			b = indent(b, depth)
			b = append(b, "}\n"...)
		case *Iterate:
			b = indent(b, depth)
			b = append(b, "iterate ("...)
			b = appendExpr(b, x.Count)
			b = append(b, ") {\n"...)
			b = appendStmts(b, x.Body, depth+1)
			b = indent(b, depth)
			b = append(b, "}\n"...)
		case *Skip:
			b = indent(b, depth)
			b = append(b, "skip;\n"...)
		}
	}
	return b
}

func indent(b []byte, depth int) []byte {
	for ; depth > 0; depth-- {
		b = append(b, "  "...)
	}
	return b
}

// endCommand closes a database command: the semicolon, the label as a
// trailing comment, the newline.
func endCommand(b []byte, label string) []byte {
	b = append(b, ';')
	if label != "" {
		b = append(b, " // "...)
		b = append(b, label...)
	}
	return append(b, '\n')
}

// isDelete recognizes the desugared form of `delete from R where φ`.
func isDelete(u *Update) bool {
	if len(u.Sets) != 1 || u.Sets[0].Field != AliveField {
		return false
	}
	b, ok := u.Sets[0].Expr.(*BoolLit)
	return ok && !b.Val
}

func appendAssigns(b []byte, as []Assign) []byte {
	for i, a := range as {
		if i > 0 {
			b = append(b, ", "...)
		}
		b = append(b, a.Field...)
		b = append(b, " = "...)
		b = appendExpr(b, a.Expr)
	}
	return b
}

// ExprString renders an expression in concrete syntax.
func ExprString(e Expr) string {
	var buf [64]byte
	return string(appendExpr(buf[:0], e))
}

func appendExpr(b []byte, e Expr) []byte {
	switch x := e.(type) {
	case nil:
		return b
	case *IntLit:
		return strconv.AppendInt(b, x.Val, 10)
	case *BoolLit:
		return strconv.AppendBool(b, x.Val)
	case *StringLit:
		return appendQuoted(b, x.Val)
	case *Arg:
		return append(b, x.Name...)
	case *Binary:
		b = append(b, '(')
		b = appendExpr(b, x.L)
		b = append(b, ' ')
		b = append(b, x.Op.String()...)
		b = append(b, ' ')
		b = appendExpr(b, x.R)
		return append(b, ')')
	case *IterVar:
		return append(b, "iter"...)
	case *ThisField:
		return append(b, x.Field...)
	case *FieldAt:
		b = append(b, x.Var...)
		b = append(b, '.')
		b = append(b, x.Field...)
		if x.Index != nil {
			b = append(b, '[')
			b = appendExpr(b, x.Index)
			b = append(b, ']')
		}
		return b
	case *Agg:
		b = append(b, x.Fn.String()...)
		b = append(b, '(')
		b = append(b, x.Var...)
		b = append(b, '.')
		b = append(b, x.Field...)
		return append(b, ')')
	case *UUID:
		return append(b, "uuid()"...)
	default:
		return fmt.Appendf(b, "<%T>", e)
	}
}

// appendQuoted appends s as a string literal the lexer reads back as s: it
// knows the escapes \n, \t, \" and \\ only, and takes every other byte
// literally (Go quoting's \r, \x.. and \u.... escapes would not parse).
func appendQuoted(b []byte, s string) []byte {
	b = append(b, '"')
	for i := 0; i < len(s); i++ {
		switch c := s[i]; c {
		case '\n':
			b = append(b, `\n`...)
		case '\t':
			b = append(b, `\t`...)
		case '"', '\\':
			b = append(b, '\\', c)
		default:
			b = append(b, c)
		}
	}
	return append(b, '"')
}

// StmtString renders a single statement (without trailing newline) for
// diagnostics.
func StmtString(s Stmt) string {
	b := appendStmts(nil, []Stmt{s}, 0)
	for len(b) > 0 && b[len(b)-1] == '\n' {
		b = b[:len(b)-1]
	}
	return string(b)
}
