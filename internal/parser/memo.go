package parser

import (
	"encoding/binary"
	"hash/maphash"
	"slices"
	"sync"

	"atropos/internal/ast"
)

// The parser's memo (DESIGN.md §3): each source Parse accepted, keyed by
// its text, and each table and txn declaration it parsed, keyed by its
// tokens. A txn entry records the schema each where-clause table resolved
// to (a bare identifier there is this.f if the table has field f) and is
// reused only where each resolves the same.

// declMemoMax bounds the key bytes the memo holds and srcMemoMax, apart,
// the source bytes, so sources never take the declarations' room; at its
// bound each kind stops inserting. A declaration whose key passes maxKey
// is not memoized: its scan stops there.
const (
	declMemoMax = 4 << 20
	srcMemoMax  = declMemoMax / 4
	maxKey      = declMemoMax / 16
)

// declEntry is one memoized declaration: its key, its node (schema or
// txn) and a txn's where-clause schemas, each once.
type declEntry struct {
	key    string
	schema *ast.Schema
	txn    *ast.Txn
	deps   []*ast.Schema
}

var declMemo = struct {
	sync.RWMutex
	m        map[uint64][]*declEntry
	srcs     map[string]ast.Program // headers with clipped slices
	bytes    int                    // key bytes held
	srcBytes int                    // source bytes held
}{m: make(map[uint64][]*declEntry), srcs: make(map[string]ast.Program)}
var declSeed = maphash.MakeSeed()

// declaration returns the table (txn false) or transaction declaration at
// the current token, from the memo if an entry matches, else parsed and,
// if it parses, remembered. A scan that meets end of input or a lexical
// error before the closing brace leaves the parser to find it, so errors
// and their positions stay the parser's own; one that passes maxKey
// leaves the declaration to be parsed and not remembered.
func (p *parser) declaration(txn bool) (*declEntry, error) {
	lex, tok := p.lex, p.tok
	h, scanned := p.scanKey()
	if scanned {
		if e := p.recall(h); e != nil {
			p.lex.strs = lex.strs
			p.tok = p.lex.next()
			return e, nil
		}
	}
	p.lex, p.tok = lex, tok
	e := &declEntry{}
	var err error
	if txn {
		p.deps = p.deps[:0]
		if e.txn, err = p.parseTxn(); err == nil {
			e.deps = slices.Clone(p.deps)
		}
	} else {
		e.schema, err = p.parseSchema()
	}
	if err != nil {
		return nil, err
	}
	if scanned {
		remember(h, p.key, e)
	}
	return e, nil
}

// scanKey lexes from the current token to the brace that closes the first
// one, appending each token's kind and, for an identifier, integer or
// string, its length and raw text to p.key; it returns the key's hash, and
// false if end of input (or a lexical error) came first or the key passed
// maxKey.
func (p *parser) scanKey() (uint64, bool) {
	key, depth := p.key[:0], 0
	for t := p.tok; t.kind != tokEOF && len(key) <= maxKey; t = p.lex.next() {
		key = append(key, byte(t.kind))
		switch t.kind {
		case tokIdent, tokInt, tokString:
			key = binary.AppendUvarint(key, uint64(t.end-t.start))
			key = append(key, p.lex.src[t.start:t.end]...)
		case tokLBrace:
			depth++
		case tokRBrace:
			if depth--; depth <= 0 {
				p.key = key
				return maphash.Bytes(declSeed, key), true
			}
		}
	}
	p.key = key
	return 0, false
}

// recall returns the entry keyed p.key under hash h whose where-clause
// tables the program parsed so far resolves to the same nodes, or nil.
func (p *parser) recall(h uint64) *declEntry {
	declMemo.RLock()
	defer declMemo.RUnlock()
	for _, e := range declMemo.m[h] {
		if e.key == string(p.key) && !slices.ContainsFunc(e.deps, func(s *ast.Schema) bool { return p.prog.Schema(s.Name) != s }) {
			return e
		}
	}
	return nil
}

// remember stores e under key (hash h) unless the memo holds an equal
// entry or is full.
func remember(h uint64, key []byte, e *declEntry) {
	declMemo.Lock()
	defer declMemo.Unlock()
	if declMemo.bytes+len(key) > declMemoMax || slices.ContainsFunc(declMemo.m[h], func(o *declEntry) bool {
		return o.key == string(key) && slices.Equal(o.deps, e.deps)
	}) {
		return
	}
	e.key = string(key)
	declMemo.m[h] = append(declMemo.m[h], e)
	declMemo.bytes += len(key)
}

// recallSource returns a fresh header over the program src parsed to, if
// the memo holds src.
func recallSource(src string) *ast.Program {
	declMemo.RLock()
	prog, ok := declMemo.srcs[src]
	declMemo.RUnlock()
	if !ok {
		return nil
	}
	return &ast.Program{Schemas: prog.Schemas, Txns: prog.Txns}
}

// rememberSource stores src, as given, with prog's nodes unless the memo
// holds src or its source share is full.
func rememberSource(src string, prog *ast.Program) {
	declMemo.Lock()
	defer declMemo.Unlock()
	if _, ok := declMemo.srcs[src]; ok || declMemo.srcBytes+len(src) > srcMemoMax {
		return
	}
	declMemo.srcs[src] = ast.Program{Schemas: slices.Clip(prog.Schemas), Txns: slices.Clip(prog.Txns)}
	declMemo.srcBytes += len(src)
}
