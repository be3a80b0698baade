package ast

import "sync/atomic"

// Structural hashing (DESIGN.md §10). Every statement, expression, and
// transaction node carries a memoized 64-bit structural hash: the first
// HashX call walks the subtree, every later call is an atomic load. The
// memo is sound because nodes are immutable once shared (see the package
// comment): the copy-on-write refactoring engine builds new nodes instead
// of mutating, so a node pointer is a stable identity for its content and
// unchanged subtrees hash in O(1) across the repair pipeline's detection
// passes.
//
// Layout of a hash word: bit 63 (hashUUID) marks subtrees containing a
// uuid() expression — such trees are never structurally equal (uuid() is
// fresh per evaluation), so EqualExpr's pointer fast path skips them. The
// remaining bits are a multiply-xorshift digest (hashUint). A computed
// hash is never 0; 0 is the "not yet computed" sentinel. Hashes live only
// in memory — memo words and the detection session's keys — so the fold
// may change freely between versions.

// memoHash is the per-node memo slot. It is accessed atomically so that a
// first hash computed concurrently by two goroutines races benignly (both
// write the same value) and passes the race detector.
type memoHash struct{ v atomic.Uint64 }

func (m *memoHash) load() uint64   { return m.v.Load() }
func (m *memoHash) store(h uint64) { m.v.Store(h) }

const (
	hashSeed   uint64 = 14695981039346656037 // any fixed nonzero start
	hashMul    uint64 = 0x9e3779b97f4a7c15   // 2^64 / golden ratio (odd)
	hashUUID   uint64 = 1 << 63              // subtree contains uuid()
	hashDigest        = ^hashUUID            // digest bits of a hash word
)

// Per-node-kind tags keep distinct shapes with equal leaves distinct.
const (
	tagNil uint64 = iota + 0x9e37
	tagIntLit
	tagBoolLit
	tagStringLit
	tagArg
	tagBinary
	tagIterVar
	tagThisField
	tagFieldAt
	tagAgg
	tagUUID
	tagSelect
	tagUpdate
	tagInsert
	tagIf
	tagIterate
	tagSkip
	tagTxn
	tagSchema
	tagField
	tagParam
	tagAssign
	tagRet
	tagProgram
)

// hashUint folds the word v into h with one multiply-xorshift: the
// multiply carries every bit of h ^ v into all higher bits, the shift folds
// the well-mixed high half back into the low one.
func hashUint(h, v uint64) uint64 {
	h = (h ^ v) * hashMul
	return h ^ h>>32
}

// hashString folds s a little-endian word at a time, then its length, so
// consecutive strings keep distinct boundaries ("ab","c" vs "a","bc") and
// a short tail is not confused with one padded by zero bytes.
func hashString(h uint64, s string) uint64 {
	n := uint64(len(s))
	for ; len(s) >= 8; s = s[8:] {
		h = hashUint(h, uint64(s[0])|uint64(s[1])<<8|uint64(s[2])<<16|uint64(s[3])<<24|
			uint64(s[4])<<32|uint64(s[5])<<40|uint64(s[6])<<48|uint64(s[7])<<56)
	}
	if len(s) > 0 {
		var w uint64
		for i := len(s) - 1; i >= 0; i-- {
			w = w<<8 | uint64(s[i])
		}
		h = hashUint(h, w)
	}
	return hashUint(h, n)
}

// Hasher folds a caller's own sequence of words and strings with the same
// multiply-xorshift, for digests the tree does not memoize (the detector's
// fingerprints and memo keys). The zero value is not a valid start: begin
// with NewHasher.
type Hasher uint64

// NewHasher returns a Hasher at the fixed seed.
func NewHasher() Hasher { return Hasher(hashSeed) }

// Uint folds the word v.
func (h Hasher) Uint(v uint64) Hasher { return Hasher(hashUint(uint64(h), v)) }

// Str folds s, keeping string boundaries distinct.
func (h Hasher) Str(s string) Hasher { return Hasher(hashString(uint64(h), s)) }

// Sum returns the digest, never 0, so callers may use 0 as "not computed".
func (h Hasher) Sum() uint64 { return finish(uint64(h), 0) }

// hashSub folds a child hash word's digest bits into h and accumulates its
// uuid bit into *uuid. Intermediate folds may set bit 63, so the uuid flag
// is tracked out of band and stamped onto the digest by finish.
func hashSub(h, child uint64, uuid *uint64) uint64 {
	*uuid |= child & hashUUID
	return hashUint(h, child&hashDigest)
}

// finish masks the accumulator to digest bits, stamps the uuid flag, and
// normalizes so a computed hash is never the 0 sentinel.
func finish(h, uuid uint64) uint64 {
	h = h&hashDigest | uuid
	if h&hashDigest == 0 {
		h |= 1
	}
	return h
}

// HashExpr returns the memoized structural hash of e; nil hashes to a
// fixed value. Two expressions with equal hashes are structurally equal
// with overwhelming probability (64-bit digest); unequal hashes are
// definitely structurally different.
func HashExpr(e Expr) uint64 {
	m := exprMemo(e)
	if m == nil {
		return exprHash(e)
	}
	if h := m.load(); h != 0 {
		return h
	}
	h := exprHash(e)
	m.store(h)
	return h
}

// exprMemo returns e's memo slot; nil for the kinds without one, whose hash
// is a constant.
func exprMemo(e Expr) *memoHash {
	switch x := e.(type) {
	case *IntLit:
		return &x.memo
	case *BoolLit:
		return &x.memo
	case *StringLit:
		return &x.memo
	case *Arg:
		return &x.memo
	case *Binary:
		return &x.memo
	case *ThisField:
		return &x.memo
	case *FieldAt:
		return &x.memo
	case *Agg:
		return &x.memo
	}
	return nil
}

// exprHash computes e's hash from its fields and its children's memoized
// hashes, leaving e's own memo alone.
func exprHash(e Expr) uint64 {
	switch x := e.(type) {
	case *IntLit:
		return finish(hashUint(hashUint(hashSeed, tagIntLit), uint64(x.Val)), 0)
	case *BoolLit:
		v := uint64(0)
		if x.Val {
			v = 1
		}
		return finish(hashUint(hashUint(hashSeed, tagBoolLit), v), 0)
	case *StringLit:
		return finish(hashString(hashUint(hashSeed, tagStringLit), x.Val), 0)
	case *Arg:
		return finish(hashString(hashUint(hashSeed, tagArg), x.Name), 0)
	case *Binary:
		var uuid uint64
		h := hashUint(hashUint(hashSeed, tagBinary), uint64(x.Op))
		h = hashSub(h, HashExpr(x.L), &uuid)
		h = hashSub(h, HashExpr(x.R), &uuid)
		return finish(h, uuid)
	case *IterVar:
		return finish(hashUint(hashSeed, tagIterVar), 0)
	case *ThisField:
		return finish(hashString(hashUint(hashSeed, tagThisField), x.Field), 0)
	case *FieldAt:
		var uuid uint64
		h := hashString(hashString(hashUint(hashSeed, tagFieldAt), x.Var), x.Field)
		h = hashSub(h, HashExpr(x.Index), &uuid)
		return finish(h, uuid)
	case *Agg:
		h := hashUint(hashUint(hashSeed, tagAgg), uint64(x.Fn))
		return finish(hashString(hashString(h, x.Var), x.Field), 0)
	case *UUID:
		return finish(hashUint(hashSeed, tagUUID), hashUUID)
	default: // nil
		return finish(hashUint(hashSeed, tagNil), 0)
	}
}

// memoizedExprHash returns e's hash if it has already been computed and
// memoized, else 0. It never computes: EqualExpr's pointer fast path must
// stay allocation- and walk-free.
func memoizedExprHash(e Expr) uint64 {
	if m := exprMemo(e); m != nil {
		return m.load()
	}
	return 0
}

// HashStmt returns the memoized structural hash of s, including command
// labels (anomaly reports address commands by label, so two programs that
// differ only in labels must fingerprint differently).
func HashStmt(s Stmt) uint64 {
	switch x := s.(type) {
	case nil:
		return finish(hashUint(hashSeed, tagNil), 0)
	case *Select:
		if h := x.memo.load(); h != 0 {
			return h
		}
		h := hashString(hashUint(hashSeed, tagSelect), x.Label)
		h = hashString(h, x.Var)
		if x.Star {
			h = hashUint(h, 1)
		} else {
			h = hashUint(h, 0)
		}
		for _, f := range x.Fields {
			h = hashString(h, f)
		}
		h = hashString(h, x.Table)
		var uuid uint64
		h = finish(hashSub(h, HashExpr(x.Where), &uuid), uuid)
		x.memo.store(h)
		return h
	case *Update:
		if h := x.memo.load(); h != 0 {
			return h
		}
		var uuid uint64
		h := hashString(hashUint(hashSeed, tagUpdate), x.Label)
		h = hashString(h, x.Table)
		h = hashAssigns(h, x.Sets, &uuid)
		h = finish(hashSub(h, HashExpr(x.Where), &uuid), uuid)
		x.memo.store(h)
		return h
	case *Insert:
		if h := x.memo.load(); h != 0 {
			return h
		}
		var uuid uint64
		h := hashString(hashUint(hashSeed, tagInsert), x.Label)
		h = hashString(h, x.Table)
		h = finish(hashAssigns(h, x.Values, &uuid), uuid)
		x.memo.store(h)
		return h
	case *If:
		if h := x.memo.load(); h != 0 {
			return h
		}
		var uuid uint64
		h := hashSub(hashUint(hashSeed, tagIf), HashExpr(x.Cond), &uuid)
		h = finish(hashStmts(h, x.Then, &uuid), uuid)
		x.memo.store(h)
		return h
	case *Iterate:
		if h := x.memo.load(); h != 0 {
			return h
		}
		var uuid uint64
		h := hashSub(hashUint(hashSeed, tagIterate), HashExpr(x.Count), &uuid)
		h = finish(hashStmts(h, x.Body, &uuid), uuid)
		x.memo.store(h)
		return h
	case *Skip:
		return finish(hashUint(hashSeed, tagSkip), 0)
	default:
		return finish(hashUint(hashSeed, tagNil), 0)
	}
}

func hashAssigns(h uint64, as []Assign, uuid *uint64) uint64 {
	for _, a := range as {
		h = hashUint(h, tagAssign)
		h = hashString(h, a.Field)
		h = hashSub(h, HashExpr(a.Expr), uuid)
	}
	return h
}

func hashStmts(h uint64, body []Stmt, uuid *uint64) uint64 {
	for _, s := range body {
		h = hashSub(h, HashStmt(s), uuid)
	}
	return h
}

// HashTxn returns the memoized structural hash of a transaction: name,
// parameters, body (labels included), and return expression. The repair
// pipeline's detection passes key transactions' facts with it; because
// refactoring is copy-on-write, an untouched transaction keeps its node —
// and thus its memo — so re-hashing it costs one atomic load.
func HashTxn(t *Txn) uint64 {
	if h := t.memo.load(); h != 0 {
		return h
	}
	h := hashString(hashUint(hashSeed, tagTxn), t.Name)
	for _, p := range t.Params {
		h = hashUint(h, tagParam)
		h = hashString(h, p.Name)
		h = hashUint(h, uint64(p.Type))
	}
	var uuid uint64
	h = hashStmts(h, t.Body, &uuid)
	h = hashUint(h, tagRet)
	h = finish(hashSub(h, HashExpr(t.Ret), &uuid), uuid)
	t.memo.store(h)
	return h
}

// schemaHash digests a schema declaration: HashSchema, which memoizes it
// on the schema's view.
func schemaHash(s *Schema) uint64 {
	h := hashString(hashUint(hashSeed, tagSchema), s.Name)
	for _, f := range s.Fields {
		h = hashUint(h, tagField)
		h = hashString(h, f.Name)
		h = hashUint(h, uint64(f.Type))
		if f.PK {
			h = hashUint(h, 1)
		} else {
			h = hashUint(h, 0)
		}
	}
	return finish(h, 0)
}

// HashProgram digests a whole program (schemas then transactions). Not
// memoized: Program headers are rebuilt freely by the COW engine.
func HashProgram(p *Program) uint64 {
	h := hashUint(hashSeed, tagProgram)
	for _, s := range p.Schemas {
		h = hashUint(h, HashSchema(s))
	}
	var uuid uint64
	for _, t := range p.Txns {
		h = hashSub(h, HashTxn(t), &uuid)
	}
	return finish(h, uuid)
}
