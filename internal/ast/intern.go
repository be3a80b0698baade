package ast

import "sync"

// Hash-consing of expressions (DESIGN.md §10): Intern canonicalizes an
// expression tree against a global, size-bounded cons table so that
// structurally equal expressions share one node. Interned expressions make
// EqualExpr O(1) on the repair hot path (pointer identity plus a memoized
// uuid-freeness check) and let speculative refactoring candidates share
// their rebuilt where clauses instead of re-allocating them per probe.
//
// The table is keyed by structural hash with EqualExpr verifying bucket
// collisions, so a (vanishingly unlikely) 64-bit collision degrades to an
// unshared node, never to a wrong merge. Subtrees containing uuid() are
// never interned: uuid() is fresh per evaluation, so two occurrences are
// never equal and sharing them would let the equality fast path lie.
//
// The table is sharded by hash (DESIGN.md §10) so that goroutines parsing,
// generating or repairing at once do not serialize on a single mutex: each
// shard carries its own lock, bucket map, and share of the global bound.
// Correctness is unchanged — a given hash always maps to the same shard,
// so two structurally equal expressions still meet in one bucket.
//
// The bound caps memory for adversarial workloads (fuzzers generating
// unbounded distinct literals): once a shard is full, Intern still
// canonicalizes against its existing entries but stops inserting new ones.
// The per-shard bound keeps the aggregate cap at consTableMax; skew across
// shards can fill one shard early, which only costs sharing, never safety.

const (
	consTableMax = 1 << 16
	consShards   = 64 // power of two; shard index taken from hash digest bits
	consShardMax = consTableMax / consShards
)

type consShard struct {
	sync.Mutex
	m map[uint64][]Expr
	n int
	// Pad to a cache line so shard locks on adjacent array slots do not
	// false-share under parallel detection.
	_ [24]byte
}

var consTable [consShards]consShard

func init() {
	for i := range consTable {
		consTable[i].m = make(map[uint64][]Expr)
	}
}

// consShardFor picks the shard for a hash word. The digest bits of HashExpr
// are already well mixed; use high digest bits so the shard index and the
// map's own bucketing (low bits) stay independent.
func consShardFor(h uint64) *consShard {
	return &consTable[(h>>32)&(consShards-1)]
}

// Intern returns the canonical node for e, interning its children bottom-up.
// The result prints and compares identically to e; callers must treat it as
// shared and immutable. nil interns to nil.
func Intern(e Expr) Expr {
	if e == nil {
		return nil
	}
	switch x := e.(type) {
	case *Binary:
		l, r := Intern(x.L), Intern(x.R)
		if l != x.L || r != x.R {
			e = &Binary{Op: x.Op, L: l, R: r}
		}
	case *FieldAt:
		if idx := Intern(x.Index); idx != x.Index {
			e = &FieldAt{Var: x.Var, Field: x.Field, Index: idx}
		}
	}
	h := HashExpr(e)
	if h&hashUUID != 0 {
		return e
	}
	s := consShardFor(h)
	s.Lock()
	defer s.Unlock()
	if c := s.find(h, e); c != nil {
		return c
	}
	s.add(h, e)
	return e
}

// Cons returns the canonical node equal to e, whose children must already
// be canonical — a builder that conses bottom-up, as the parser does,
// canonicalizes each node once, with no re-walk of its subtrees. Cons never
// keeps e itself: the node it returns is an equal one already in the
// table, or else a copy of e. A builder can therefore pass a node it made
// on its stack, and a node is only allocated the first time its structure
// is seen.
func Cons(e Expr) Expr {
	h := exprHash(e)
	if h&hashUUID != 0 {
		return shallowCopy(e, h)
	}
	s := consShardFor(h)
	s.Lock()
	c := s.find(h, e)
	if c == nil {
		c = shallowCopy(e, h)
		s.add(h, c)
	}
	s.Unlock()
	return c
}

// find returns the node of the locked shard equal to e, whose hash is h,
// or nil.
func (s *consShard) find(h uint64, e Expr) Expr {
	for _, c := range s.m[h] {
		if EqualExpr(c, e) {
			return c
		}
	}
	return nil
}

// add inserts e, whose hash is h, into the locked shard unless it is full.
func (s *consShard) add(h uint64, e Expr) {
	if s.n < consShardMax {
		s.m[h] = append(s.m[h], e)
		s.n++
	}
}

// shallowCopy returns a new node with e's fields (children shared) and
// the hash h.
func shallowCopy(e Expr, h uint64) Expr {
	var c Expr
	switch x := e.(type) {
	case *IntLit:
		c = &IntLit{Val: x.Val}
	case *BoolLit:
		c = &BoolLit{Val: x.Val}
	case *StringLit:
		c = &StringLit{Val: x.Val}
	case *Arg:
		c = &Arg{Name: x.Name}
	case *Binary:
		c = &Binary{Op: x.Op, L: x.L, R: x.R}
	case *ThisField:
		c = &ThisField{Field: x.Field}
	case *FieldAt:
		c = &FieldAt{Var: x.Var, Field: x.Field, Index: x.Index}
	case *Agg:
		c = &Agg{Fn: x.Fn, Var: x.Var, Field: x.Field}
	case *IterVar:
		return &IterVar{}
	case *UUID:
		return &UUID{}
	default:
		// Never e itself: Cons relies on its argument not escaping.
		panic("ast: shallowCopy of an unknown expression")
	}
	exprMemo(c).store(h)
	return c
}

// InternTxnExprs canonicalizes every expression of a transaction in place.
// It is a builder-side operation: generators call it while the transaction
// is still private to them, before it is shared or hashed.
func InternTxnExprs(t *Txn) {
	var walk func(body []Stmt)
	walk = func(body []Stmt) {
		for _, s := range body {
			switch x := s.(type) {
			case *Select:
				x.Where = Intern(x.Where)
			case *Update:
				x.Where = Intern(x.Where)
				for i := range x.Sets {
					x.Sets[i].Expr = Intern(x.Sets[i].Expr)
				}
			case *Insert:
				for i := range x.Values {
					x.Values[i].Expr = Intern(x.Values[i].Expr)
				}
			case *If:
				x.Cond = Intern(x.Cond)
				walk(x.Then)
			case *Iterate:
				x.Count = Intern(x.Count)
				walk(x.Body)
			}
		}
	}
	walk(t.Body)
	t.Ret = Intern(t.Ret)
}

// InternProgramExprs canonicalizes every expression of a program in place
// (same builder-side caveat as InternTxnExprs).
func InternProgramExprs(p *Program) {
	for _, t := range p.Txns {
		InternTxnExprs(t)
	}
}
