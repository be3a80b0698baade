package cluster

import "atropos/internal/store"

// UUIDGen issues globally fresh negative integers for uuid() expressions.
// Peek previews the value the next Take will produce, so a statement's
// lock footprint can be computed without consuming the identifier.
type UUIDGen struct{ next int64 }

// Peek returns the value the next Take will return.
func (g *UUIDGen) Peek() store.Value { return store.IntV(-(g.next + 1)) }

// Take consumes and returns the next fresh value.
func (g *UUIDGen) Take() store.Value {
	g.next++
	return store.IntV(-g.next)
}
