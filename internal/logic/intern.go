package logic

import "fmt"

// Sym is an interned proposition: an index into an Interner's table.
// Encoders resolve syms to solver variables by flat []int lookup. Sym
// values are only meaningful relative to the Interner that produced them.
type Sym int32

// Interner is the proposition table of one encoder: dense Syms, each with
// a 64-bit identity. A proposition enters it one of two ways. Intern takes
// a name — idempotent, the same name always returns the same Sym — and
// derives the identity from the name's bytes. New takes the identity
// itself and allocates the next Sym without a name: the form for relational
// encodings whose propositions are addressed by indices (a family tag plus
// (i, j)) and never printed.
//
// Hashing contract: FormulaHash digests identities, never Sym values, so
// two encoders that allocated the same propositions in different orders —
// and therefore numbered them differently — still produce identical
// canonical hashes (see DESIGN.md §8). Callers of New own the other half
// of the contract: an identity must determine the proposition's role in
// the encoding, as a name would.
type Interner struct {
	ids   []uint64
	index map[string]Sym
}

// NewInterner creates an empty interner.
func NewInterner() *Interner {
	return &Interner{index: map[string]Sym{}}
}

// Intern returns the Sym for name, assigning the next free Sym on first
// sight. A name's identity is the FNV-1a hash of its bytes.
func (in *Interner) Intern(name string) Sym {
	if s, ok := in.index[name]; ok {
		return s
	}
	s := in.New(fnvString(fnvOffset, name))
	in.index[name] = s
	return s
}

// Internf interns a printf-formatted name (keeping vet's printf check
// effective at call sites).
func (in *Interner) Internf(format string, args ...any) Sym {
	return in.Intern(fmt.Sprintf(format, args...))
}

// New allocates the next Sym for a nameless proposition with the given
// identity. Syms are consecutive: n calls in a row return a contiguous
// range, so a relation can be addressed as base + i·n + j.
func (in *Interner) New(id uint64) Sym {
	s := Sym(len(in.ids))
	in.ids = append(in.ids, id)
	return s
}

// ID returns a Sym's identity.
func (in *Interner) ID(s Sym) uint64 { return in.ids[s] }
