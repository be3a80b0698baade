package logic

// This file implements canonical formula hashing for the incremental
// anomaly-detection engine (internal/anomaly.DetectSession): two encoders
// with the same FormulaHash hold identical assertion multisets, so a SAT
// query answered on one can be reused on the other. Hashes are structural
// (FNV-1a over the formula tree) and the encoder-level digest is
// order-independent, so hash identity reflects the asserted multiset itself.
// Note the digest's order-independence is NOT license for callers to
// assert in arbitrary order: equal-hash encoders only return identical
// models because they also assert in the same (deterministic) order — the
// anomaly detector sorts every map iteration that feeds Assert, and the
// query cache's exchangeability contract depends on that.

const (
	fnvOffset uint64 = 14695981039346656037
	fnvPrime  uint64 = 1099511628211
)

func fnvByte(h uint64, b byte) uint64 { return (h ^ uint64(b)) * fnvPrime }

func fnvString(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h = fnvByte(h, s[i])
	}
	// Terminate so "ab"+"c" and "a"+"bc" differ.
	return fnvByte(h, 0xff)
}

func fnvUint64(h, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h = fnvByte(h, byte(v>>(8*i)))
	}
	return h
}

// Hash returns a structural 64-bit hash of a formula. Formulas with equal
// hashes are equal up to hash collision; connective arity and operand order
// are part of the identity. Formulas containing interned Atoms need HashIn.
func Hash(f Formula) uint64 { return hashInto(nil, fnvOffset, f) }

// HashIn is Hash with Atoms resolved against in. A proposition hashes as
// its 64-bit identity (Interner): a Prop's is derived from its name, so an
// Atom interned from that name hashes exactly like it, and the digest is
// canonical across the two representations and across interners that
// numbered the same propositions differently.
func HashIn(in *Interner, f Formula) uint64 { return hashInto(in, fnvOffset, f) }

// ChainString folds s (terminated, so consecutive strings keep distinct
// boundaries) into a running FNV-1a hash — the shared primitive for
// callers chaining identifier sequences (e.g. the anomaly session's
// query-history hashes and transaction fingerprints). Start a chain from
// ChainSeed.
func ChainString(h uint64, s string) uint64 { return fnvString(h, s) }

// ChainSeed is the initial value for a ChainString sequence.
const ChainSeed uint64 = fnvOffset

// ChainUint64 folds a 64-bit value into a ChainString-style chain (the
// anomaly session chains transaction/schema structural hashes with it).
func ChainUint64(h, v uint64) uint64 { return fnvUint64(h, v) }

func hashInto(in *Interner, h uint64, f Formula) uint64 {
	switch x := f.(type) {
	case *Prop:
		return fnvUint64(fnvByte(h, 1), nameID(x.Name))
	case *Atom:
		// Same tag and payload as Prop: the hash identifies the
		// proposition, not its representation or Sym numbering.
		if in == nil {
			panic("logic: HashIn needed to hash an interned Atom")
		}
		return fnvUint64(fnvByte(h, 1), in.ID(x.S))
	case *Const:
		if x.Val {
			return fnvByte(h, 2)
		}
		return fnvByte(h, 3)
	case *Not:
		return hashInto(in, fnvByte(h, 4), x.F)
	case *And:
		h = fnvByte(h, 5)
		for _, g := range x.Fs {
			h = hashInto(in, h, g)
		}
		return fnvByte(h, 0xfe)
	case *Or:
		h = fnvByte(h, 6)
		for _, g := range x.Fs {
			h = hashInto(in, h, g)
		}
		return fnvByte(h, 0xfe)
	case *Implies:
		return hashInto(in, hashInto(in, fnvByte(h, 7), x.A), x.B)
	case *Iff:
		return hashInto(in, hashInto(in, fnvByte(h, 8), x.A), x.B)
	default:
		return fnvByte(h, 9)
	}
}

// recordHash folds one assertion's hash into the encoder's digest. The
// fold is a sum of the avalanched per-assertion hashes (splitmix64's
// finalizer: FNV-1a alone leaves the high bits of short inputs correlated),
// so it is commutative — the digest identifies the asserted multiset
// regardless of assertion order — and a duplicate assertion changes it.
func (e *Encoder) recordHash(h uint64) {
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	e.hashSum += h
	e.asserted++
}

// FormulaHash digests every formula asserted since RecordFormulaHashes
// into a canonical 64-bit value that identifies the asserted multiset
// regardless of assertion order. Call RecordFormulaHashes before the first
// Assert; otherwise the digest is meaningless (assertions are not
// retained).
func (e *Encoder) FormulaHash() uint64 {
	return fnvUint64(fnvUint64(fnvOffset, e.asserted), e.hashSum)
}
