package logic

// Canonical assertion digests: two encoders with the same FormulaHash hold
// identical assertion multisets. Each assertion hashes structurally
// (FNV-1a over its connective tags and proposition identities), and the
// encoder-level digest is order-independent, so hash identity reflects the
// asserted multiset itself.

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

// FormulaHash digests every assertion made on the encoder into a canonical
// 64-bit value that identifies the asserted multiset regardless of
// assertion order.
func (e *Encoder) FormulaHash() uint64 {
	return fnvUint64(fnvUint64(fnvOffset, e.asserted), e.hashSum)
}
