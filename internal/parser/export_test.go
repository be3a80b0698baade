package parser

// ResetMemo empties the declaration memo: the next parse of any source is
// a cold one.
func ResetMemo() {
	declMemo.Lock()
	defer declMemo.Unlock()
	declMemo.m = make(map[uint64][]*declEntry)
	declMemo.bytes = 0
}

// MemoBytes returns the key bytes the declaration memo holds.
func MemoBytes() int {
	declMemo.RLock()
	defer declMemo.RUnlock()
	return declMemo.bytes
}

// DeclMemoMax is the memo's bound on the key bytes it holds.
const DeclMemoMax = declMemoMax
