package parser

import "atropos/internal/ast"

// ResetMemo empties the memo, sources and declarations: the next parse of
// any source is a cold one.
func ResetMemo() {
	declMemo.Lock()
	defer declMemo.Unlock()
	declMemo.m = make(map[uint64][]*declEntry)
	declMemo.srcs = make(map[string]ast.Program)
	declMemo.bytes, declMemo.srcBytes = 0, 0
}

// ForgetSources drops the memo's whole-source entries and keeps its
// declarations: the next parse of any source lexes it.
func ForgetSources() {
	declMemo.Lock()
	defer declMemo.Unlock()
	clear(declMemo.srcs)
	declMemo.srcBytes = 0
}

// MemoBytes returns the declaration key bytes and the source bytes the
// memo holds.
func MemoBytes() (keys, srcs int) {
	declMemo.RLock()
	defer declMemo.RUnlock()
	return declMemo.bytes, declMemo.srcBytes
}

// DeclMemoMax and SrcMemoMax are the memo's bounds on the key and on the
// source bytes it holds; MaxKey the key length past which a declaration is
// not memoized.
const (
	DeclMemoMax = declMemoMax
	SrcMemoMax  = srcMemoMax
	MaxKey      = maxKey
)
