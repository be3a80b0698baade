package engine

import (
	"time"

	"atropos/internal/anomaly"
)

// answerKey is what determines a finished answer: the verb, the program's
// structural hash (ast.HashProgram), the model and, for repair, whether it
// certifies. It never names the client, and it leaves out the deadline
// (only complete answers are stored).
type answerKey struct {
	verb    string
	prog    uint64
	model   anomaly.Model
	certify bool
}

// answerKeyBytes is what an answerKey adds to its entry's charge: the
// verb's string header, the hash, the model and the flag, padded.
const answerKeyBytes = 40

// Reply is a repair's or certify's handle on the answer memo, which maps a
// key to the bytes a hit sends (the service stores a response body up to
// its elapsed time). On a hit, Bytes holds those bytes and Elapsed the
// hit's own wall time, and nothing else is returned. On a memoizable miss
// Bytes is nil, and Store stores the reply a hit on this answer sends.
type Reply struct {
	Bytes   []byte
	Elapsed time.Duration
	answers *lru[answerKey, []byte]
	key     answerKey
}

// Store puts b in the memo under the miss's key, charged len(b), the key
// and lruEntryBytes. The first writer of a key wins; b must not change
// afterwards.
func (r *Reply) Store(b []byte) { r.answers.put(r.key, b, len(b)+answerKeyBytes) }

// lookup returns the Reply on k: a hit if the memo holds k, else the
// handle that stores k's reply.
func (e *Engine) lookup(k answerKey, start time.Time) *Reply {
	b, _ := e.answers.get(k)
	return &Reply{Bytes: b, Elapsed: time.Since(start), answers: e.answers, key: k}
}
