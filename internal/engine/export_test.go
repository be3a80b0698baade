package engine

import "atropos/internal/anomaly"

// The shares of the retained-bytes budget, for the tests of package
// engine_test, which drive an engine through the service.
const (
	RetainedBytes = retainedBytes
	ProgramShare  = programShare
	AnswerShare   = answerShare
	SessionShare  = sessionShare
)

// DropAnswers empties the answer memo.
func (e *Engine) DropAnswers() { e.answers = newLRU[answerKey, []byte](answerShare) }

// DropSessions empties the session cache.
func (e *Engine) DropSessions() {
	e.sessions = newLRU[sessionKey, *anomaly.DetectSession](sessionShare)
}
