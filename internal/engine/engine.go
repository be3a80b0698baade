// Package engine hosts the long-lived Atropos engine behind the public API
// and the atroposd service: one object owning the bounded worker pool,
// the memory every request draws from: programs, answers and per-client
// detection sessions. The CLI, the daemon, and the tests
// all share this entry point, so "run one repair" and "serve a million
// repairs" differ only in who calls it.
//
// Concurrency model (DESIGN.md §12):
//
//   - Admission: every request acquires one of Workers slots; up to
//     QueueDepth further requests wait for a slot, and anything beyond that
//     is rejected immediately with ErrOverloaded (the service layer maps it
//     to HTTP 429 + Retry-After). A waiting request that is cancelled
//     leaves the queue without consuming a slot.
//   - Retained memory: checked programs (under their source text), the
//     bytes a repeated repair or certify is answered with (under verb,
//     program hash, model and certify, for every client: Reply) and
//     per-(client, model) detection sessions live in three LRUs of one
//     type (lru.go), bounded by shares of one 64 MiB budget. A session is
//     checked out (removed) while a request uses it, so a concurrent
//     request for its key detects on a fresh one; the later checkin of the
//     two is dropped. Repair and Certify compute every time; RepairReply
//     and CertifyReply go through the answer memo.
//   - Cancellation: the request context threads through repair → anomaly,
//     which checks it before every cycle query; a disconnected client frees
//     its worker slot mid-detection instead of leaking it.
package engine

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"atropos/internal/anomaly"
	"atropos/internal/ast"
	"atropos/internal/cluster"
	"atropos/internal/repair"
	"atropos/internal/replay"
	"atropos/internal/sema"
)

// ErrOverloaded reports an admission rejection: every worker slot is busy
// and the wait queue is full (or the request was shed after waiting past
// the queue-wait ceiling). Callers should back off and retry after
// RetryAfter.
var ErrOverloaded = errors.New("engine: overloaded (worker queue full)")

// ErrCircuitOpen reports a per-client circuit-breaker fast-fail: the
// client's recent repairs were repeatedly answered degraded (a stage
// deadline expired), so the engine rejects further ones without consuming
// a slot until the cooldown passes. Callers should reduce their deadline
// pressure (smaller programs, longer timeouts) before retrying.
var ErrCircuitOpen = errors.New("engine: circuit open (repeated degraded answers)")

// Config sizes an Engine.
type Config struct {
	// Workers bounds concurrently executing requests; <= 0 selects
	// GOMAXPROCS.
	Workers int
	// QueueDepth bounds requests waiting for a worker slot beyond the ones
	// executing; <= 0 selects 4×Workers.
	QueueDepth int
	// MaxQueueWait is the CoDel-style queue-wait ceiling: a request still
	// waiting for a worker slot after this long is shed with ErrOverloaded
	// instead of going stale in the queue (its client's deadline budget is
	// mostly spent by then anyway). 0 selects 30s; negative disables the
	// ceiling.
	MaxQueueWait time.Duration
	// BreakerTrip is how many consecutive degraded (deadline-expired)
	// results open a client's circuit breaker; 0 selects 3, negative
	// disables the breaker.
	BreakerTrip int
	// BreakerCooldown is how long an open breaker fast-fails the client
	// before admitting a half-open probe; <= 0 selects 10s.
	BreakerCooldown time.Duration
	// Hooks instruments request execution for the deterministic
	// service-chaos harness; nil costs nothing.
	Hooks *Hooks
}

// Hooks are test/chaos instrumentation points. All hooks run on request
// goroutines; they must be safe for concurrent use.
type Hooks struct {
	// Exec runs inside the request's worker slot, after admission and the
	// panic guard are in place and before the verb body. It may stall (to
	// hold slots and build queue depth) or panic (to exercise the guard) —
	// exactly the faults exp.RunServiceChaos injects.
	Exec func(verb, client string)
	// Stages, when it answers true, replaces the stage split of the
	// client's repairs (after any split derived from the deadline), so a
	// harness can make a repair degrade without racing the clock.
	Stages func(client string) (repair.StageDeadlines, bool)
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 4 * c.Workers
	}
	if c.MaxQueueWait == 0 {
		c.MaxQueueWait = 30 * time.Second
	}
	if c.BreakerTrip == 0 {
		c.BreakerTrip = 3
	}
	if c.BreakerCooldown <= 0 {
		c.BreakerCooldown = 10 * time.Second
	}
	return c
}

// sessionKey identifies a cached session.
type sessionKey struct {
	client string
	model  anomaly.Model
}

// Engine is the long-lived request executor. Construct with New; an Engine
// is safe for concurrent use.
type Engine struct {
	cfg Config

	sem    chan struct{} // worker slots
	queued atomic.Int64  // requests waiting for a slot

	completed atomic.Int64
	canceled  atomic.Int64
	rejected  atomic.Int64

	// Overload-control state (see acquire, RetryAfter, breaker*).
	shed             atomic.Int64
	degraded         atomic.Int64
	breakerTrips     atomic.Int64
	breakerFastFails atomic.Int64
	ewmaNs           atomic.Int64 // service-time EWMA, nanoseconds; 0 = no observation yet

	bmu      sync.Mutex
	breakers map[string]*breaker // at most maxBreakers entries

	programs *lru[string, *ast.Program]
	answers  *lru[answerKey, []byte]
	sessions *lru[sessionKey, *anomaly.DetectSession]
}

// breaker is one client's circuit-breaker state: consec counts consecutive
// degraded results; a non-zero openUntil means the circuit is open
// (fast-failing) until that instant, after which the first check switches
// it to half-open — one more degraded result re-opens it immediately, a
// clean one closes it.
type breaker struct {
	consec    int
	openUntil time.Time
}

// isOpen reports whether the circuit fast-fails at now.
func (b *breaker) isOpen(now time.Time) bool {
	return !b.openUntil.IsZero() && now.Before(b.openUntil)
}

// retainedBytes is the budget for what the engine keeps between requests,
// split into one byte-bounded LRU per kind; a memoized program is charged
// per byte of its source, key and nodes (DESIGN.md §12, "Retained memory").
const (
	retainedBytes             = 64 << 20
	programShare              = retainedBytes / 4
	answerShare               = retainedBytes / 2
	sessionShare              = retainedBytes / 4
	programBytesPerSourceByte = 6
)

// maxBreakers bounds the breaker map: its keys are client ids from request
// bodies, and a client whose last result degraded keeps its entry.
const maxBreakers = 1024

// New builds an engine from cfg (zero value: GOMAXPROCS workers, 4×queue).
func New(cfg Config) *Engine {
	cfg = cfg.withDefaults()
	return &Engine{
		cfg:      cfg,
		sem:      make(chan struct{}, cfg.Workers),
		breakers: map[string]*breaker{},
		programs: newLRU[string, *ast.Program](programShare),
		answers:  newLRU[answerKey, []byte](answerShare),
		sessions: newLRU[sessionKey, *anomaly.DetectSession](sessionShare),
	}
}

// Config returns the engine's resolved configuration.
func (e *Engine) Config() Config { return e.cfg }

// acquire admits one request: it takes a worker slot, waiting in the
// bounded queue if none is free. It returns ErrOverloaded when the queue is
// full and ctx.Err() if the caller is cancelled while waiting.
func (e *Engine) acquire(ctx context.Context) error {
	select {
	case e.sem <- struct{}{}:
		return nil
	default:
	}
	// No free slot: join the wait queue if it has room. The CAS loop keeps
	// the queue bound exact under concurrent arrivals.
	for {
		n := e.queued.Load()
		if n >= int64(e.cfg.QueueDepth) {
			e.rejected.Add(1)
			return ErrOverloaded
		}
		if e.queued.CompareAndSwap(n, n+1) {
			break
		}
	}
	defer e.queued.Add(-1)
	// CoDel-style staleness ceiling: a waiter this old has burned most of
	// its client's deadline budget in line, so shedding it (and letting the
	// client retry against a shorter queue) beats serving it late.
	var shed <-chan time.Time
	if e.cfg.MaxQueueWait > 0 {
		t := time.NewTimer(e.cfg.MaxQueueWait)
		defer t.Stop()
		shed = t.C
	}
	select {
	case e.sem <- struct{}{}:
		return nil
	case <-shed:
		e.shed.Add(1)
		e.rejected.Add(1)
		return fmt.Errorf("%w (shed after waiting %s)", ErrOverloaded, e.cfg.MaxQueueWait)
	case <-ctx.Done():
		e.canceled.Add(1)
		return ctx.Err()
	}
}

func (e *Engine) release() { <-e.sem }

// finish folds one executed request into the counters, feeds the
// service-time EWMA, and passes its error through.
func (e *Engine) finish(start time.Time, err error) error {
	e.observeService(time.Since(start))
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		e.canceled.Add(1)
	} else {
		e.completed.Add(1)
	}
	return err
}

// ewmaWeight is the EWMA smoothing numerator out of ewmaDenom: each new
// observation contributes 20%, so the estimate tracks load shifts within a
// handful of requests without jittering on one outlier.
const (
	ewmaWeight = 1
	ewmaDenom  = 5
)

// observeService folds one request's service time into the EWMA. Lock-free:
// concurrent finishers CAS, and a lost race simply re-folds against the
// winner's estimate.
func (e *Engine) observeService(d time.Duration) {
	ns := int64(d)
	if ns < 1 {
		ns = 1
	}
	for {
		old := e.ewmaNs.Load()
		next := ns // first observation seeds the estimate directly
		if old != 0 {
			next = old + (ns-old)*ewmaWeight/ewmaDenom
			if next < 1 {
				next = 1
			}
		}
		if e.ewmaNs.CompareAndSwap(old, next) {
			return
		}
	}
}

// RetryAfter estimates how long a rejected client should back off: the
// current queue (plus itself) worked off at the observed service rate across
// the worker pool, clamped to [1s, 60s]. With no observations yet it
// defaults to 1s.
func (e *Engine) RetryAfter() time.Duration {
	ewma := e.ewmaNs.Load()
	if ewma == 0 {
		return time.Second
	}
	wait := time.Duration((e.queued.Load() + 1) * ewma / int64(e.cfg.Workers))
	if wait < time.Second {
		return time.Second
	}
	if wait > time.Minute {
		return time.Minute
	}
	return wait
}

// guard converts a panic inside one request's body into an error return,
// so a single poisoned request cannot take down the daemon or leak its
// worker slot (release is deferred after guard, so it still runs). The
// panicking request's session is deliberately NOT checked back in — its
// caches may be mid-mutation — which is why the verbs check sessions in
// inline after the body returns rather than via defer.
func (e *Engine) guard(start time.Time, err *error) {
	if v := recover(); v != nil {
		*err = e.finish(start, &PanicError{Value: v, Stack: debug.Stack()})
	}
}

// PanicError is a request body's recovered panic. Its message names the
// panic value only; the goroutine stack is for the operator's log (the
// service writes it there, keyed by request id), never for a client.
type PanicError struct {
	Value any
	Stack []byte
}

func (p *PanicError) Error() string { return fmt.Sprintf("engine: internal panic: %v", p.Value) }

// execHook runs the chaos instrumentation point, if any.
func (e *Engine) execHook(verb, client string) {
	if e.cfg.Hooks != nil && e.cfg.Hooks.Exec != nil {
		e.cfg.Hooks.Exec(verb, client)
	}
}

// breakerCheck gates admission on the client's circuit breaker: an open
// circuit fast-fails without consuming a slot; one past its cooldown flips
// to half-open — the next request runs as a probe, but a single further
// degraded result re-opens the circuit (consec resumes at trip-1).
func (e *Engine) breakerCheck(client string) error {
	if client == "" || e.cfg.BreakerTrip < 0 {
		return nil
	}
	now := time.Now()
	e.bmu.Lock()
	defer e.bmu.Unlock()
	b := e.breakers[client]
	if b == nil || b.openUntil.IsZero() {
		return nil
	}
	if now.Before(b.openUntil) {
		e.breakerFastFails.Add(1)
		e.rejected.Add(1)
		return fmt.Errorf("%w (client %q, retry after %s)", ErrCircuitOpen, client, time.Until(b.openUntil).Round(time.Millisecond))
	}
	// Cooldown passed: half-open.
	b.openUntil = time.Time{}
	b.consec = e.cfg.BreakerTrip - 1
	return nil
}

// breakerResult folds one completed request's degradation verdict into the
// client's breaker: a clean result closes (and forgets) it; consecutive
// degraded results up to the trip threshold open it for the cooldown. A
// new entry in a full map first drops every entry that is not open; if
// all are open, the client stays untracked until one of them closes.
func (e *Engine) breakerResult(client string, degraded bool) {
	if client == "" || e.cfg.BreakerTrip < 0 {
		return
	}
	e.bmu.Lock()
	defer e.bmu.Unlock()
	if !degraded {
		delete(e.breakers, client)
		return
	}
	b := e.breakers[client]
	if b == nil {
		if len(e.breakers) >= maxBreakers {
			now := time.Now()
			for c, old := range e.breakers {
				if !old.isOpen(now) {
					delete(e.breakers, c)
				}
			}
			if len(e.breakers) >= maxBreakers {
				return
			}
		}
		b = &breaker{}
		e.breakers[client] = b
	}
	if !b.openUntil.IsZero() {
		return // already open; a straggler's verdict changes nothing
	}
	b.consec++
	if b.consec >= e.cfg.BreakerTrip {
		b.openUntil = time.Now().Add(e.cfg.BreakerCooldown)
		e.breakerTrips.Add(1)
	}
}

// checkout takes the session cached under k, or a fresh one; a request
// with no client always gets a fresh one. The caller owns the session
// exclusively until checkin.
func (e *Engine) checkout(k sessionKey) *anomaly.DetectSession {
	if k.client != "" {
		if s, ok := e.sessions.take(k); ok {
			return s
		}
	}
	return anomaly.NewSession(k.model)
}

// checkin returns a client's session to the cache under k, charged its
// Size. If a concurrent request for the same key returned first, the
// cached copy stays and this one is dropped, as is a session past the
// whole session share.
func (e *Engine) checkin(k sessionKey, s *anomaly.DetectSession) {
	if k.client != "" {
		e.sessions.put(k, s, len(k.client)+s.Size())
	}
}

// Parse parses and semantically checks DSL source. It is pure CPU-light
// work and bypasses admission. A source that checked before is answered
// from the program memo with the program built then, read-only to callers;
// that memo is the daemon's only cache of programs by text, so a miss
// parses through sema.LoadNew, which keeps no source in the parser's memo.
func (e *Engine) Parse(src string) (*ast.Program, error) {
	if prog, ok := e.programs.get(src); ok {
		return prog, nil
	}
	prog, err := sema.LoadNew(src)
	if err == nil {
		e.programs.put(src, prog, programBytesPerSourceByte*len(src))
	}
	return prog, err
}

// Analyze runs the static anomaly oracle under model. With a Client option
// the detection runs through that client's cached session, so re-analyzing
// related programs only re-solves what changed; without one, on a private
// session that never enters the LRU.
func (e *Engine) Analyze(ctx context.Context, prog *ast.Program, model anomaly.Model, opts ...repair.Option) (rep *anomaly.Report, err error) {
	o := repair.BuildOptions(opts...)
	if err := e.breakerCheck(o.Client); err != nil {
		return nil, err
	}
	if err := e.acquire(ctx); err != nil {
		return nil, err
	}
	defer e.release()
	start := time.Now()
	defer e.guard(start, &err)
	e.execHook("analyze", o.Client)
	k := sessionKey{client: o.Client, model: model}
	s := e.checkout(k)
	rep, derr := s.DetectContext(ctx, prog)
	e.checkin(k, s)
	// A detection either completes or fails with its context; a complete
	// one is a clean result for the client's breaker.
	if derr == nil {
		e.breakerResult(o.Client, false)
	}
	return rep, e.finish(start, derr)
}

// noteResult folds a repair's degradation verdict into the counters and the
// client's breaker.
func (e *Engine) noteResult(client string, res *repair.Result, err error) {
	degraded := err == nil && res != nil && res.Degraded
	if degraded {
		e.degraded.Add(1)
	}
	if err == nil {
		e.breakerResult(client, degraded)
	}
}

// Repair runs the full repair pipeline under model. With a Client option
// the pipeline's detection passes run through that client's cached session.
// It computes every time, and the result belongs to the caller.
func (e *Engine) Repair(ctx context.Context, prog *ast.Program, model anomaly.Model, opts ...repair.Option) (*repair.Result, error) {
	res, _, err := e.repair(ctx, prog, model, false, opts)
	return res, err
}

// RepairReply is Repair through the answer memo, for a caller that sends a
// repeated request — same program, model and Certify, any client — the
// bytes it sent the first time. On a hit it returns only the Reply; on a
// clean miss it also returns the Reply whose Store stores those bytes. A
// request that injects a Session neither reads nor fills the memo, and
// gets no Reply.
func (e *Engine) RepairReply(ctx context.Context, prog *ast.Program, model anomaly.Model, opts ...repair.Option) (*repair.Result, *Reply, error) {
	return e.repair(ctx, prog, model, true, opts)
}

func (e *Engine) repair(ctx context.Context, prog *ast.Program, model anomaly.Model, memo bool, opts []repair.Option) (res *repair.Result, reply *Reply, err error) {
	o := repair.BuildOptions(opts...)
	if err := e.breakerCheck(o.Client); err != nil {
		return nil, nil, err
	}
	if err := e.acquire(ctx); err != nil {
		return nil, nil, err
	}
	defer e.release()
	start := time.Now()
	defer e.guard(start, &err)
	e.execHook("repair", o.Client)
	// An injected session belongs to its caller: such a request neither
	// reads nor fills the memo.
	own := o.Session == nil
	if memo && own {
		reply = e.lookup(answerKey{verb: "repair", prog: ast.HashProgram(prog), model: model, certify: o.Certify}, start)
		if reply.Bytes != nil {
			if err := ctx.Err(); err != nil {
				return nil, nil, e.finish(start, err)
			}
			e.breakerResult(o.Client, false)
			return nil, reply, e.finish(start, nil)
		}
	}
	// A request deadline with no explicit stage split gets the default one,
	// so a single slow stage degrades softly instead of eating the whole
	// allowance and erroring at the end.
	if o.Stages == (repair.StageDeadlines{}) {
		if dl, ok := ctx.Deadline(); ok {
			o.Stages = repair.Split(time.Until(dl))
		}
	}
	if h := e.cfg.Hooks; h != nil && h.Stages != nil {
		if st, ok := h.Stages(o.Client); ok {
			o.Stages = st
		}
	}
	k := sessionKey{client: o.Client, model: model}
	if own {
		o.Session = e.checkout(k)
	}
	res, rerr := repair.RunWith(ctx, prog, model, o)
	if own {
		// Checked in only on a normal return: a panicking pipeline would
		// leave the session's caches mid-mutation.
		e.checkin(k, o.Session)
	}
	if rerr != nil || res.Degraded {
		reply = nil // only complete answers are stored
	}
	e.noteResult(o.Client, res, rerr)
	return res, reply, e.finish(start, rerr)
}

// Certify detects on a private session and replays every reported pair as
// an executable certificate (internal/replay). It computes every time, and
// the certificate and report belong to the caller.
func (e *Engine) Certify(ctx context.Context, prog *ast.Program, model anomaly.Model) (*replay.Certificate, *anomaly.Report, error) {
	cert, rep, _, err := e.certify(ctx, prog, model, false)
	return cert, rep, err
}

// CertifyReply is Certify through the answer memo, as RepairReply is
// Repair: a hit returns only the Reply, and a miss that completes returns
// the certificate, the report and the Reply that stores what a hit sends.
func (e *Engine) CertifyReply(ctx context.Context, prog *ast.Program, model anomaly.Model) (*replay.Certificate, *anomaly.Report, *Reply, error) {
	return e.certify(ctx, prog, model, true)
}

func (e *Engine) certify(ctx context.Context, prog *ast.Program, model anomaly.Model, memo bool) (cert *replay.Certificate, rep *anomaly.Report, reply *Reply, err error) {
	if err := e.acquire(ctx); err != nil {
		return nil, nil, nil, err
	}
	defer e.release()
	start := time.Now()
	defer e.guard(start, &err)
	e.execHook("certify", "")
	if memo {
		reply = e.lookup(answerKey{verb: "certify", prog: ast.HashProgram(prog), model: model}, start)
		if reply.Bytes != nil {
			if err := ctx.Err(); err != nil {
				return nil, nil, nil, e.finish(start, err)
			}
			return nil, nil, reply, e.finish(start, nil)
		}
	}
	cert, rep, cerr := replay.CertifyModelContext(ctx, prog, model)
	if cerr != nil {
		reply = nil
	}
	return cert, rep, reply, e.finish(start, cerr)
}

// Simulate runs one cluster deployment configuration. The simulator is
// ops/virtual-time bounded and does not poll the context mid-run; the
// context gates admission and is checked once more before the run starts.
func (e *Engine) Simulate(ctx context.Context, cfg cluster.Config) (res cluster.Result, err error) {
	if err := e.acquire(ctx); err != nil {
		return cluster.Result{}, err
	}
	defer e.release()
	start := time.Now()
	defer e.guard(start, &err)
	e.execHook("simulate", "")
	if err := ctx.Err(); err != nil {
		return cluster.Result{}, e.finish(start, err)
	}
	res, serr := cluster.Run(cfg)
	return res, e.finish(start, serr)
}

// Stats is a point-in-time snapshot of the engine's counters.
type Stats struct {
	Workers    int `json:"workers"`
	QueueDepth int `json:"queue_depth"`
	// InFlight / Queued are instantaneous occupancy gauges.
	InFlight int `json:"in_flight"`
	Queued   int `json:"queued"`
	// Completed counts requests that ran to an answer (including
	// application errors); Canceled counts context aborts — at admission or
	// mid-solve; Rejected counts every fast-failed admission (queue-full,
	// shed, and breaker rejections included).
	Completed int64 `json:"completed"`
	Canceled  int64 `json:"canceled"`
	Rejected  int64 `json:"rejected"`
	// Overload-control counters: Shed counts waiters evicted past the
	// queue-wait ceiling; Degraded counts repairs answered partially after
	// a stage deadline expired; the Breaker* trio tracks the per-client
	// circuit breakers (BreakerOpen is an instantaneous gauge).
	Shed             int64 `json:"shed"`
	Degraded         int64 `json:"degraded"`
	BreakerTrips     int64 `json:"breaker_trips"`
	BreakerFastFails int64 `json:"breaker_fast_fails"`
	BreakerOpen      int   `json:"breaker_open"`
	// ServiceTimeEwmaMs is the smoothed per-request service time feeding
	// Retry-After. Informational: timing-dependent, so never drift-compared.
	ServiceTimeEwmaMs float64 `json:"service_time_ewma_ms"`
	// Each cache's lookups answered from memory and not, entries its byte
	// bound pushed out or turned away, entries held and bytes charged;
	// AnswerReplyBytes and CachedSourceBytes are the replies' and source
	// texts' own bytes. A repair on an injected session never looks up an
	// answer; a source that fails to check is a program miss.
	SessionHits       int64 `json:"session_hits"`
	SessionMisses     int64 `json:"session_misses"`
	SessionEvictions  int64 `json:"session_evictions"`
	CachedSessions    int   `json:"cached_sessions"`
	SessionBytes      int   `json:"session_bytes"`
	AnswerHits        int64 `json:"answer_hits"`
	AnswerMisses      int64 `json:"answer_misses"`
	AnswerEvictions   int64 `json:"answer_evictions"`
	CachedAnswers     int   `json:"cached_answers"`
	AnswerBytes       int   `json:"answer_bytes"`
	AnswerReplyBytes  int   `json:"answer_reply_bytes"`
	ProgramHits       int64 `json:"program_hits"`
	ProgramMisses     int64 `json:"program_misses"`
	CachedPrograms    int   `json:"cached_programs"`
	ProgramBytes      int   `json:"program_bytes"`
	CachedSourceBytes int   `json:"cached_source_bytes"`
}

// SessionHitRate is the fraction of session checkouts served from the LRU.
func (s Stats) SessionHitRate() float64 {
	total := s.SessionHits + s.SessionMisses
	if total == 0 {
		return 0
	}
	return float64(s.SessionHits) / float64(total)
}

// Stats snapshots the engine's counters.
func (e *Engine) Stats() Stats {
	open := 0
	now := time.Now()
	e.bmu.Lock()
	for _, b := range e.breakers {
		if b.isOpen(now) {
			open++
		}
	}
	e.bmu.Unlock()
	st := Stats{
		Workers:           e.cfg.Workers,
		QueueDepth:        e.cfg.QueueDepth,
		InFlight:          len(e.sem),
		Queued:            int(e.queued.Load()),
		Completed:         e.completed.Load(),
		Canceled:          e.canceled.Load(),
		Rejected:          e.rejected.Load(),
		Shed:              e.shed.Load(),
		Degraded:          e.degraded.Load(),
		BreakerTrips:      e.breakerTrips.Load(),
		BreakerFastFails:  e.breakerFastFails.Load(),
		BreakerOpen:       open,
		ServiceTimeEwmaMs: float64(e.ewmaNs.Load()) / 1e6,
	}
	st.SessionHits, st.SessionMisses, st.SessionEvictions, st.CachedSessions, st.SessionBytes = e.sessions.stats()
	st.AnswerHits, st.AnswerMisses, st.AnswerEvictions, st.CachedAnswers, st.AnswerBytes = e.answers.stats()
	st.ProgramHits, st.ProgramMisses, _, st.CachedPrograms, st.ProgramBytes = e.programs.stats()
	// An answer is charged its reply's length and a program six times its
	// source's, each plus a fixed overhead, so the charges give both totals.
	st.AnswerReplyBytes = st.AnswerBytes - st.CachedAnswers*(answerKeyBytes+lruEntryBytes)
	st.CachedSourceBytes = (st.ProgramBytes - st.CachedPrograms*lruEntryBytes) / programBytesPerSourceByte
	return st
}
