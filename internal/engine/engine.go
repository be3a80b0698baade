// Package engine hosts the long-lived Atropos engine behind the public API
// and the atroposd service: one object owning the bounded worker pool,
// per-client detection sessions and the answer memo that every request
// draws from. The CLI, the daemon, and the tests
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
//   - Programs: a checked program is remembered under its source text in
//     an LRU bounded by source bytes (programs.go).
//   - Answers: a complete repair or certify answer is remembered under
//     (verb, program hash, model, certify) in a bounded LRU shared by every
//     client, and a repeated request is answered from it inside its worker
//     slot (answers.go), with the response its hits render (Reply).
//   - Sessions: each (client, model) key checks a DetectSession out of an
//     LRU; a session is owned exclusively while checked out
//     (DetectSession serializes its own Detect calls by contract), so a
//     concurrent request for the same key simply gets a fresh session, and
//     whichever finishes last is recycled instead of cached twice. Evicted
//     and surplus sessions are Reset() — dropping their caches but keeping
//     their allocated map/slice capacity — and parked on a freelist.
//   - Cancellation: the request context threads through repair → anomaly,
//     which checks it before every cycle query; a disconnected client frees
//     its worker slot mid-detection instead of leaking it.
package engine

import (
	"container/list"
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
	// Sessions caps the per-(client, model) DetectSession LRU; <= 0 selects
	// 64.
	Sessions int
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
	if c.Sessions <= 0 {
		c.Sessions = 64
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

type cachedSession struct {
	key sessionKey
	s   *anomaly.DetectSession
}

// maxFree bounds each model's freelist of reset sessions.
const maxFree = 8

// Engine is the long-lived request executor. Construct with New; an Engine
// is safe for concurrent use.
type Engine struct {
	cfg Config

	sem    chan struct{} // worker slots
	queued atomic.Int64  // requests waiting for a slot

	mu    sync.Mutex
	lru   *list.List // of *cachedSession; front = most recently returned
	byKey map[sessionKey]*list.Element
	free  map[anomaly.Model][]*anomaly.DetectSession

	completed atomic.Int64
	canceled  atomic.Int64
	rejected  atomic.Int64
	hits      atomic.Int64
	misses    atomic.Int64
	evictions atomic.Int64

	// Overload-control state (see acquire, RetryAfter, breaker*).
	shed             atomic.Int64
	degraded         atomic.Int64
	breakerTrips     atomic.Int64
	breakerFastFails atomic.Int64
	ewmaNs           atomic.Int64 // service-time EWMA, nanoseconds; 0 = no observation yet

	bmu      sync.Mutex
	breakers map[string]*breaker

	programs *programMemo
	answers  *answerMemo
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

// New builds an engine from cfg (zero value: GOMAXPROCS workers, 4×queue,
// 64 sessions).
func New(cfg Config) *Engine {
	cfg = cfg.withDefaults()
	return &Engine{
		cfg:      cfg,
		sem:      make(chan struct{}, cfg.Workers),
		lru:      list.New(),
		byKey:    map[sessionKey]*list.Element{},
		free:     map[anomaly.Model][]*anomaly.DetectSession{},
		breakers: map[string]*breaker{},
		programs: newProgramMemo(),
		answers:  newAnswerMemo(),
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
// degraded results up to the trip threshold open it for the cooldown.
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

// checkout takes the session cached under k, a recycled session of k's
// model, or a fresh one — in that order. The caller owns the session
// exclusively until checkin.
func (e *Engine) checkout(k sessionKey) *anomaly.DetectSession {
	e.mu.Lock()
	defer e.mu.Unlock()
	if el, ok := e.byKey[k]; ok {
		e.hits.Add(1)
		cs := el.Value.(*cachedSession)
		e.lru.Remove(el)
		delete(e.byKey, k)
		return cs.s
	}
	e.misses.Add(1)
	if free := e.free[k.model]; len(free) > 0 {
		s := free[len(free)-1]
		free[len(free)-1] = nil
		e.free[k.model] = free[:len(free)-1]
		return s
	}
	return anomaly.NewSession(k.model)
}

// checkin returns a session to the cache under k, evicting from the LRU
// tail past capacity. If a concurrent request for the same key returned
// first, the cached copy stays and this one is recycled — last writer
// yields, so the cache never holds two sessions for one key.
func (e *Engine) checkin(k sessionKey, s *anomaly.DetectSession) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if _, ok := e.byKey[k]; ok {
		e.recycle(s)
		return
	}
	e.byKey[k] = e.lru.PushFront(&cachedSession{key: k, s: s})
	for e.lru.Len() > e.cfg.Sessions {
		el := e.lru.Back()
		cs := el.Value.(*cachedSession)
		e.lru.Remove(el)
		delete(e.byKey, cs.key)
		e.evictions.Add(1)
		e.recycle(cs.s)
	}
}

// recycle resets a session (dropping caches, keeping capacity) and parks it
// on its model's bounded freelist. Callers hold e.mu.
func (e *Engine) recycle(s *anomaly.DetectSession) {
	s.Reset()
	if m := s.Model(); len(e.free[m]) < maxFree {
		e.free[m] = append(e.free[m], s)
	}
}

// Parse parses and semantically checks DSL source. It is pure CPU-light
// work and bypasses admission. A source that checked before is answered
// from the program memo with the program built then, read-only to callers.
func (e *Engine) Parse(src string) (*ast.Program, error) {
	if prog, ok := e.programs.get(src); ok {
		return prog, nil
	}
	prog, err := sema.Load(src)
	if err == nil {
		e.programs.put(src, prog)
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
	var s *anomaly.DetectSession
	if o.Client != "" {
		s = e.checkout(k)
	} else {
		s = anomaly.NewSession(model)
	}
	rep, derr := s.DetectContext(ctx, prog)
	if o.Client != "" {
		e.checkin(k, s)
	}
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
// A repeated request — same program, model and Certify, any client — is
// answered from the engine's answer memo unless it injects a Session; the result is then a shallow copy of a stored one whose
// Stats report no detection work. Results are read-only to callers.
func (e *Engine) Repair(ctx context.Context, prog *ast.Program, model anomaly.Model, opts ...repair.Option) (*repair.Result, error) {
	res, _, err := e.RepairReply(ctx, prog, model, opts...)
	return res, err
}

// RepairReply is Repair that also returns, when the answer came from the
// memo, the entry's Reply; it is nil when the answer was computed.
func (e *Engine) RepairReply(ctx context.Context, prog *ast.Program, model anomaly.Model, opts ...repair.Option) (res *repair.Result, reply *Reply, err error) {
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
	memo := o.Session == nil
	var key answerKey
	if memo {
		key = answerKey{verb: "repair", prog: ast.HashProgram(prog), model: model, certify: o.Certify}
		if ans, reply := e.answers.get(key); ans != nil {
			if err := ctx.Err(); err != nil {
				return nil, nil, e.finish(start, err)
			}
			res = repairHit(ans.res, time.Since(start))
			e.noteResult(o.Client, res, nil)
			return res, reply, e.finish(start, nil)
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
	var k sessionKey
	var s *anomaly.DetectSession
	if o.Client != "" && o.Session == nil {
		k = sessionKey{client: o.Client, model: model}
		s = e.checkout(k)
		o.Session = s
	}
	res, rerr := repair.RunWith(ctx, prog, model, o)
	if s != nil {
		// Checked in only on a normal return: a panicking pipeline would
		// leave the session's caches mid-mutation.
		e.checkin(k, s)
	}
	if memo && rerr == nil && !res.Degraded {
		e.answers.put(&answer{key: key, res: res})
	}
	e.noteResult(o.Client, res, rerr)
	return res, nil, e.finish(start, rerr)
}

// Certify detects on a private session and replays every reported pair as
// an executable certificate (internal/replay). A repeated request for the
// same program and model is answered from the engine's answer memo with the
// stored certificate and report, which are read-only to callers.
func (e *Engine) Certify(ctx context.Context, prog *ast.Program, model anomaly.Model) (*replay.Certificate, *anomaly.Report, error) {
	cert, rep, _, err := e.CertifyReply(ctx, prog, model)
	return cert, rep, err
}

// CertifyReply is Certify that also returns, when the answer came from the
// memo, the entry's Reply; it is nil when the answer was computed.
func (e *Engine) CertifyReply(ctx context.Context, prog *ast.Program, model anomaly.Model) (cert *replay.Certificate, rep *anomaly.Report, reply *Reply, err error) {
	if err := e.acquire(ctx); err != nil {
		return nil, nil, nil, err
	}
	defer e.release()
	start := time.Now()
	defer e.guard(start, &err)
	e.execHook("certify", "")
	key := answerKey{verb: "certify", prog: ast.HashProgram(prog), model: model}
	if ans, reply := e.answers.get(key); ans != nil {
		if err := ctx.Err(); err != nil {
			return nil, nil, nil, e.finish(start, err)
		}
		return ans.cert, ans.rep, reply, e.finish(start, nil)
	}
	cert, rep, cerr := replay.CertifyModelContext(ctx, prog, model)
	if cerr == nil {
		e.answers.put(&answer{key: key, cert: cert, rep: rep})
	}
	return cert, rep, nil, e.finish(start, cerr)
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
	// Session cache counters.
	SessionHits      int64 `json:"session_hits"`
	SessionMisses    int64 `json:"session_misses"`
	SessionEvictions int64 `json:"session_evictions"`
	CachedSessions   int   `json:"cached_sessions"`
	// Answer memo counters: lookups answered from memory and not, answers
	// evicted past the bound, and answers held (an instantaneous gauge).
	// Repairs on an injected session never look up.
	AnswerHits      int64 `json:"answer_hits"`
	AnswerMisses    int64 `json:"answer_misses"`
	AnswerEvictions int64 `json:"answer_evictions"`
	CachedAnswers   int   `json:"cached_answers"`
	// AnswerReplyBytes is the size of the replies stored with them.
	AnswerReplyBytes int `json:"answer_reply_bytes"`
	// Program memo counters, as the answer memo's; a source that fails to
	// check is a miss and is never held.
	ProgramHits       int64 `json:"program_hits"`
	ProgramMisses     int64 `json:"program_misses"`
	CachedPrograms    int   `json:"cached_programs"`
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
	e.mu.Lock()
	cached := e.lru.Len()
	e.mu.Unlock()
	open := 0
	now := time.Now()
	e.bmu.Lock()
	for _, b := range e.breakers {
		if !b.openUntil.IsZero() && now.Before(b.openUntil) {
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
		SessionHits:       e.hits.Load(),
		SessionMisses:     e.misses.Load(),
		SessionEvictions:  e.evictions.Load(),
		CachedSessions:    cached,
	}
	e.answers.counters(&st)
	e.programs.counters(&st)
	return st
}
