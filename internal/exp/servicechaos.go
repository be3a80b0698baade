package exp

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"time"

	"atropos/internal/anomaly"
	"atropos/internal/benchmarks"
	"atropos/internal/engine"
	"atropos/internal/repair"
	"atropos/internal/sat"
)

// This file is the service-chaos harness (the daemon-side twin of the
// cluster fault panel in chaos.go): a scripted sequence of injected service
// faults — worker stalls, queue overflow, stale-waiter sheds, budget-
// exhausting solves, a handler panic — driven against one live engine
// through its instrumentation hooks (engine.Hooks). Every phase is
// deterministic by construction: faults fire on named chaos clients at
// scripted points, not on timers racing real work, so the resulting
// admission/degradation counters are exact integers the drift gate pins in
// BENCH_baseline.json. ServiceChaosGate then asserts the robustness
// headline: every accepted request completes or degrades within its
// deadline, overload sheds instead of stalling, repeated exhaustion trips
// the client's breaker, a panic is contained, and the engine drains back to
// a clean steady state.

// chaosWatchdog bounds every wait in the harness: a request or phase
// transition that has not happened by then is reported as a stuck-service
// gate failure rather than hanging the run.
const chaosWatchdog = 30 * time.Second

// ServiceChaosConfig sizes the harness. The zero value is the committed
// panel: 2 workers, 2 queue slots, a 400ms queue-wait ceiling, a
// 3-strike breaker.
type ServiceChaosConfig struct {
	Workers      int
	QueueDepth   int
	MaxQueueWait time.Duration
	BreakerTrip  int
}

func (c ServiceChaosConfig) orDefault() ServiceChaosConfig {
	if c.Workers <= 0 {
		c.Workers = 2
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 2
	}
	if c.MaxQueueWait <= 0 {
		// Wide enough that the scripted queue-full burst (microseconds after
		// the queue fills) always lands before the shed timer fires.
		c.MaxQueueWait = 400 * time.Millisecond
	}
	if c.BreakerTrip <= 0 {
		c.BreakerTrip = 3
	}
	return c
}

// ServiceChaosResult is one harness run. Every field is a deterministic
// count (the drift gate compares all of them); Wall is informational.
type ServiceChaosResult struct {
	Workers    int `json:"workers"`
	QueueDepth int `json:"queue_depth"`
	// Stall phase: requests held mid-execution until released, then run to
	// completion — slots stall but never leak.
	StallCompleted int `json:"stall_completed"`
	// Overload phase: immediate queue-full rejections during the stall, and
	// queued waiters shed at the queue-wait ceiling.
	QueueRejected int `json:"queue_rejected"`
	QueueShed     int `json:"queue_shed"`
	// Breaker phase: consecutive budget-exhausted (degraded) analyses from
	// one client, the unknown pairs they reported, and the fast-fails after
	// the circuit opened.
	BreakerDegraded  int   `json:"breaker_degraded"`
	BreakerUnknown   int   `json:"breaker_unknown"`
	BreakerTrips     int64 `json:"breaker_trips"`
	BreakerFastFails int   `json:"breaker_fast_fails"`
	// Panic phase: injected handler panics and how many came back as
	// contained errors.
	PanicsInjected  int `json:"panics_injected"`
	PanicsRecovered int `json:"panics_recovered"`
	// Recovery phase: clean requests after all faults, none degraded.
	RecoveryCompleted int `json:"recovery_completed"`
	RecoveryDegraded  int `json:"recovery_degraded"`
	// Final engine counters (deterministic: the script fixes every request's
	// fate) and the steady-state gauges.
	EngineCompleted   int64 `json:"engine_completed"`
	EngineRejected    int64 `json:"engine_rejected"`
	EngineShed        int64 `json:"engine_shed"`
	EngineDegraded    int64 `json:"engine_degraded"`
	EngineExhaustions int64 `json:"engine_exhaustions"`
	FinalInFlight     int   `json:"final_in_flight"`
	FinalQueued       int   `json:"final_queued"`
	BreakerOpen       int   `json:"breaker_open"`

	Wall time.Duration `json:"-"`
}

// Chaos client names; the Exec hook keys its faults off them.
const (
	chaosStall = "chaos-stall"
	chaosQueue = "chaos-queued"
	chaosBurst = "chaos-burst"
	chaosBad   = "chaos-bad"
	chaosBoom  = "chaos-boom"
	chaosOK    = "chaos-ok"
)

// waitUntil polls cond every millisecond up to the watchdog bound.
func waitUntil(cond func() bool) bool {
	deadline := time.Now().Add(chaosWatchdog)
	for time.Now().Before(deadline) {
		if cond() {
			return true
		}
		time.Sleep(time.Millisecond)
	}
	return cond()
}

type chaosOutcome struct {
	degraded bool
	err      error
}

// RunServiceChaos runs the scripted fault sequence against a fresh engine.
func RunServiceChaos(cfg ServiceChaosConfig) (*ServiceChaosResult, error) {
	cfg = cfg.orDefault()
	start := time.Now()
	prog, err := benchmarks.SmallBank.Program()
	if err != nil {
		return nil, err
	}
	res := &ServiceChaosResult{Workers: cfg.Workers, QueueDepth: cfg.QueueDepth}

	// The fault injectors: stall requests block on the gate until phase 1
	// releases them; boom requests panic inside their worker slot.
	gate := make(chan struct{})
	eng := engine.New(engine.Config{
		Workers:      cfg.Workers,
		QueueDepth:   cfg.QueueDepth,
		MaxQueueWait: cfg.MaxQueueWait,
		BreakerTrip:  cfg.BreakerTrip,
		// The breaker must still be open at the final snapshot, so the
		// cooldown outlives the run by construction.
		BreakerCooldown: time.Hour,
		Hooks: &engine.Hooks{Exec: func(verb, client string) {
			switch client {
			case chaosStall:
				<-gate
			case chaosBoom:
				panic("servicechaos: injected handler panic")
			}
		}},
	})
	analyze := func(client string, opts ...repair.Option) (*anomaly.Report, error) {
		ctx, cancel := context.WithTimeout(context.Background(), chaosWatchdog)
		defer cancel()
		opts = append([]repair.Option{repair.Client(client)}, opts...)
		return eng.Analyze(ctx, prog, anomaly.EC, opts...)
	}

	// Phase 1 — stall + overload: fill every worker slot with stalled
	// requests, fill the queue with waiters, then measure both overload
	// answers: immediate rejection while the queue is full, and the
	// queue-wait shed of the stale waiters. Releasing the gate must complete
	// every stalled request — slots stall, they do not leak.
	stallDone := make(chan chaosOutcome, cfg.Workers)
	for i := 0; i < cfg.Workers; i++ {
		go func() {
			rep, err := analyze(chaosStall)
			stallDone <- chaosOutcome{err: err, degraded: err == nil && rep.Degraded}
		}()
	}
	if !waitUntil(func() bool { return eng.Stats().InFlight == cfg.Workers }) {
		return nil, fmt.Errorf("servicechaos: stalled requests never occupied all %d workers", cfg.Workers)
	}
	queueDone := make(chan chaosOutcome, cfg.QueueDepth)
	for i := 0; i < cfg.QueueDepth; i++ {
		go func() {
			_, err := analyze(chaosQueue)
			queueDone <- chaosOutcome{err: err}
		}()
	}
	if !waitUntil(func() bool { return eng.Stats().Queued == cfg.QueueDepth }) {
		return nil, fmt.Errorf("servicechaos: waiters never filled the %d-deep queue", cfg.QueueDepth)
	}
	for i := 0; i < 3; i++ {
		_, err := analyze(chaosBurst)
		switch {
		case errors.Is(err, engine.ErrOverloaded):
			res.QueueRejected++
		case err == nil:
			return nil, fmt.Errorf("servicechaos: burst request admitted with workers stalled and queue full")
		default:
			return nil, fmt.Errorf("servicechaos: burst request: %w", err)
		}
	}
	for i := 0; i < cfg.QueueDepth; i++ {
		select {
		case o := <-queueDone:
			if errors.Is(o.err, engine.ErrOverloaded) {
				res.QueueShed++
			} else {
				return nil, fmt.Errorf("servicechaos: queued waiter returned %v, want shed", o.err)
			}
		case <-time.After(chaosWatchdog):
			return nil, fmt.Errorf("servicechaos: queued waiter stuck past the queue-wait ceiling")
		}
	}
	close(gate)
	for i := 0; i < cfg.Workers; i++ {
		select {
		case o := <-stallDone:
			if o.err != nil {
				return nil, fmt.Errorf("servicechaos: stalled request failed after release: %w", o.err)
			}
			res.StallCompleted++
		case <-time.After(chaosWatchdog):
			return nil, fmt.Errorf("servicechaos: stalled request stuck after release")
		}
	}

	// Phase 2 — slow solver: one client's analyses run under a starvation
	// budget (one propagation per solve), so every report degrades; the
	// BreakerTrip-th consecutive degradation opens its circuit and further
	// requests fast-fail without touching a worker slot.
	for i := 0; i < cfg.BreakerTrip; i++ {
		rep, err := analyze(chaosBad, repair.SolveBudget(sat.Budget{Propagations: 1}))
		if err != nil {
			return nil, fmt.Errorf("servicechaos: budgeted analyze %d: %w", i, err)
		}
		if rep.Degraded {
			res.BreakerDegraded++
			res.BreakerUnknown += rep.Unknown
		}
	}
	for i := 0; i < 2; i++ {
		_, err := analyze(chaosBad, repair.SolveBudget(sat.Budget{Propagations: 1}))
		if errors.Is(err, engine.ErrCircuitOpen) {
			res.BreakerFastFails++
		} else {
			return nil, fmt.Errorf("servicechaos: post-trip request returned %v, want open circuit", err)
		}
	}

	// Phase 3 — poisoned request: the hook panics inside the worker slot;
	// the guard must contain it as an error and keep the engine serving.
	res.PanicsInjected = 1
	if _, err := analyze(chaosBoom); err != nil && strings.Contains(err.Error(), "internal panic") {
		res.PanicsRecovered++
	}

	// Phase 4 — recovery: clean requests from a fresh client all complete
	// undegraded, and the engine has drained to steady state.
	for i := 0; i < 4; i++ {
		rep, err := analyze(chaosOK)
		if err != nil {
			return nil, fmt.Errorf("servicechaos: recovery analyze %d: %w", i, err)
		}
		res.RecoveryCompleted++
		if rep.Degraded {
			res.RecoveryDegraded++
		}
	}

	st := eng.Stats()
	res.EngineCompleted = st.Completed
	res.EngineRejected = st.Rejected
	res.EngineShed = st.Shed
	res.EngineDegraded = st.Degraded
	res.EngineExhaustions = st.BudgetExhaustions
	res.BreakerTrips = st.BreakerTrips
	res.FinalInFlight = st.InFlight
	res.FinalQueued = st.Queued
	res.BreakerOpen = st.BreakerOpen
	res.Wall = time.Since(start)
	return res, nil
}

// ServiceChaosGate checks the harness's robustness claims, returning one
// message per failure (empty means the gate passes).
func ServiceChaosGate(r *ServiceChaosResult) []string {
	var fails []string
	check := func(ok bool, format string, args ...any) {
		if !ok {
			fails = append(fails, fmt.Sprintf(format, args...))
		}
	}
	check(r.StallCompleted == r.Workers,
		"stalled requests completed = %d, want %d (stalled slots must drain, not leak)", r.StallCompleted, r.Workers)
	check(r.QueueRejected == 3,
		"queue-full rejections = %d, want 3", r.QueueRejected)
	check(r.QueueShed == r.QueueDepth,
		"shed waiters = %d, want %d (stale waiters must be shed at the ceiling)", r.QueueShed, r.QueueDepth)
	check(r.BreakerDegraded >= 1 && r.BreakerUnknown >= 1,
		"budgeted analyses degraded %d time(s) with %d unknown pair(s); want both >= 1", r.BreakerDegraded, r.BreakerUnknown)
	check(r.BreakerTrips == 1,
		"breaker trips = %d, want exactly 1", r.BreakerTrips)
	check(r.BreakerFastFails == 2,
		"breaker fast-fails = %d, want 2", r.BreakerFastFails)
	check(r.PanicsRecovered == r.PanicsInjected,
		"panics recovered = %d of %d injected", r.PanicsRecovered, r.PanicsInjected)
	check(r.RecoveryCompleted == 4 && r.RecoveryDegraded == 0,
		"recovery: %d completed (%d degraded), want 4 clean", r.RecoveryCompleted, r.RecoveryDegraded)
	check(r.FinalInFlight == 0 && r.FinalQueued == 0,
		"engine not drained: in_flight=%d queued=%d", r.FinalInFlight, r.FinalQueued)
	check(r.BreakerOpen == 1,
		"open breakers = %d, want 1 (the tripped client's)", r.BreakerOpen)
	check(r.EngineExhaustions >= 1,
		"engine recorded %d budget exhaustions, want >= 1", r.EngineExhaustions)
	return fails
}

// Format renders the run as the EXPERIMENTS.md service-chaos panel block.
func (r *ServiceChaosResult) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "=== service chaos (%d workers, %d queue slots, %.0f ms wall) ===\n",
		r.Workers, r.QueueDepth, float64(r.Wall)/float64(time.Millisecond))
	fmt.Fprintf(&b, "stall:    %d/%d stalled requests completed after release\n", r.StallCompleted, r.Workers)
	fmt.Fprintf(&b, "overload: %d queue-full rejections, %d stale waiters shed\n", r.QueueRejected, r.QueueShed)
	fmt.Fprintf(&b, "breaker:  %d degraded (%d unknown pairs, %d exhausted solves) -> %d trip(s), %d fast-fail(s)\n",
		r.BreakerDegraded, r.BreakerUnknown, r.EngineExhaustions, r.BreakerTrips, r.BreakerFastFails)
	fmt.Fprintf(&b, "panic:    %d/%d contained\n", r.PanicsRecovered, r.PanicsInjected)
	fmt.Fprintf(&b, "recovery: %d clean completions, %d degraded; in_flight=%d queued=%d open_breakers=%d\n",
		r.RecoveryCompleted, r.RecoveryDegraded, r.FinalInFlight, r.FinalQueued, r.BreakerOpen)
	return b.String()
}
