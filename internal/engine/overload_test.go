package engine

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"atropos/internal/anomaly"
	"atropos/internal/benchmarks"
	"atropos/internal/repair"
)

// TestRetryAfterFormula pins the adaptive backoff hint exactly:
// (queued+1) × service-time-EWMA / workers, clamped to [1s, 60s], with a
// 1s default before any observation.
func TestRetryAfterFormula(t *testing.T) {
	e := New(Config{Workers: 2, QueueDepth: 8})
	if got := e.RetryAfter(); got != time.Second {
		t.Fatalf("RetryAfter with no observations = %v, want 1s", got)
	}
	e.ewmaNs.Store(int64(4 * time.Second))
	if got := e.RetryAfter(); got != 2*time.Second {
		t.Fatalf("RetryAfter(queued=0, ewma=4s, workers=2) = %v, want 2s", got)
	}
	e.queued.Store(3)
	if got := e.RetryAfter(); got != 8*time.Second {
		t.Fatalf("RetryAfter(queued=3, ewma=4s, workers=2) = %v, want 8s", got)
	}
	e.ewmaNs.Store(int64(time.Millisecond))
	if got := e.RetryAfter(); got != time.Second {
		t.Fatalf("RetryAfter below floor = %v, want clamp to 1s", got)
	}
	e.ewmaNs.Store(int64(10 * time.Minute))
	if got := e.RetryAfter(); got != time.Minute {
		t.Fatalf("RetryAfter above ceiling = %v, want clamp to 60s", got)
	}
}

// TestServiceEwma pins the smoothing: the first observation seeds the
// estimate, each further one folds in at 1/5 weight.
func TestServiceEwma(t *testing.T) {
	e := New(Config{Workers: 1})
	e.observeService(100 * time.Millisecond)
	if got := e.ewmaNs.Load(); got != int64(100*time.Millisecond) {
		t.Fatalf("first observation = %dns, want seed 100ms", got)
	}
	e.observeService(200 * time.Millisecond)
	want := int64(100*time.Millisecond) + int64(100*time.Millisecond)/5
	if got := e.ewmaNs.Load(); got != want {
		t.Fatalf("second observation = %dns, want %dns (1/5 fold)", got, want)
	}
}

// TestQueueWaitShed: a waiter older than MaxQueueWait is shed with
// ErrOverloaded and counted, instead of going stale in the queue.
func TestQueueWaitShed(t *testing.T) {
	e := New(Config{Workers: 1, QueueDepth: 2, MaxQueueWait: 20 * time.Millisecond})
	if err := e.acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer e.release()
	start := time.Now()
	err := e.acquire(context.Background())
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("stale waiter returned %v, want ErrOverloaded", err)
	}
	if !strings.Contains(err.Error(), "shed") {
		t.Fatalf("shed error does not say so: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("shed took %v", elapsed)
	}
	st := e.Stats()
	if st.Shed != 1 || st.Rejected != 1 || st.Queued != 0 {
		t.Fatalf("stats after shed = %+v, want shed=1 rejected=1 queued=0", st)
	}
}

// TestQueueWaitDisabled: a negative MaxQueueWait turns the ceiling off — the
// waiter holds its place until the slot frees.
func TestQueueWaitDisabled(t *testing.T) {
	e := New(Config{Workers: 1, QueueDepth: 1, MaxQueueWait: -1})
	if err := e.acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	waiter := make(chan error, 1)
	go func() { waiter <- e.acquire(context.Background()) }()
	waitQueued(t, e, 1)
	time.Sleep(50 * time.Millisecond) // would shed under any small ceiling
	e.release()
	if err := <-waiter; err != nil {
		t.Fatalf("waiter with disabled ceiling: %v", err)
	}
	e.release()
	if st := e.Stats(); st.Shed != 0 {
		t.Fatalf("shed = %d with ceiling disabled", st.Shed)
	}
}

// TestBreakerStateMachine drives the per-client circuit directly through
// its transitions: closed → open at the trip threshold → fast-failing →
// half-open after cooldown → re-open on one more degraded result → closed
// on a clean one.
func TestBreakerStateMachine(t *testing.T) {
	e := New(Config{Workers: 1, BreakerTrip: 3, BreakerCooldown: 25 * time.Millisecond})
	const client = "c"
	for i := 0; i < 2; i++ {
		e.breakerResult(client, true)
		if err := e.breakerCheck(client); err != nil {
			t.Fatalf("breaker open after %d degraded results: %v", i+1, err)
		}
	}
	e.breakerResult(client, true) // third strike
	if err := e.breakerCheck(client); !errors.Is(err, ErrCircuitOpen) {
		t.Fatalf("breaker check after trip = %v, want ErrCircuitOpen", err)
	}
	st := e.Stats()
	if st.BreakerTrips != 1 || st.BreakerFastFails != 1 || st.BreakerOpen != 1 {
		t.Fatalf("stats after trip = %+v, want trips=1 fastFails=1 open=1", st)
	}
	time.Sleep(30 * time.Millisecond)
	if err := e.breakerCheck(client); err != nil {
		t.Fatalf("half-open probe rejected after cooldown: %v", err)
	}
	// The probe degrades too: one strike re-opens (consec resumed at trip-1).
	e.breakerResult(client, true)
	if err := e.breakerCheck(client); !errors.Is(err, ErrCircuitOpen) {
		t.Fatalf("breaker after degraded half-open probe = %v, want ErrCircuitOpen", err)
	}
	time.Sleep(30 * time.Millisecond)
	if err := e.breakerCheck(client); err != nil {
		t.Fatalf("second half-open probe rejected: %v", err)
	}
	e.breakerResult(client, false) // clean probe closes the circuit
	for i := 0; i < 2; i++ {
		if err := e.breakerCheck(client); err != nil {
			t.Fatalf("breaker open after clean close: %v", err)
		}
		e.breakerResult(client, true)
	}
	// Two strikes after a clean close must not trip a 3-strike breaker:
	// closing forgets history.
	if err := e.breakerCheck(client); err != nil {
		t.Fatalf("breaker tripped on stale strikes: %v", err)
	}
}

// withStages is a repair option that sets an explicit stage split.
func withStages(s repair.StageDeadlines) repair.Option {
	return func(o *repair.Options) { o.Stages = s }
}

// expiredDetect is a stage split whose detect allowance is spent before the
// first detection pass starts: a repair under it degrades.
var expiredDetect = withStages(repair.StageDeadlines{Detect: time.Nanosecond})

// TestBreakerEndToEnd drives the circuit through the public verb: repeated
// degraded repairs from one client trip its breaker; a fresh client is
// unaffected.
func TestBreakerEndToEnd(t *testing.T) {
	e := New(Config{Workers: 1, BreakerTrip: 2, BreakerCooldown: time.Hour})
	prog := loadRMW(t)
	greedy := []repair.Option{repair.Client("greedy"), expiredDetect}
	for i := 0; i < 2; i++ {
		res, err := e.Repair(context.Background(), prog, anomaly.EC, greedy...)
		if err != nil {
			t.Fatalf("deadline-bound repair %d: %v", i, err)
		}
		if !res.Degraded {
			t.Fatalf("deadline-bound repair %d not degraded", i)
		}
	}
	if _, err := e.Repair(context.Background(), prog, anomaly.EC, greedy...); !errors.Is(err, ErrCircuitOpen) {
		t.Fatalf("post-trip repair = %v, want ErrCircuitOpen", err)
	}
	res, err := e.Repair(context.Background(), prog, anomaly.EC, repair.Client("patient"))
	if err != nil || res.Degraded {
		t.Fatalf("patient client affected by neighbor's breaker: err=%v degraded=%v", err, res != nil && res.Degraded)
	}
	st := e.Stats()
	if st.BreakerTrips != 1 || st.Degraded != 2 {
		t.Fatalf("stats = %+v, want trips=1 degraded=2", st)
	}
}

// TestBreakerMapBounded: client ids come from request bodies, so many
// distinct clients whose repairs all degrade must not grow the breaker map
// past maxBreakers — neither when their circuits stay closed (each is one
// strike short of tripping) nor when every one trips and stays open.
func TestBreakerMapBounded(t *testing.T) {
	prog := loadRMW(t)
	degrade := &Hooks{Stages: func(string) (repair.StageDeadlines, bool) {
		return repair.StageDeadlines{Detect: time.Nanosecond}, true
	}}
	for _, trip := range []int{3, 1} {
		e := New(Config{Workers: 1, BreakerTrip: trip, BreakerCooldown: time.Hour, Hooks: degrade})
		for i := 0; i < maxBreakers+64; i++ {
			res, err := e.Repair(context.Background(), prog, anomaly.EC, repair.Client(fmt.Sprintf("c%d", i)))
			if err != nil || !res.Degraded {
				t.Fatalf("trip %d, client %d: err=%v, want a degraded repair", trip, i, err)
			}
		}
		e.bmu.Lock()
		n := len(e.breakers)
		e.bmu.Unlock()
		if n > maxBreakers {
			t.Fatalf("trip %d: %d breakers after %d degraded clients, bound %d", trip, n, maxBreakers+64, maxBreakers)
		}
		if st := e.Stats(); trip == 1 && st.BreakerOpen != maxBreakers {
			t.Fatalf("trip 1: %d open circuits, want the first %d clients' kept", st.BreakerOpen, maxBreakers)
		}
	}
}

// shortLease is a context that always reports the same short time left
// until its deadline and never expires. It pins deadline-derived behaviour
// without racing the solver: however fast detection gets, a stage carved
// out of a few microseconds is spent before the first query, and the
// request itself can never time out.
type shortLease struct {
	context.Context
	left time.Duration
}

func (c shortLease) Deadline() (time.Time, bool) { return time.Now().Add(c.left), true }

// TestStageSplitDerivedFromDeadline: a Repair with a context deadline and no
// explicit stage split gets repair.Split's allocation, so its detect stage
// expires and the result degrades instead of erroring; an explicit split
// under the same deadline is left alone.
func TestStageSplitDerivedFromDeadline(t *testing.T) {
	e := New(Config{Workers: 1})
	prog, err := benchmarks.TPCC.Program()
	if err != nil {
		t.Fatal(err)
	}
	ctx := shortLease{context.Background(), 100 * time.Microsecond}
	res, err := e.Repair(ctx, prog, anomaly.EC)
	if err != nil {
		t.Fatalf("repair with a derived stage split: %v", err)
	}
	if !res.Degraded || len(res.DegradedStages) != 1 || res.DegradedStages[0] != "detect" {
		t.Fatalf("degraded stages = %v, want [detect]", res.DegradedStages)
	}
	if res.Program == nil {
		t.Fatal("degraded repair returned no program")
	}
	res, err = e.Repair(ctx, prog, anomaly.EC,
		withStages(repair.StageDeadlines{Detect: time.Hour, Repair: time.Hour}))
	if err != nil {
		t.Fatalf("repair with an explicit stage split: %v", err)
	}
	if res.Degraded {
		t.Fatalf("explicit stage split was overridden: degraded stages = %v", res.DegradedStages)
	}
}

// TestEngineInvariantsUnderChaos is the stats-accounting property test: a
// concurrent mix of clean requests, deadline-degraded repairs, panicking
// requests, cancelled requests, and overload rejections must leave the
// engine drained (no occupied slots, no queued waiters) with every request
// accounted for in exactly one of completed/canceled/rejected.
func TestEngineInvariantsUnderChaos(t *testing.T) {
	e := New(Config{
		Workers: 2, QueueDepth: 1, MaxQueueWait: 5 * time.Millisecond,
		BreakerTrip: 3, BreakerCooldown: time.Millisecond,
		Hooks: &Hooks{Exec: func(verb, client string) {
			if client == "boom" {
				panic("chaos: injected")
			}
		}},
	})
	prog := loadRMW(t)
	const n = 48
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			switch i % 5 {
			case 0: // clean, session-backed
				e.Analyze(ctx, prog, anomaly.EC, repair.Client(fmt.Sprintf("ok-%d", i%3))) //nolint:errcheck
			case 1: // detect stage expired (degrades, may trip its breaker)
				e.Repair(ctx, prog, anomaly.EC, repair.Client("greedy"), expiredDetect) //nolint:errcheck
			case 2: // panics inside the worker slot
				e.Analyze(ctx, prog, anomaly.EC, repair.Client("boom")) //nolint:errcheck
			case 3: // cancelled almost immediately
				cctx, ccancel := context.WithTimeout(ctx, time.Millisecond)
				e.Analyze(cctx, prog, anomaly.EC) //nolint:errcheck
				ccancel()
			case 4: // full repair, session-backed
				e.Repair(ctx, prog, anomaly.EC, repair.Client(fmt.Sprintf("ok-%d", i%3))) //nolint:errcheck
			}
		}(i)
	}
	wg.Wait()
	st := e.Stats()
	if st.InFlight != 0 || st.Queued != 0 {
		t.Fatalf("engine not drained: %+v", st)
	}
	if got := st.Completed + st.Canceled + st.Rejected; got != n {
		t.Fatalf("request accounting: completed %d + canceled %d + rejected %d = %d, want %d",
			st.Completed, st.Canceled, st.Rejected, got, n)
	}
	// The engine must still serve cleanly after the storm.
	if _, err := e.Analyze(context.Background(), prog, anomaly.EC); err != nil {
		t.Fatalf("post-chaos analyze: %v", err)
	}
}
