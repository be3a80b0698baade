package engine

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"atropos/internal/anomaly"
	"atropos/internal/ast"
	"atropos/internal/benchmarks"
	"atropos/internal/cluster"
	"atropos/internal/repair"
)

const rmwSrc = `
table T { id: int key, n: int, }
txn bump(k: int, amt: int) {
  x := select n from T where id = k;
  update T set n = x.n + amt where id = k;
}
txn read(k: int) {
  x := select n from T where id = k;
  return x.n;
}
`

func loadRMW(t *testing.T) *ast.Program {
	t.Helper()
	e := New(Config{})
	prog, err := e.Parse(rmwSrc)
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

// waitQueued spins until the engine's wait queue holds n requests.
func waitQueued(t *testing.T, e *Engine, n int64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for e.queued.Load() != n {
		if time.Now().After(deadline) {
			t.Fatalf("queued = %d, want %d", e.queued.Load(), n)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestAdmissionBackpressure pins the admission contract exactly: with one
// worker slot taken and one request waiting, the next arrival is rejected
// with ErrOverloaded instead of queueing unboundedly, and releasing the
// slot un-blocks the waiter.
func TestAdmissionBackpressure(t *testing.T) {
	e := New(Config{Workers: 1, QueueDepth: 1})
	if err := e.acquire(context.Background()); err != nil {
		t.Fatalf("first acquire: %v", err)
	}
	waiter := make(chan error, 1)
	go func() { waiter <- e.acquire(context.Background()) }()
	waitQueued(t, e, 1)
	if err := e.acquire(context.Background()); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("acquire with full queue = %v, want ErrOverloaded", err)
	}
	e.release()
	if err := <-waiter; err != nil {
		t.Fatalf("queued acquire after release: %v", err)
	}
	e.release()
	st := e.Stats()
	if st.Rejected != 1 || st.InFlight != 0 || st.Queued != 0 {
		t.Fatalf("stats after drain: %+v", st)
	}
}

// TestQueuedAcquireCancel: cancelling a request waiting for a worker slot
// frees its queue position without consuming a slot.
func TestQueuedAcquireCancel(t *testing.T) {
	e := New(Config{Workers: 1, QueueDepth: 2})
	if err := e.acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	waiter := make(chan error, 1)
	go func() { waiter <- e.acquire(ctx) }()
	waitQueued(t, e, 1)
	cancel()
	if err := <-waiter; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled queued acquire = %v, want context.Canceled", err)
	}
	waitQueued(t, e, 0)
	st := e.Stats()
	if st.Canceled != 1 || st.InFlight != 1 {
		t.Fatalf("stats = %+v, want 1 canceled, 1 in flight", st)
	}
	e.release()
}

// pollCancel is a context that cancels itself on its n-th Err poll. The
// detector polls its context before every cycle query and every few dozen
// propagations inside a solve, so the cancellation lands after detection
// has started and before it can finish, however fast the solver is.
type pollCancel struct {
	context.Context
	cancel context.CancelFunc
	left   atomic.Int64
}

func newPollCancel(n int64) *pollCancel {
	c := &pollCancel{}
	c.Context, c.cancel = context.WithCancel(context.Background())
	c.left.Store(n)
	return c
}

func (c *pollCancel) Err() error {
	if c.left.Add(-1) == 0 {
		c.cancel()
	}
	return c.Context.Err()
}

// TestCancelAbortsMidSolve drives the full path the daemon relies on: a
// context cancelled while the detector is inside SAT solves makes the
// request return promptly with the context's error, and the worker slot
// comes back (a follow-up request on the same single-worker engine runs).
func TestCancelAbortsMidSolve(t *testing.T) {
	e := New(Config{Workers: 1, QueueDepth: 1})
	prog, err := benchmarks.TPCC.Program()
	if err != nil {
		t.Fatal(err)
	}
	// A full TPC-C detection polls a few hundred times (one per cycle
	// query at least); the 100th poll is well inside it.
	ctx := newPollCancel(100)
	defer ctx.cancel()
	if _, err := e.Analyze(ctx, prog, anomaly.EC); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled Analyze = %v, want context.Canceled", err)
	}
	// The slot must be free again: a fresh request on the only worker
	// completes without queueing.
	rep, err := e.Analyze(context.Background(), loadRMW(t), anomaly.EC)
	if err != nil {
		t.Fatalf("Analyze after cancellation: %v", err)
	}
	if rep.Count() == 0 {
		t.Fatal("no anomalies in the RMW program")
	}
	st := e.Stats()
	if st.Canceled != 1 || st.Completed != 1 || st.InFlight != 0 {
		t.Fatalf("stats = %+v, want 1 canceled + 1 completed, none in flight", st)
	}
}

// TestPreCancelledContext: a context dead on arrival aborts before any
// solving, deterministically.
func TestPreCancelledContext(t *testing.T) {
	e := New(Config{Workers: 1})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := e.Analyze(ctx, loadRMW(t), anomaly.EC); !errors.Is(err, context.Canceled) {
		t.Fatalf("Analyze on cancelled ctx = %v", err)
	}
	if _, _, _, err := e.Certify(ctx, loadRMW(t), anomaly.EC); !errors.Is(err, context.Canceled) {
		t.Fatalf("Certify on cancelled ctx = %v", err)
	}
	if st := e.Stats(); st.InFlight != 0 {
		t.Fatalf("in flight = %d after aborted requests", st.InFlight)
	}
}

// TestSessionLRU pins the session cache: per-client reuse hits, the byte
// bound evicts the oldest client's session, a session past the whole share
// is dropped at checkin, and a client's certifying repair runs on the same
// session as its plain requests.
func TestSessionLRU(t *testing.T) {
	prog := loadRMW(t)
	// A share with room for two sessions that detected prog, not three.
	s := anomaly.NewSession(anomaly.EC)
	if _, err := s.Detect(prog); err != nil {
		t.Fatal(err)
	}
	one := lruEntryBytes + len("a") + s.Size()
	e := New(Config{Workers: 1})
	e.sessions = newLRU[sessionKey, *anomaly.DetectSession](2*one + one/2)
	ctx := context.Background()
	analyze := func(client string) {
		t.Helper()
		if _, err := e.Analyze(ctx, prog, anomaly.EC, repair.Client(client)); err != nil {
			t.Fatal(err)
		}
	}
	analyze("a")
	analyze("b")
	analyze("a") // hit
	st := e.Stats()
	if st.SessionHits != 1 || st.SessionMisses != 2 {
		t.Fatalf("hits/misses = %d/%d, want 1/2", st.SessionHits, st.SessionMisses)
	}
	analyze("c") // evicts b (LRU tail)
	st = e.Stats()
	if st.SessionEvictions != 1 || st.CachedSessions != 2 {
		t.Fatalf("evictions = %d cached = %d, want 1 and 2", st.SessionEvictions, st.CachedSessions)
	}
	if st.SessionBytes != 2*one {
		t.Fatalf("session bytes = %d, want %d", st.SessionBytes, 2*one)
	}
	analyze("b") // must miss: b was evicted
	if st = e.Stats(); st.SessionMisses != 4 {
		t.Fatalf("misses = %d, want 4 (b evicted)", st.SessionMisses)
	}
	// A certifying request for client "b" reuses b's one session.
	if _, err := e.Repair(ctx, prog, anomaly.EC, repair.Client("b"), repair.Certify(true)); err != nil {
		t.Fatal(err)
	}
	if st = e.Stats(); st.SessionHits != 2 || st.SessionMisses != 4 {
		t.Fatalf("hits/misses = %d/%d, want 2/4 (certify shares the client's session)", st.SessionHits, st.SessionMisses)
	}
	// A session past the whole share is not kept.
	e.sessions = newLRU[sessionKey, *anomaly.DetectSession](one - 1)
	analyze("a")
	if st = e.Stats(); st.SessionEvictions != 1 || st.CachedSessions != 0 || st.SessionBytes != 0 {
		t.Fatalf("evictions = %d cached = %d bytes = %d, want 1, 0 and 0", st.SessionEvictions, st.CachedSessions, st.SessionBytes)
	}
}

// TestSessionReuseKeepsReports: repeated Analyze through one client's
// cached session reports exactly what a new session does.
func TestSessionReuseKeepsReports(t *testing.T) {
	e := New(Config{Workers: 1})
	prog := loadRMW(t)
	ctx := context.Background()
	fresh, err := anomaly.NewSession(anomaly.EC).Detect(prog)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		rep, err := e.Analyze(ctx, prog, anomaly.EC, repair.Client("steady"))
		if err != nil {
			t.Fatal(err)
		}
		if len(rep.Pairs) != len(fresh.Pairs) {
			t.Fatalf("round %d: %d pairs via session, %d fresh", i, len(rep.Pairs), len(fresh.Pairs))
		}
		for j, p := range rep.Pairs {
			if p.String() != fresh.Pairs[j].String() {
				t.Fatalf("round %d pair %d: %s != %s", i, j, p, fresh.Pairs[j])
			}
		}
	}
}

// TestConcurrentMixedRequests hammers one engine with 16 concurrent clients
// running mixed request kinds (the acceptance bar for the race detector):
// everything must complete, nothing may leak a worker slot or a queue
// position.
func TestConcurrentMixedRequests(t *testing.T) {
	e := New(Config{Workers: 4, QueueDepth: 64})
	prog := loadRMW(t)
	bank, err := benchmarks.SIBench.Program()
	if err != nil {
		t.Fatal(err)
	}
	scale := benchmarks.Scale{Records: 10}
	ctx := context.Background()
	const goroutines = 16
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			client := []string{"alpha", "beta", "gamma", "delta"}[i%4]
			var err error
			switch i % 4 {
			case 0:
				_, err = e.Analyze(ctx, prog, anomaly.EC, repair.Client(client))
			case 1:
				_, err = e.Repair(ctx, prog, anomaly.EC, repair.Client(client))
			case 2:
				_, _, _, err = e.Certify(ctx, bank, anomaly.EC)
			default:
				_, err = e.Simulate(ctx, cluster.Config{
					Program:  bank,
					Mix:      benchmarks.SIBench.Mix,
					Scale:    scale,
					Rows:     benchmarks.SIBench.Rows(scale),
					Topology: cluster.VACluster,
					Clients:  4,
					Duration: time.Second,
					Seed:     int64(i),
					Mode:     cluster.ModeEC,
				})
			}
			if err != nil {
				errs <- err
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Errorf("request failed: %v", err)
	}
	st := e.Stats()
	if st.Completed != goroutines {
		t.Fatalf("completed = %d, want %d", st.Completed, goroutines)
	}
	if st.InFlight != 0 || st.Queued != 0 {
		t.Fatalf("leaked admission state: %+v", st)
	}
}

// TestCheckinLastWriterYields: two concurrent checkouts of one key produce
// two sessions; the second checkin must yield instead of caching a
// duplicate.
func TestCheckinLastWriterYields(t *testing.T) {
	e := New(Config{Workers: 2})
	k := sessionKey{client: "dup", model: anomaly.EC}
	s1 := e.checkout(k)
	s2 := e.checkout(k)
	if s1 == s2 {
		t.Fatal("concurrent checkouts shared a session")
	}
	e.checkin(k, s1)
	e.checkin(k, s2)
	if st := e.Stats(); st.CachedSessions != 1 {
		t.Fatalf("cached = %d after double checkin, want 1", st.CachedSessions)
	}
	// The first checkin's session is the one the key keeps.
	if s3 := e.checkout(k); s3 != s1 {
		t.Fatal("the second checkin replaced the cached session")
	}
}

// TestPanicIsolation: a request whose body panics must surface as an error
// return, not a daemon crash — and must free its worker slot so the engine
// keeps serving (DESIGN.md §12's robustness contract).
func TestPanicIsolation(t *testing.T) {
	e := New(Config{Workers: 2})
	_, err := e.Simulate(context.Background(), cluster.Config{Clients: 1}) // nil Program panics inside the simulator
	if err == nil || !strings.Contains(err.Error(), "panic") {
		t.Fatalf("Simulate with nil program: err = %v, want an internal-panic error", err)
	}
	if st := e.Stats(); st.InFlight != 0 {
		t.Fatalf("in_flight = %d after a panicking request, want 0", st.InFlight)
	}
	// The slot is free and the engine still answers.
	prog := loadRMW(t)
	rep, err := e.Analyze(context.Background(), prog, anomaly.EC)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Count() == 0 {
		t.Error("post-panic analyze found no anomalies; engine state corrupted?")
	}
}

// TestAnalyzeClientlessMatchesKeyed: an anonymous Analyze runs the same
// detector as a client-keyed one — equal reports — and its private session
// never enters the LRU.
func TestAnalyzeClientlessMatchesKeyed(t *testing.T) {
	prog, err := benchmarks.TPCC.Program()
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	e := New(Config{Workers: 1})
	anon, err := e.Analyze(ctx, prog, anomaly.EC)
	if err != nil {
		t.Fatal(err)
	}
	if st := e.Stats(); st.SessionMisses != 0 || st.CachedSessions != 0 {
		t.Fatalf("anonymous analyze touched the session LRU: %+v", st)
	}
	keyed, err := e.Analyze(ctx, prog, anomaly.EC, repair.Client("c"))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(anon.Pairs, keyed.Pairs) || anon.Queries != keyed.Queries ||
		anon.EncodersPlanned != keyed.EncodersPlanned {
		t.Errorf("anonymous %d pairs / %d queries, keyed %d / %d",
			len(anon.Pairs), anon.Queries, len(keyed.Pairs), keyed.Queries)
	}
}
