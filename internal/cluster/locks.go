package cluster

import "atropos/internal/store"

// Record locking shared by both executors: the interpreter's txnRun and the
// compiled cTxnRun embed a lockCore, so lock ownership, FIFO waiting,
// deadlock detection, and timeout arbitration behave identically — and
// interact correctly when one run mixes engines (a transaction the compiler
// fell back on contends with compiled ones).

// lockKey names a record by compiled table id: both executors resolve the
// table once per statement, so acquire/release hash an int32 and the key,
// never the table name.
type lockKey struct {
	tid int32
	key store.Key
}

type lockState struct {
	owner   *lockCore
	waiters []waiter
}

// waiter is one queued lock request with the generation its core had when
// it blocked: a wake-up is only honored by the wait it was issued for —
// a core that aborted and is now blocked on a different lock must ignore
// wake-ups addressed to its dead wait (they would otherwise restart the
// new wait's timeout window and duplicate its queue entry).
type waiter struct {
	c   *lockCore
	gen int
}

// lockCore is one transaction attempt's lock state. A core has at most one
// outstanding wait, so the wait's continuation lives in fields consumed on
// wake-up — waiting allocates no closures (wake and timeout events are
// pooled on the driver for the same reason).
type lockCore struct {
	d         *driver
	gen       int // invalidates stale wakeups/timeouts after abort
	waitEpoch int // distinguishes successive waits within one attempt
	waiting   bool
	blockedOn *lockState // the lock this run is waiting for, if any
	held      []lockKey
	// onAbort aborts and retries the owning transaction (engine-specific).
	onAbort func()
	// Pending-wait state consumed on wake-up.
	wantPending []lockKey
	contPending func()
}

// acquire takes the locks (FIFO) or queues behind a holder; a timeout
// aborts and retries the transaction.
func (t *lockCore) acquire(want []lockKey, cont func()) {
	d := t.d
	for _, lk := range want {
		ls := d.locks[lk]
		if ls == nil {
			ls = d.getLockState()
			d.locks[lk] = ls
		}
		if ls.owner == nil || ls.owner == t {
			if ls.owner == nil {
				ls.owner = t
				t.held = append(t.held, lk)
			}
			continue
		}
		// Deadlock detection: walk the wait-for chain from the lock's
		// owner; if it leads back to us, abort immediately (the requester
		// is the victim, as in MongoDB's write-conflict aborts) instead of
		// stalling until the timeout.
		if t.wouldDeadlock(ls) {
			t.onAbort()
			return
		}
		// Blocked: wait on this lock, retry the full set on wake-up. The
		// epoch ties the timeout to this particular wait, so a timer from
		// an earlier wait that ended cannot abort a later one prematurely.
		ls.waiters = append(ls.waiters, waiter{c: t, gen: t.gen})
		t.waiting = true
		t.blockedOn = ls
		t.waitEpoch++
		t.wantPending, t.contPending = want, cont
		d.scheduleLockTimeout(t)
		return
	}
	cont()
}

// wakeEv is one pooled wake-up event: it resumes the wait the release
// addressed (same generation, still waiting) and is a no-op for waits
// that aborted meanwhile. Within one generation a core has at most one
// outstanding wait, so wantPending/contPending are the woken wait's.
type wakeEv struct {
	d   *driver
	c   *lockCore
	gen int
	fn  func()
}

func (d *driver) scheduleWake(w waiter) {
	var e *wakeEv
	if n := len(d.wakePool); n > 0 {
		e = d.wakePool[n-1]
		d.wakePool = d.wakePool[:n-1]
	} else {
		e = &wakeEv{d: d}
		e.fn = func() {
			c, gen := e.c, e.gen
			e.c = nil
			e.d.wakePool = append(e.d.wakePool, e)
			if c.gen != gen || !c.waiting {
				return
			}
			c.waiting = false
			c.blockedOn = nil
			c.acquire(c.wantPending, c.contPending)
		}
	}
	e.c, e.gen = w.c, w.gen
	d.sim.At(0, e.fn)
}

// lockTimer is one pooled lock-timeout event with a pre-bound callback.
type lockTimer struct {
	d          *driver
	t          *lockCore
	gen, epoch int
	fn         func()
}

func (d *driver) scheduleLockTimeout(t *lockCore) {
	var e *lockTimer
	if n := len(d.timerPool); n > 0 {
		e = d.timerPool[n-1]
		d.timerPool = d.timerPool[:n-1]
	} else {
		e = &lockTimer{d: d}
		e.fn = func() {
			c, gen, epoch := e.t, e.gen, e.epoch
			e.t = nil
			e.d.timerPool = append(e.d.timerPool, e)
			if c.gen == gen && c.waiting && c.waitEpoch == epoch {
				c.onAbort()
			}
		}
	}
	e.t, e.gen, e.epoch = t, t.gen, t.waitEpoch
	d.sim.At(d.cfg.LockTimeout, e.fn)
}

// wouldDeadlock reports whether waiting on ls closes a wait-for cycle
// through us.
func (t *lockCore) wouldDeadlock(ls *lockState) bool {
	cur := ls.owner
	for hops := 0; cur != nil && hops < 64; hops++ {
		if cur == t {
			return true
		}
		if cur.blockedOn == nil {
			return false
		}
		cur = cur.blockedOn.owner
	}
	return false
}

// abortLocks is the common abort bookkeeping: clear the wait, free the
// held locks, and invalidate outstanding wakeups/timeouts.
func (t *lockCore) abortLocks() {
	t.waiting = false
	t.blockedOn = nil
	t.release()
	t.gen++
}

func (t *lockCore) release() {
	d := t.d
	for _, lk := range t.held {
		ls := d.locks[lk]
		if ls == nil || ls.owner != t {
			continue
		}
		ls.owner = nil
		waiters := ls.waiters
		ls.waiters = nil
		if len(waiters) == 0 {
			// Nobody waits and nothing references this entry any more:
			// recycle it. Without this the lock table grows one entry per
			// inserted record for the lifetime of the run (and allocates a
			// fresh lockState per insert), which sinks long ops-bounded
			// runs on insert-heavy workloads.
			delete(d.locks, lk)
			d.lockPool = append(d.lockPool, ls)
			continue
		}
		for _, w := range waiters {
			d.scheduleWake(w)
		}
	}
	t.held = t.held[:0]
}

func (d *driver) getLockState() *lockState {
	if n := len(d.lockPool); n > 0 {
		ls := d.lockPool[n-1]
		d.lockPool = d.lockPool[:n-1]
		return ls
	}
	return &lockState{}
}
