package cluster

// Record locking: an SC attempt (cTxnRun, and the AST reference's run in the
// tests) embeds a lockCore, so lock ownership, FIFO waiting, deadlock
// detection, and timeout arbitration are written once.
//
// The lock table is the driver's locks[tid][slot]: one lockState per slot of
// the table's directory (tableDir), so taking or freeing a record lock is an
// array index and hashes nothing. A table's array exists only once an SC
// statement has locked a record of it, reaches as far as the highest slot
// locked — so never past the directory — and costs 8 bytes a slot, pointer-
// free; an entry nobody owns or waits for is the zero value.

// lockKey names a record by compiled table id and directory slot, resolved
// once per statement.
type lockKey struct {
	tid, slot int32
}

// lockState is one record's lock: its owner, as 1 + the index of its core
// in driver.cores, and its FIFO of waiters, as 1 + the index of a queue in
// driver.queues; 0 is none. A queue is drained and returned to the pool
// whenever its record is freed, so a hot record's next contention reuses
// some drained queue's array.
type lockState struct {
	owner, waiters int32
}

// lock returns lk's entry, growing the table's array to reach it. The
// pointer is good until the next call.
func (d *driver) lock(lk lockKey) *lockState {
	tab := d.locks[lk.tid]
	if n := int(lk.slot) + 1 - len(tab); n > 0 {
		tab = append(grown(tab, n), make([]lockState, n)...)
		d.locks[lk.tid] = tab
	}
	return &tab[lk.slot]
}

// register gives t, a core of d, its id: lock entries name their owner by
// it.
func (d *driver) register(t *lockCore) {
	t.d = d
	d.cores = append(d.cores, t)
	t.id = int32(len(d.cores))
}

// enqueue appends w to ls's waiters, taking a queue from the pool for its
// first.
func (d *driver) enqueue(ls *lockState, w waiter) {
	if ls.waiters == 0 {
		if n := len(d.freeQueues); n > 0 {
			ls.waiters = d.freeQueues[n-1]
			d.freeQueues = d.freeQueues[:n-1]
		} else {
			d.queues = append(d.queues, nil)
			ls.waiters = int32(len(d.queues))
		}
	}
	q := &d.queues[ls.waiters-1]
	*q = append(*q, w)
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
	id        int32 // 1 + its index in d.cores (register)
	gen       int   // invalidates stale wakeups/timeouts after abort
	waitEpoch int   // distinguishes successive waits within one attempt
	waiting   bool
	blockedOn lockKey // the lock this run is waiting for, while waiting
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
		ls := d.lock(lk)
		if ls.owner == 0 || ls.owner == t.id {
			if ls.owner == 0 {
				ls.owner = t.id
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
		d.enqueue(ls, waiter{c: t, gen: t.gen})
		t.waiting = true
		t.blockedOn = lk
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
	// An SC transaction waits this long for a record lock, then aborts.
	d.sim.At(8*d.cfg.Topology.majorityRTT(primary)+20_000, e.fn)
}

// wouldDeadlock reports whether waiting on ls closes a wait-for cycle
// through us.
func (t *lockCore) wouldDeadlock(ls *lockState) bool {
	d := t.d
	cur := ls.owner
	for hops := 0; cur != 0 && hops < 64; hops++ {
		if cur == t.id {
			return true
		}
		c := d.cores[cur-1]
		if !c.waiting {
			return false
		}
		cur = d.lock(c.blockedOn).owner
	}
	return false
}

// abortLocks is the common abort bookkeeping: clear the wait, free the
// held locks, and invalidate outstanding wakeups/timeouts.
func (t *lockCore) abortLocks() {
	t.waiting = false
	t.release()
	t.gen++
}

func (t *lockCore) release() {
	d := t.d
	for _, lk := range t.held {
		ls := d.lock(lk)
		if ls.owner != t.id {
			continue
		}
		// Free, with no waiters: the woken ones queue again if they lose
		// (scheduleWake only schedules).
		ls.owner = 0
		if q := ls.waiters; q != 0 {
			ls.waiters = 0
			waiters := d.queues[q-1]
			for _, w := range waiters {
				d.scheduleWake(w)
			}
			clear(waiters)
			d.queues[q-1] = waiters[:0]
			d.freeQueues = append(d.freeQueues, q)
		}
	}
	t.held = t.held[:0]
}
