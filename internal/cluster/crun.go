package cluster

// Driving the executor through a simulated run: persistent state machines, so
// steady-state execution allocates no closure per statement. Each client owns
// one cframe, one EC tick closure, and one reusable SC run; replication
// batches and their delivery events come from driver pools. The virtual-time
// events scheduled here are the contract the tests' AST reference
// (reference_run_test.go) is compared on, event for event.

// ecStep advances the client's EC transaction by one phase:
// 0 = advance control flow and ship the next statement to the home replica,
// 1 = queue on the replica's station, 2 = execute, apply, and replicate.
// Each statement is one client-replica round trip plus service time; writes
// apply locally and replicate asynchronously with LWW merging.
func (c *client) ecStep() {
	d := c.d
	if d.execErr != nil {
		return
	}
	r := d.replicas[c.home]
	v := cview{ms: r.state}
	switch c.ecPhase {
	case 0:
		cmd, err := c.fr.advance()
		if err != nil {
			d.fail(err)
			return
		}
		if cmd == nil {
			c.finishFn()
			return
		}
		c.ecPhase = 1
		d.sim.At(d.ecDelay(r.id), c.ecTick)
	case 1:
		done := r.station.serve(d.sim.Now(), stmtCost)
		c.ecPhase = 2
		d.sim.At(done-d.sim.Now(), c.ecTick)
	default:
		writes, err := c.fr.exec(v, d.uuid)
		if err != nil {
			d.fail(err)
			return
		}
		ts := d.tsAt(r.id)
		r.state.applyC(writes, ts)
		if d.cfg.Trace != nil && len(writes) > 0 {
			d.cfg.Trace.applyC(d.sim.Now(), r.id, ts, r.state, writes)
		}
		var refs []BatchRef
		if d.obs != nil {
			refs = d.obs.recordEC(d.obs.crecord(c, c.fr, r.id, writes, ts), r.id)
		}
		d.creplicate(r.id, writes, ts, refs)
		c.ecPhase = 0
		d.sim.At(d.cfg.Topology.ClientRTT/2, c.ecTick)
	}
}

func (c *client) startEC(ct *ctxn) {
	if err := c.fr.reset(ct, c.args.Len(), c.args.Lookup); err != nil {
		c.d.fail(err)
		return
	}
	c.ecPhase = 0
	c.ecStep()
}

// startSC launches (or relaunches) the client's reusable SC run.
func (c *client) startSC(ct *ctxn) {
	if c.scRun == nil {
		t := &cTxnRun{c: c}
		c.d.register(&t.lockCore)
		t.lockCore.onAbort = t.abort
		t.fr = newCFrame(c.d.cp)
		t.fr.observe = c.d.obs != nil
		t.ov = newCOverlay(c.d.replicas[primary].state)
		t.stepF = t.step
		t.execF = t.exec
		t.contF = t.cont
		t.beginF = t.begin
		c.scRun = t
	}
	c.scRun.ct = ct
	c.scRun.begin()
}

// cTxnRun is one SC transaction attempt: statements execute at the primary
// under two-phase record locking with writes buffered in an overlay; lock
// waits that exceed the timeout abort and retry the whole transaction.
type cTxnRun struct {
	lockCore
	c    *client
	ct   *ctxn
	fr   *cframe
	ov   *coverlay
	want []lockKey
	wbuf []cwrite
	// Bound once; rescheduled for every statement of every attempt.
	stepF, execF, contF, beginF func()
}

func (t *cTxnRun) begin() {
	d := t.c.d
	t.gen++
	if err := t.fr.reset(t.ct, t.c.args.Len(), t.c.args.Lookup); err != nil {
		d.fail(err)
		return
	}
	t.ov.reset()
	t.held = t.held[:0]
	t.c.pend = t.c.pend[:0] // an aborted attempt's observation records
	// Client → primary (deferred to recovery while the primary is down).
	d.sim.At(d.scDelay(t.c), t.stepF)
}

func (t *cTxnRun) view() cview {
	return cview{ms: t.c.d.replicas[primary].state, ov: t.ov}
}

// step advances one statement: footprint → locks → service → execute.
func (t *cTxnRun) step() {
	d := t.c.d
	if d.execErr != nil {
		return
	}
	cmd, err := t.fr.advance()
	if err != nil {
		d.fail(err)
		return
	}
	if cmd == nil {
		t.commit()
		return
	}
	tid, slots, err := t.fr.footprint(t.view(), d.uuid)
	if err != nil {
		d.fail(err)
		return
	}
	t.want = t.want[:0]
	for _, slot := range slots {
		t.want = append(t.want, lockKey{tid, slot})
	}
	t.acquire(t.want, t.contF)
}

// cont runs once the statement's locks are held: queue at the primary.
func (t *cTxnRun) cont() {
	d := t.c.d
	r := d.replicas[primary]
	done := r.station.serve(d.sim.Now()+stmtOverhead, stmtCost)
	d.sim.At(done-d.sim.Now(), t.execF)
}

// exec executes the pending statement against the overlay view.
func (t *cTxnRun) exec() {
	d := t.c.d
	writes, err := t.fr.exec(t.view(), d.uuid)
	if err != nil {
		d.fail(err)
		return
	}
	for _, w := range writes {
		t.ov.buffer(w)
	}
	if d.obs != nil {
		// Buffered until the attempt commits (flushSC sets the timestamp).
		t.c.pend = append(t.c.pend, d.obs.crecord(t.c, t.fr, primary, writes, 0))
	}
	if len(writes) > 0 {
		// Majority acknowledgement round trip per write statement.
		d.sim.At(d.ackDelay(), t.stepF)
	} else {
		t.step()
	}
}

func (t *cTxnRun) abort() {
	d := t.c.d
	d.countAbort()
	if d.cfg.Trace != nil {
		d.cfg.Trace.abort(d.sim.Now(), t.c.id, t.ct.name)
	}
	t.abortLocks()
	// Retry after a short randomized backoff.
	back := int64(d.rng.Intn(4000) + 500)
	d.sim.At(back, t.beginF)
}

// commit applies the buffered writes at the primary, replicates them, and
// replies to the client.
func (t *cTxnRun) commit() {
	d := t.c.d
	t.wbuf = t.ov.commitWrites(t.wbuf[:0])
	ts := d.tsAt(primary)
	d.replicas[primary].state.applyC(t.wbuf, ts)
	if d.cfg.Trace != nil && len(t.wbuf) > 0 {
		d.cfg.Trace.applyC(d.sim.Now(), primary, ts, d.replicas[primary].state, t.wbuf)
	}
	var refs []BatchRef
	if d.obs != nil {
		refs = d.obs.flushSC(t.c, ts)
	}
	d.creplicate(primary, t.wbuf, ts, refs)
	t.release()
	d.sim.At(t.c.primaryRTT()/2, t.c.finishFn)
}

// repBatch is a replication payload shared by the deliveries to the other
// two replicas; it returns to the pool when the last delivery lands. obs
// (observed runs only) names the batch for the receivers' apply logs.
type repBatch struct {
	ops  []cwrite
	ts   int64
	obs  []BatchRef
	refs int
}

// repEv is one pooled delivery event with a pre-bound callback, so shipping
// a batch schedules no fresh closures.
type repEv struct {
	d     *driver
	tgt   *replica
	batch *repBatch
	fn    func()
}

func (d *driver) getBatch() *repBatch {
	if n := len(d.batchPool); n > 0 {
		b := d.batchPool[n-1]
		d.batchPool = d.batchPool[:n-1]
		return b
	}
	return &repBatch{}
}

func (d *driver) getRepEv() *repEv {
	if n := len(d.repPool); n > 0 {
		e := d.repPool[n-1]
		d.repPool = d.repPool[:n-1]
		return e
	}
	e := &repEv{d: d}
	e.fn = func() {
		// Applying remote ops consumes service capacity but blocks no one.
		e.tgt.station.serve(e.d.sim.Now(), stmtCost/2)
		e.tgt.state.applyC(e.batch.ops, e.batch.ts)
		if e.d.cfg.Trace != nil {
			e.d.cfg.Trace.applyC(e.d.sim.Now(), e.tgt.id, e.batch.ts, e.tgt.state, e.batch.ops)
		}
		if e.d.obs != nil {
			e.d.obs.delivered(e.tgt.id, e.batch.obs)
		}
		b := e.batch
		e.batch, e.tgt = nil, nil
		e.d.repPool = append(e.d.repPool, e)
		b.refs--
		if b.refs == 0 {
			b.ops = b.ops[:0]
			e.d.batchPool = append(e.d.batchPool, b)
		}
	}
	return e
}

// creplicate ships a write batch to the other replicas asynchronously.
func (d *driver) creplicate(from int, ws []cwrite, ts int64, obs []BatchRef) {
	if len(ws) == 0 {
		return
	}
	b := d.getBatch()
	b.ops = append(b.ops[:0], ws...)
	b.ts = ts
	b.obs = obs
	b.refs = 2
	for j := 0; j < 3; j++ {
		if j == from {
			continue
		}
		e := d.getRepEv()
		e.tgt = d.replicas[j]
		e.batch = b
		d.sim.At(d.repDelay(from, j), e.fn)
	}
}
