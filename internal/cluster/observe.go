package cluster

import "slices"

// Observation mode: a full randomized run (any Mode, any FaultPlan) that
// records, per executed command of every transaction instance, the same
// DirectedObs records the directed scheduler produces — which batches the
// command's local view contained, which fields it read, which writes it
// made. internal/replay derives the execution's Adya-style dependency
// graph from these and counts violation instances, which is what the
// chaos harness points at faulted executions. There is one recorder and it
// sits on the executor every run uses: the frame lists what a command read
// (cframe.observe), crecord names it.
//
// Views here are positional: each replica keeps an apply log of batch
// references, and a command's view is the log prefix of its replica at
// execution time — exactly the batches merged into the state it read.
// SC attempts buffer their records and flush at commit with the commit
// timestamp (one log entry per writing command, all sharing the batch
// timestamp: atomic visibility); aborted attempts are discarded, matching
// their rolled-back writes. EC statements record immediately: their
// writes apply and replicate before the transaction finishes, so they are
// visible to others whether or not the closed loop reaches the end.

// Observation receives a run's observation records (Config.Observe).
type Observation struct {
	// Obs is one record per executed command, in execution order.
	Obs []DirectedObs
	// Txns names the transaction of each instance id.
	Txns []string
}

// obsState is the driver's observation recorder.
type obsState struct {
	d    *driver
	logs [3][]BatchRef // per-replica applied batches, in apply order
	obs  []DirectedObs
	txns []string
}

func newObsState(d *driver) *obsState { return &obsState{d: d} }

// beginTxn assigns the client's next instance id (called from nextTxn).
func (o *obsState) beginTxn(c *client, name string) {
	c.obsInst = len(o.txns)
	o.txns = append(o.txns, name)
	c.pend = c.pend[:0]
}

// crecord builds the record of the command fr just executed at replica rep.
// The view is the replica's apply log as it stands — nothing is logged
// between a command's execution and its record — and full-slice expressions
// keep it immutable as the log grows.
func (o *obsState) crecord(c *client, fr *cframe, rep int, writes []cwrite, ts int64) DirectedObs {
	cmd := fr.executed()
	ms := o.d.replicas[rep].state
	n := len(o.logs[rep])
	return DirectedObs{
		Inst:   c.obsInst,
		Cmd:    int(cmd.idx),
		TS:     ts,
		View:   o.logs[rep][:n:n],
		Reads:  ms.namedReads(nil, cmd.tid, fr.reads),
		Writes: ms.namedWrites(nil, writes),
	}
}

// recordEC records one EC statement immediately and, when it wrote, appends
// its batch to the home replica's apply log, returning the ref to ship with
// replication.
func (o *obsState) recordEC(ob DirectedObs, rep int) []BatchRef {
	o.obs = append(o.obs, ob)
	if len(ob.Writes) == 0 {
		return nil
	}
	o.logs[rep] = append(o.logs[rep], BatchRef{Inst: ob.Inst, Cmd: ob.Cmd, TS: ob.TS})
	return o.logs[rep][len(o.logs[rep])-1:]
}

// flushSC publishes a committed SC attempt's buffered records: writing
// commands get the commit timestamp and one apply-log entry each (shared
// timestamp — the batch is atomically visible), and the refs return for
// replication to mirror into the secondaries' logs.
func (o *obsState) flushSC(c *client, ts int64) []BatchRef {
	start := len(o.logs[primary])
	for i := range c.pend {
		if len(c.pend[i].Writes) > 0 {
			c.pend[i].TS = ts
			o.logs[primary] = append(o.logs[primary], BatchRef{
				Inst: c.pend[i].Inst, Cmd: c.pend[i].Cmd, TS: ts,
			})
		}
		o.obs = append(o.obs, c.pend[i])
	}
	c.pend = c.pend[:0]
	return o.logs[primary][start:len(o.logs[primary]):len(o.logs[primary])]
}

// delivered mirrors a replicated batch's refs into the receiving
// replica's apply log (called inside the delivery event, after the apply).
func (o *obsState) delivered(rep int, refs []BatchRef) {
	o.logs[rep] = append(o.logs[rep], refs...)
}

// namedReads appends a command's recorded reads on table tid to dst in the
// name-based form records carry: a slot becomes its key through the
// directory, once per command.
func (ms *MatStore) namedReads(dst []ReadObs, tid int32, reads []cread) []ReadObs {
	t := &ms.tabs[tid]
	dst = slices.Grow(dst, len(reads))
	for _, r := range reads {
		dst = append(dst, ReadObs{Table: t.ct.name, Key: t.dir.name(r.slot), Field: t.ct.fields[r.fid]})
	}
	return dst
}

// namedWrites does the same for the writes a command produced.
func (ms *MatStore) namedWrites(dst []WriteOp, ws []cwrite) []WriteOp {
	dst = slices.Grow(dst, len(ws))
	for _, w := range ws {
		t := &ms.tabs[w.tid]
		dst = append(dst, WriteOp{Table: t.ct.name, Key: t.dir.name(w.slot), Field: t.ct.fields[w.fid], Val: w.val})
	}
	return dst
}
