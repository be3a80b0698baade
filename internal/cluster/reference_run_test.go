package cluster

import (
	"sync"

	"atropos/internal/ast"
	"atropos/internal/store"
)

// The AST reference executor inside a simulated run: the statement drivers
// (runEC, txnRun) and the observation recorder (obsView and friends) that
// production code had until the compiled frame learnt to observe. A run
// whose Config.useInterpreter is set launches every transaction here,
// through refLaunch — the hook this file's init sets and production leaves
// nil. The event schedule, the fault hooks' call sites and the records are
// the reference the differential tests hold crun.go and observe.go to.

func init() {
	refLaunch = func(c *client, txn *ast.Txn, sc bool) {
		args := c.args.Map()
		var ro *refObs
		if c.d.obs != nil {
			ro = &refObs{o: c.d.obs, meta: metaFor(c.d.cfg.Program, txn)}
		}
		if sc {
			run := &txnRun{c: c, txn: txn, args: args, ro: ro}
			run.start(c.finishFn)
		} else {
			c.runEC(txn, args, c.finishFn, ro)
		}
	}
}

// runEC executes a transaction on the AST interpreter against the client's
// home replica: each statement is one client-replica round trip plus
// service time; writes apply locally and replicate asynchronously with LWW
// merging. This is the reference executor the compiled path is
// differential-tested against.
func (c *client) runEC(txn *ast.Txn, args map[string]store.Value, finish func(), ro *refObs) {
	d := c.d
	r := d.replicas[c.home]
	e := NewTxnExec(d.cfg.Program, txn, args)
	var step func()
	step = func() {
		if d.execErr != nil {
			return
		}
		cmd, err := e.Advance(r.state)
		if err != nil {
			d.fail(err)
			return
		}
		if cmd == nil {
			finish()
			return
		}
		// Client → replica, queue, execute, reply. A crashed home replica
		// defers the statement to its recovery (ecDelay).
		d.sim.At(d.ecDelay(r.id), func() {
			done := r.station.serve(d.sim.Now(), stmtCost)
			d.sim.At(done-d.sim.Now(), func() {
				view := DBView(r.state)
				var ov *obsView
				if d.obs != nil {
					ov = ro.wrap(cmd, r.state, r.id)
					if ov != nil {
						view = ov
					}
				}
				writes, err := e.Exec(view, d.uuid)
				if err != nil {
					d.fail(err)
					return
				}
				ts := d.tsAt(r.id)
				for _, w := range writes {
					r.state.Apply(w, ts)
				}
				if d.cfg.Trace != nil && len(writes) > 0 {
					d.cfg.Trace.applyOps(d.sim.Now(), r.id, ts, writes)
				}
				var refs []BatchRef
				if d.obs != nil {
					refs = ro.recordEC(c, ov, writes, ts)
				}
				c.replicate(r.id, writes, ts, refs)
				d.sim.At(d.cfg.Topology.ClientRTT/2, step)
			})
		})
	}
	step()
}

// replicate ships interpreter writes to the other replicas
// asynchronously; refs (observation mode only) mirror the batch into the
// receivers' apply logs at delivery.
func (c *client) replicate(from int, writes []WriteOp, ts int64, refs []BatchRef) {
	if len(writes) == 0 {
		return
	}
	d := c.d
	for j := 0; j < 3; j++ {
		if j == from {
			continue
		}
		target := d.replicas[j]
		ws := writes
		d.sim.At(d.repDelay(from, j), func() {
			// Applying remote ops consumes service capacity but blocks
			// no one.
			target.station.serve(d.sim.Now(), stmtCost/2)
			for _, w := range ws {
				target.state.Apply(w, ts)
			}
			if d.cfg.Trace != nil {
				d.cfg.Trace.applyOps(d.sim.Now(), target.id, ts, ws)
			}
			if d.obs != nil {
				d.obs.delivered(target.id, refs)
			}
		})
	}
}

// txnRun is one interpreter SC transaction attempt: statements execute at
// the primary under two-phase record locking with buffered writes; lock
// waits that exceed the timeout abort and retry the whole transaction.
type txnRun struct {
	lockCore
	c       *client
	txn     *ast.Txn
	args    map[string]store.Value
	e       *TxnExec
	overlay *Overlay
	finish  func()
	ro      *refObs // nil unless the run is observed
}

func (t *txnRun) start(finish func()) {
	t.lockCore.d = t.c.d
	t.lockCore.onAbort = t.abort
	t.finish = finish
	t.begin()
}

func (t *txnRun) begin() {
	d := t.c.d
	t.gen++
	t.e = NewTxnExec(d.cfg.Program, t.txn, t.args)
	t.overlay = NewOverlay(d.replicas[primary].state)
	t.held = t.held[:0]
	if d.obs != nil {
		t.c.pend = t.c.pend[:0] // discard any aborted attempt's records
	}
	// Client → primary (deferred to recovery while the primary is down).
	d.sim.At(d.scDelay(t.c), t.step)
}

// step advances one statement: footprint → locks → service → execute.
func (t *txnRun) step() {
	d := t.c.d
	if d.execErr != nil {
		return
	}
	cmd, err := t.e.Advance(t.overlay)
	if err != nil {
		d.fail(err)
		return
	}
	if cmd == nil {
		t.commit()
		return
	}
	table, keys, _, err := t.e.Footprint(t.overlay, d.uuid)
	if err != nil {
		d.fail(err)
		return
	}
	tid := d.cp.tableID[table] // Footprint succeeded, so the table exists
	dir := d.replicas[primary].state.tabs[tid].dir
	var want []lockKey
	for _, k := range keys {
		want = append(want, lockKey{tid, dir.intern(k)})
	}
	t.acquire(want, func() {
		r := d.replicas[primary]
		done := r.station.serve(d.sim.Now()+stmtOverhead, stmtCost)
		d.sim.At(done-d.sim.Now(), func() {
			view := DBView(t.overlay)
			var ov *obsView
			if d.obs != nil {
				ov = t.ro.wrap(cmd, t.overlay, primary)
				if ov != nil {
					view = ov
				}
			}
			writes, err := t.e.Exec(view, d.uuid)
			if err != nil {
				d.fail(err)
				return
			}
			for _, w := range writes {
				t.overlay.Buffer(w)
			}
			if d.obs != nil {
				t.ro.recordSC(t.c, ov, writes)
			}
			if len(writes) > 0 {
				// Majority acknowledgement round trip per write statement.
				d.sim.At(d.ackDelay(), t.step)
			} else {
				t.step()
			}
		})
	})
}

func (t *txnRun) abort() {
	d := t.c.d
	d.countAbort()
	if d.cfg.Trace != nil {
		d.cfg.Trace.abort(d.sim.Now(), t.c.id, t.txn.Name)
	}
	t.abortLocks()
	// Retry after a short randomized backoff.
	back := int64(d.rng.Intn(4000) + 500)
	d.sim.At(back, t.begin)
}

// commit applies the buffered writes at the primary, replicates them, and
// replies to the client.
func (t *txnRun) commit() {
	d := t.c.d
	writes := t.overlay.Writes()
	ts := d.tsAt(primary)
	for _, w := range writes {
		d.replicas[primary].state.Apply(w, ts)
	}
	if d.cfg.Trace != nil && len(writes) > 0 {
		d.cfg.Trace.applyOps(d.sim.Now(), primary, ts, writes)
	}
	var refs []BatchRef
	if d.obs != nil {
		refs = d.obs.flushSC(t.c, ts)
	}
	t.c.replicate(primary, writes, ts, refs)
	t.release()
	d.sim.At(t.c.primaryRTT()/2, t.finish)
}

// obsTxnMeta is the per-transaction static command metadata: command
// indices and per-command read sets, mirroring the directed scheduler.
type obsTxnMeta struct {
	cmdIdx  map[ast.DBCommand]int
	readSet []map[string]bool
	tables  []string
}

// refObs is one launched transaction's recording state: its static command
// metadata, the reusable recording view, and the run's recorder.
type refObs struct {
	o    *obsState
	meta *obsTxnMeta
	view obsView
}

// metas caches metaFor by transaction: the metadata is static, and the
// production recorder no longer has a field to keep it in.
var metas sync.Map // *ast.Txn → *obsTxnMeta

// metaFor lazily builds the static command metadata of one transaction.
func metaFor(prog *ast.Program, txn *ast.Txn) *obsTxnMeta {
	if m, ok := metas.Load(txn); ok {
		return m.(*obsTxnMeta)
	}
	cmds := ast.Commands(txn.Body)
	m := &obsTxnMeta{
		cmdIdx:  make(map[ast.DBCommand]int, len(cmds)),
		readSet: make([]map[string]bool, len(cmds)),
		tables:  make([]string, len(cmds)),
	}
	for i, c := range cmds {
		m.cmdIdx[c] = i
		// A table the program lacks never gets here: the run compiles first.
		schema := prog.Schema(c.TableName())
		rs := map[string]bool{}
		for _, f := range ast.CommandAccess(c, schema).Reads {
			rs[f] = true
		}
		switch c.(type) {
		case *ast.Select, *ast.Update:
			rs[ast.AliveField] = true
		}
		m.readSet[i] = rs
		m.tables[i] = c.TableName()
	}
	metas.Store(txn, m)
	return m
}

// wrap prepares the reusable recording view for one command executing at
// replica rep against inner; nil when the command is unmapped (a defect —
// the run fails through metaFor's error).
func (ro *refObs) wrap(cmd ast.DBCommand, inner DBView, rep int) *obsView {
	cidx, ok := ro.meta.cmdIdx[cmd]
	if !ok {
		return nil
	}
	v := &ro.view
	v.inner = inner
	v.table = ro.meta.tables[cidx]
	v.fields = ro.meta.readSet[cidx]
	v.reads = v.reads[:0]
	v.cidx = cidx
	v.rep = rep
	v.prefix = len(ro.o.logs[rep])
	return v
}

// record builds the command's observation record. The view is the apply
// log prefix of the executing replica at execution time; full-slice
// expressions keep it immutable as the log grows.
func (ro *refObs) record(c *client, v *obsView, writes []WriteOp, ts int64) DirectedObs {
	return DirectedObs{
		Inst:   c.obsInst,
		Cmd:    v.cidx,
		TS:     ts,
		View:   ro.o.logs[v.rep][:v.prefix:v.prefix],
		Reads:  append([]ReadObs(nil), v.reads...),
		Writes: writes,
	}
}

// recordEC records one EC statement immediately; logging the batch is the
// production recorder's recordEC, which both executors share.
func (ro *refObs) recordEC(c *client, v *obsView, writes []WriteOp, ts int64) []BatchRef {
	if v == nil {
		return nil
	}
	return ro.o.recordEC(ro.record(c, v, writes, ts), v.rep)
}

// recordSC buffers one SC statement's record on the client until the
// attempt commits (TS is patched then) or aborts (the buffer is simply
// cleared at the next begin).
func (ro *refObs) recordSC(c *client, v *obsView, writes []WriteOp) {
	if v == nil {
		return
	}
	c.pend = append(c.pend, ro.record(c, v, writes, 0))
}

// obsView wraps a command's execution view, recording reads filtered to
// the command's static read set (the executor materializes whole rows
// while scanning; the detector's encoding only reads these fields).
type obsView struct {
	inner  DBView
	table  string
	fields map[string]bool
	reads  []ReadObs
	cidx   int
	rep    int
	prefix int
}

// Schema implements DBView.
func (v *obsView) Schema(table string) *ast.Schema { return v.inner.Schema(table) }

// Keys implements DBView.
func (v *obsView) Keys(table string) []store.Key { return v.inner.Keys(table) }

// Read implements DBView, recording filtered observations.
func (v *obsView) Read(table string, key store.Key, field string) store.Value {
	if table == v.table && v.fields[field] {
		v.reads = append(v.reads, ReadObs{Table: table, Key: key, Field: field})
	}
	return v.inner.Read(table, key, field)
}

// Alive implements DBView, delegating to the wrapped view's semantics and
// recording the presence check as an alive-field read (phantom
// dependencies flow through the alive field).
func (v *obsView) Alive(table string, key store.Key) bool {
	if table == v.table && v.fields[ast.AliveField] {
		v.reads = append(v.reads, ReadObs{Table: table, Key: key, Field: ast.AliveField})
	}
	return v.inner.Alive(table, key)
}
