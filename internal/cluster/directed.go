package cluster

import (
	"fmt"

	"atropos/internal/ast"
	"atropos/internal/store"
)

// This file implements the simulator's directed scheduler mode: instead of
// a randomized open-loop workload, exactly two transaction instances run
// under a caller-supplied interleaving (which command executes at which
// slot) and a caller-supplied per-command visibility relation (which of the
// other instance's write batches each command's local view contains). It is
// the execution backend for internal/replay, which lowers the anomaly
// detector's witness schedules — ord as the slot order, vis as the view
// contents — into concrete runs and checks that the statically claimed
// dependency cycle manifests. The run records, per executed command, the
// version of every relevant field it read (with the batch that wrote it)
// and every write it produced, so the caller can rebuild the dynamic
// dependency graph.
//
// Semantics match an EC client: a command sees the seeded base state, all of
// its own instance's earlier writes, and exactly the other-instance batches
// the visibility relation grants it, merged last-writer-wins in timestamp
// order. EC places no monotonicity
// constraint on views ("arbitrary subsets of committed batches"), so each
// command's view is built independently — exactly the freedom the static
// encoding's vis relation has.
//
// Certification replays one program thousands of times, so what a run needs
// is split by lifetime: a DirectedPlan holds what depends on the program
// alone and the executor state every run reuses, a base store seeded once
// per set of rows is shared read-only by every run over those rows, and a
// run allocates only its result.

// DirectedPlan is the static half of a program's directed runs: the table
// layout base stores are addressed by, each transaction compiled on first
// use, and the two frames and the overlay its runs execute on — the frames
// are the simulator's own, observing. A plan is not safe for concurrent use.
type DirectedPlan struct {
	prog *ast.Program
	cp   *Compiled
	fr   [2]*cframe
	ov   *coverlay // pointed at each run's base
}

// NewDirectedPlan prepares directed runs of prog.
func NewDirectedPlan(prog *ast.Program) *DirectedPlan {
	p := &DirectedPlan{prog: prog, cp: compileLayout(prog)}
	p.ov = &coverlay{tabs: make([]covTab, len(p.cp.tables))}
	for i := range p.fr {
		p.fr[i] = newCFrame(p.cp)
		p.fr[i].observe = true
	}
	return p
}

// Program returns the program the plan runs.
func (p *DirectedPlan) Program() *ast.Program { return p.prog }

// Seed builds a base state holding rows (alive, timestamp 0). Runs only
// read it, so one base serves every run that starts from the same rows.
func (p *DirectedPlan) Seed(rows []store.TableRow) (*MatStore, error) {
	base := newMatStore(p.cp)
	for _, row := range rows {
		if err := base.Load(row.Table, row.Row); err != nil {
			return nil, err
		}
	}
	return base, nil
}

// txn returns the named transaction, compiling it on first use.
func (p *DirectedPlan) txn(name string) (*ctxn, error) {
	if ct := p.cp.txns[name]; ct != nil {
		return ct, nil
	}
	txn := p.prog.Txn(name)
	if txn == nil {
		return nil, fmt.Errorf("cluster: directed: unknown transaction %q", name)
	}
	return p.cp.compileTxn(txn)
}

// DirectedTxn names one transaction instance and its arguments.
type DirectedTxn struct {
	Name string
	Args map[string]store.Value
}

// DirectedStep pins one slot of the interleaving: instance Inst executes
// its static command Cmd (index into ast.Commands of the transaction
// body). Commands a branch skips dynamically give up their slot; commands
// that repeat under iterate execute within their slot until the dynamic
// stream moves past it.
type DirectedStep struct {
	Inst int
	Cmd  int
}

// DirectedConfig describes one directed two-transaction run over a seeded
// base.
type DirectedConfig struct {
	Txns [2]DirectedTxn
	// Steps is the slot order; typically one slot per static command of
	// both instances, in the witness schedule's ord order.
	Steps []DirectedStep
	// Vis reports whether the writes of the other instance's static
	// command (fromInst, fromCmd) are in the local view of (toInst, toCmd).
	// nil means nothing cross-instance is ever visible.
	Vis func(fromInst, fromCmd, toInst, toCmd int) bool
	// MaxOps bounds executed commands (default 4096) so adversarial
	// iterate counts cannot hang a replay.
	MaxOps int
}

// ReadObs is one observed field read of one record.
type ReadObs struct {
	Table string
	Key   store.Key
	Field string
}

// BatchRef identifies one applied write batch: the static command that
// produced it and its merge timestamp.
type BatchRef struct {
	Inst int
	Cmd  int
	TS   int64
}

// DirectedObs is one executed command's observation record: the batches
// its local view contained (the realized vis relation), the fields it read
// from which records, and the writes it produced. Together these let the
// caller derive the execution's Adya-style dependency edges exactly as the
// static encoding defines them — wr on view containment, ww on timestamp
// order, rw on view non-containment.
type DirectedObs struct {
	Inst   int
	Cmd    int
	At     int64 // virtual time of the command's slot (µs; directed runs only)
	TS     int64 // apply timestamp of this command's write batch
	View   []BatchRef
	Reads  []ReadObs
	Writes []WriteOp
}

// DirectedResult is a directed run's outcome.
type DirectedResult struct {
	Obs  []DirectedObs
	Done [2]bool // instance ran its transaction to completion
	Ret  [2]store.Value
}

// Trace renders the run as the simulator's canonical event log: one line
// per applied write batch at its slot's virtual time, then the two commits.
// Rendering is apart from running because only a run someone keeps — the
// one attempt in a ladder that reproduces — is ever read.
func (res *DirectedResult) Trace(txns [2]DirectedTxn) []string {
	tr := &Trace{}
	var end int64
	for i := range res.Obs {
		o := &res.Obs[i]
		end = o.At
		if len(o.Writes) > 0 {
			tr.applyOps(o.At, o.Inst, o.TS, o.Writes)
		}
	}
	for inst := range txns {
		tr.commit(end, inst, txns[inst].Name, true)
	}
	return tr.Events
}

// appliedBatch is one executed command's writes, a range of directedRun.cw.
type appliedBatch struct {
	inst, cmd int
	ts        int64
	lo, hi    int
}

// directedRun is one run's state. A command's local view is the shared base
// under the plan's overlay, holding the visible batches' writes: batches
// carry strictly increasing timestamps over a timestamp-0 base, so
// buffering them in order is last-writer-wins. Control flow needs no view —
// advance reads no store.
type directedRun struct {
	cfg     DirectedConfig
	v       cview
	fr      [2]*cframe
	batches []appliedBatch // timestamp order
	cw      []cwrite       // the batches' writes, back to back
	uuid    UUIDGen
	now     int64 // virtual time: one slot per executed command
	seq     int64
	obs     []DirectedObs
}

// directedSlotGap is the virtual time between slots (µs), giving trace
// events distinct, human-readable timestamps.
const directedSlotGap = 1000

// testHookDirected, set by this package's tests only, sees every executed
// command's record while its view is still in place, and — ob nil — the end
// of every run that did not fail.
var testHookDirected func(r *directedRun, ob *DirectedObs)

// Run executes one directed two-transaction run over base, a state this
// plan seeded; base is read, never written.
func (p *DirectedPlan) Run(base *MatStore, cfg DirectedConfig) (*DirectedResult, error) {
	if base.cp != p.cp {
		return nil, fmt.Errorf("cluster: directed: base was seeded by another plan")
	}
	if cfg.MaxOps <= 0 {
		cfg.MaxOps = 4096
	}
	p.ov.reset()
	p.ov.ms = base
	r := &directedRun{
		cfg: cfg, v: cview{ms: base, ov: p.ov}, fr: p.fr,
		obs: make([]DirectedObs, 0, len(cfg.Steps)),
	}
	for inst, fr := range r.fr {
		ct, err := p.txn(cfg.Txns[inst].Name)
		if err != nil {
			return nil, err
		}
		if err := fr.reset(ct, len(cfg.Txns[inst].Args), mapArg(cfg.Txns[inst].Args)); err != nil {
			return nil, err
		}
	}

	executed := 0
	step := func(inst int) error {
		executed++
		if executed > cfg.MaxOps {
			return fmt.Errorf("cluster: directed: schedule exceeded %d operations", cfg.MaxOps)
		}
		return r.execOne(inst)
	}
	for i := 0; i < len(cfg.Steps); {
		st := cfg.Steps[i]
		if st.Inst < 0 || st.Inst > 1 {
			return nil, fmt.Errorf("cluster: directed: bad step instance %d", st.Inst)
		}
		fr := r.fr[st.Inst]
		if fr.done {
			i++
			continue
		}
		cmd, err := fr.advance()
		if err != nil {
			return nil, err
		}
		if cmd == nil {
			i++
			continue
		}
		if int(cmd.idx) > st.Cmd {
			// The dynamic stream already passed this slot's command (a branch
			// skipped it): the slot is forfeited.
			i++
			continue
		}
		// cmd.idx <= st.Cmd: execute. An earlier command catching up (iterate
		// repeats) keeps the slot until the stream reaches it.
		if err := step(st.Inst); err != nil {
			return nil, err
		}
		if int(cmd.idx) == st.Cmd {
			i++
		}
	}
	// Drain: run both instances to completion (commands past the last slot
	// keep their own static visibility rows; only their relative order with
	// the other instance is no longer pinned).
	for inst, fr := range r.fr {
		for !fr.done {
			cmd, err := fr.advance()
			if err != nil {
				return nil, err
			}
			if cmd == nil {
				break
			}
			if err := step(inst); err != nil {
				return nil, err
			}
		}
	}
	out := &DirectedResult{Obs: r.obs}
	for inst, fr := range r.fr {
		out.Done[inst] = fr.done
		out.Ret[inst] = fr.ret
	}
	if testHookDirected != nil {
		testHookDirected(r, nil)
	}
	return out, nil
}

// execOne executes the pending command of inst in the next slot — on base,
// its own earlier batches and the visible other-instance batches, merged in
// timestamp order — recording its observations and publishing its writes.
func (r *directedRun) execOne(inst int) error {
	r.now += directedSlotGap
	fr := r.fr[inst]
	cmd, err := fr.advance()
	if err != nil || cmd == nil {
		return err
	}
	cidx := int(cmd.idx)
	r.v.ov.reset()
	var view []BatchRef
	if n := len(r.batches); n > 0 {
		view = make([]BatchRef, 0, n)
	}
	for _, b := range r.batches {
		if b.inst == inst || (r.cfg.Vis != nil && r.cfg.Vis(b.inst, b.cmd, inst, cidx)) {
			for _, w := range r.cw[b.lo:b.hi] {
				r.v.ov.buffer(w)
			}
			view = append(view, BatchRef{Inst: b.inst, Cmd: b.cmd, TS: b.ts})
		}
	}
	writes, err := fr.exec(r.v, &r.uuid)
	if err != nil {
		return err
	}
	r.seq++
	ts := r.seq
	r.obs = append(r.obs, DirectedObs{
		Inst: inst, Cmd: cidx, At: r.now, TS: ts, View: view,
		Reads:  r.v.ms.namedReads(nil, cmd.tid, fr.reads),
		Writes: r.v.ms.namedWrites(nil, writes),
	})
	if len(writes) > 0 {
		r.batches = append(r.batches, appliedBatch{inst: inst, cmd: cidx, ts: ts, lo: len(r.cw), hi: len(r.cw) + len(writes)})
		r.cw = append(r.cw, writes...)
	}
	if testHookDirected != nil {
		testHookDirected(r, &r.obs[len(r.obs)-1])
	}
	return nil
}

// FinalState returns the state the run converges to: a copy of base (the
// state it ran over, or another base of the plan) with its batches applied
// in timestamp order and stamped after everything base holds — the run's
// views read base as older than any batch, whatever timestamps it carries.
// base is not written; a key its directory lacks enters the directory base
// shares with the copy.
func (res *DirectedResult) FinalState(base *MatStore) *MatStore {
	out := base.Clone()
	off := out.clock()
	for i := range res.Obs {
		o := &res.Obs[i]
		for _, w := range o.Writes {
			tid, ct := out.cp.table(w.Table)
			t := &out.tabs[tid]
			t.put(t.dir.intern([]byte(w.Key)), ct.fieldID[w.Field], w.Val, off+o.TS)
		}
	}
	return out
}

// serialUUIDShift spaces the uuid() ranges of a serial run's calls: call i
// draws from -((i+1)<<20)-1 downwards, a directed run's instances from -1.
const serialUUIDShift = 20

// RunSerial executes calls one after another on ms, a state this plan
// seeded, and returns their return values: the serializable reference
// execution. Each command reads the whole state and its writes are applied
// before the next command runs, stamped after everything ms already holds.
// uuid() is scoped by call, so an original and a refactored program running
// the same calls name their records alike, and no two calls of the run, nor
// a call and a directed instance over the same state, draw the same value.
func (p *DirectedPlan) RunSerial(ms *MatStore, calls []DirectedTxn) ([]store.Value, error) {
	if ms.cp != p.cp {
		return nil, fmt.Errorf("cluster: serial: state was seeded by another plan")
	}
	fr, ts := newCFrame(p.cp), ms.clock()
	rets := make([]store.Value, len(calls))
	for i, c := range calls {
		var err error
		if ts, err = p.runCall(fr, ms, i, c, ts); err != nil {
			return nil, fmt.Errorf("call %d (%s): %w", i, c.Name, err)
		}
		rets[i] = fr.ret
	}
	return rets, nil
}

// runCall runs call i of a serial run to completion on fr, applying each
// command's writes to ms at the timestamp after ts, and returns the last one
// used.
func (p *DirectedPlan) runCall(fr *cframe, ms *MatStore, i int, c DirectedTxn, ts int64) (int64, error) {
	ct, err := p.txn(c.Name)
	if err != nil {
		return ts, err
	}
	if err := fr.reset(ct, len(c.Args), mapArg(c.Args)); err != nil {
		return ts, err
	}
	uuid := UUIDGen{next: int64(i+1) << serialUUIDShift}
	for {
		cmd, err := fr.advance()
		if err != nil || cmd == nil {
			return ts, err
		}
		writes, err := fr.exec(cview{ms: ms}, &uuid)
		if err != nil {
			return ts, err
		}
		if len(writes) > 0 {
			ts++
			ms.applyC(writes, ts)
		}
	}
}
