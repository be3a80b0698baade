package cluster

import (
	"fmt"

	"atropos/internal/ast"
	"atropos/internal/benchmarks"
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
// Semantics match the EC interpreter client: a command sees the seeded
// base state, all of its own instance's earlier writes, and exactly the
// other-instance batches the visibility relation grants it, merged
// last-writer-wins in timestamp order. EC places no monotonicity
// constraint on views ("arbitrary subsets of committed batches"), so each
// command's view is built independently — exactly the freedom the static
// encoding's vis relation has.
//
// Certification replays one program thousands of times, so what a run needs
// is split by lifetime: a DirectedPlan holds what depends on the program
// alone, a base store seeded once per set of rows is shared read-only by
// every run over those rows, and a run allocates only its own state.

// DirectedPlan is the static half of a program's directed runs: the table
// layout base stores are addressed by (no transaction is compiled — runs
// execute on the AST) and, per transaction on first use, its command tables.
// A plan is not safe for concurrent use.
type DirectedPlan struct {
	prog *ast.Program
	cp   *Compiled
	txns map[string]*directedTxn
}

// directedTxn is one transaction's static command tables, by command index.
type directedTxn struct {
	txn     *ast.Txn
	cmdIdx  map[ast.DBCommand]int
	tables  []string
	readSet []map[string]bool // the fields the detector's encoding says it reads
}

// NewDirectedPlan prepares directed runs of prog.
func NewDirectedPlan(prog *ast.Program) *DirectedPlan {
	return &DirectedPlan{prog: prog, cp: compileLayout(prog), txns: map[string]*directedTxn{}}
}

// Program returns the program the plan runs.
func (p *DirectedPlan) Program() *ast.Program { return p.prog }

// Seed builds a base state holding rows (alive, timestamp 0). Runs only
// read it, so one base serves every run that starts from the same rows.
func (p *DirectedPlan) Seed(rows []benchmarks.TableRow) (*MatStore, error) {
	base := newMatStore(p.cp)
	for _, row := range rows {
		if err := base.Load(row.Table, row.Row); err != nil {
			return nil, err
		}
	}
	return base, nil
}

func (p *DirectedPlan) txn(name string) (*directedTxn, error) {
	if dt := p.txns[name]; dt != nil {
		return dt, nil
	}
	txn := p.prog.Txn(name)
	if txn == nil {
		return nil, fmt.Errorf("cluster: directed: unknown transaction %q", name)
	}
	cmds := ast.Commands(txn.Body)
	dt := &directedTxn{
		txn:     txn,
		cmdIdx:  make(map[ast.DBCommand]int, len(cmds)),
		tables:  make([]string, len(cmds)),
		readSet: make([]map[string]bool, len(cmds)),
	}
	for i, c := range cmds {
		schema := p.prog.Schema(c.TableName())
		if schema == nil {
			return nil, fmt.Errorf("cluster: directed: unknown table %q", c.TableName())
		}
		rs := map[string]bool{}
		for _, f := range ast.CommandAccess(c, schema).Reads {
			rs[f] = true
		}
		switch c.(type) {
		case *ast.Select, *ast.Update:
			rs[ast.AliveField] = true
		}
		dt.cmdIdx[c] = i
		dt.tables[i] = c.TableName()
		dt.readSet[i] = rs
	}
	p.txns[name] = dt
	return dt, nil
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

// trackedView is one command's local view: the shared base under an overlay
// holding the visible batches' writes, remembering which batches it
// contains. Batches carry strictly increasing timestamps over a timestamp-0
// base, so buffering them in order is last-writer-wins. Read recording
// filters to the command's static read set — the fields the detector's
// encoding says the command reads — because the executor materializes whole
// rows while scanning.
type trackedView struct {
	*Overlay
	applied   []BatchRef
	table     string
	fields    map[string]bool
	recording bool
	reads     []ReadObs
}

// Read implements DBView, recording filtered observations.
func (v *trackedView) Read(table string, key store.Key, field string) store.Value {
	if v.recording && table == v.table && v.fields[field] {
		v.reads = append(v.reads, ReadObs{Table: table, Key: key, Field: field})
	}
	return v.Overlay.Read(table, key, field)
}

// Alive implements DBView through Read so presence checks are observed
// (phantom dependencies flow through the alive field).
func (v *trackedView) Alive(table string, key store.Key) bool {
	val := v.Read(table, key, ast.AliveField)
	return val.T == ast.TBool && val.B
}

type appliedBatch struct {
	inst, cmd int
	ts        int64
	writes    []WriteOp
}

type directedRun struct {
	cfg     DirectedConfig
	base    *MatStore
	txns    [2]*directedTxn
	execs   [2]*TxnExec
	batches []appliedBatch // timestamp order
	cur     [2]DBView      // control-flow view: last command's view + own writes
	uuid    UUIDGen
	now     int64 // virtual time: one slot per executed command
	seq     int64
	obs     []DirectedObs
}

// directedSlotGap is the virtual time between slots (µs), giving trace
// events distinct, human-readable timestamps.
const directedSlotGap = 1000

// testHookView, set by this package's tests only, sees every view a run
// builds before the command executes on it.
var testHookView func(r *directedRun, v *trackedView)

// Run executes one directed two-transaction run over base, a state this
// plan seeded; base is read, never written.
func (p *DirectedPlan) Run(base *MatStore, cfg DirectedConfig) (*DirectedResult, error) {
	if base.cp != p.cp {
		return nil, fmt.Errorf("cluster: directed: base was seeded by another plan")
	}
	if cfg.MaxOps <= 0 {
		cfg.MaxOps = 4096
	}
	r := &directedRun{cfg: cfg, base: base, obs: make([]DirectedObs, 0, len(cfg.Steps))}
	for inst := 0; inst < 2; inst++ {
		dt, err := p.txn(cfg.Txns[inst].Name)
		if err != nil {
			return nil, err
		}
		r.txns[inst] = dt
		r.execs[inst] = NewTxnExec(p.prog, dt.txn, cfg.Txns[inst].Args)
		r.cur[inst] = base
	}

	executed := 0
	step := func(inst int) error {
		executed++
		if executed > cfg.MaxOps {
			return fmt.Errorf("cluster: directed: schedule exceeded %d operations", cfg.MaxOps)
		}
		return r.execOne(inst)
	}
	var runErr error
	for i := 0; i < len(cfg.Steps) && runErr == nil; {
		st := cfg.Steps[i]
		if st.Inst < 0 || st.Inst > 1 {
			return nil, fmt.Errorf("cluster: directed: bad step instance %d", st.Inst)
		}
		e := r.execs[st.Inst]
		if e.Done() {
			i++
			continue
		}
		cmd, err := e.Advance(r.cur[st.Inst])
		if err != nil {
			runErr = err
			break
		}
		if cmd == nil {
			i++
			continue
		}
		cidx, ok := r.txns[st.Inst].cmdIdx[cmd]
		if !ok {
			return nil, fmt.Errorf("cluster: directed: unmapped command %s", cmd.CmdLabel())
		}
		if cidx > st.Cmd {
			// The dynamic stream already passed this slot's command (a branch
			// skipped it): the slot is forfeited.
			i++
			continue
		}
		// cidx <= st.Cmd: execute. An earlier command catching up (iterate
		// repeats) keeps the slot until the stream reaches it.
		if err := step(st.Inst); err != nil {
			runErr = err
			break
		}
		if cidx == st.Cmd {
			i++
		}
	}
	// Drain: run both instances to completion (commands past the last slot
	// keep their own static visibility rows; only their relative order with
	// the other instance is no longer pinned).
	for inst := 0; inst < 2 && runErr == nil; inst++ {
		for !r.execs[inst].Done() {
			cmd, err := r.execs[inst].Advance(r.cur[inst])
			if err != nil {
				runErr = err
				break
			}
			if cmd == nil {
				break
			}
			if err := step(inst); err != nil {
				runErr = err
				break
			}
		}
	}
	if runErr != nil {
		return nil, runErr
	}
	out := &DirectedResult{Obs: r.obs}
	for inst := 0; inst < 2; inst++ {
		out.Done[inst] = r.execs[inst].Done()
		out.Ret[inst] = r.execs[inst].Result()
	}
	return out, nil
}

// buildView constructs (inst, cidx)'s local view: base state, own earlier
// batches, and the visible other-instance batches, merged in timestamp
// order.
func (r *directedRun) buildView(inst, cidx int) *trackedView {
	v := &trackedView{
		Overlay: NewOverlay(r.base),
		table:   r.txns[inst].tables[cidx],
		fields:  r.txns[inst].readSet[cidx],
	}
	for i := range r.batches {
		b := &r.batches[i]
		if b.inst == inst || (r.cfg.Vis != nil && r.cfg.Vis(b.inst, b.cmd, inst, cidx)) {
			for _, w := range b.writes {
				v.Buffer(w)
			}
			v.applied = append(v.applied, BatchRef{Inst: b.inst, Cmd: b.cmd, TS: b.ts})
		}
	}
	if testHookView != nil {
		testHookView(r, v)
	}
	return v
}

// execOne executes the pending command of inst in the next slot, recording
// its observations and publishing its writes.
func (r *directedRun) execOne(inst int) error {
	r.now += directedSlotGap
	e := r.execs[inst]
	cmd, err := e.Advance(r.cur[inst])
	if err != nil || cmd == nil {
		return err
	}
	cidx := r.txns[inst].cmdIdx[cmd]
	view := r.buildView(inst, cidx)
	view.recording = true
	writes, err := e.Exec(view, &r.uuid)
	if err != nil {
		return err
	}
	view.recording = false
	r.seq++
	ts := r.seq
	r.obs = append(r.obs, DirectedObs{
		Inst: inst, Cmd: cidx, At: r.now, TS: ts,
		View: view.applied, Reads: view.reads, Writes: writes,
	})
	if len(writes) > 0 {
		r.batches = append(r.batches, appliedBatch{inst: inst, cmd: cidx, ts: ts, writes: writes})
		// The instance reads its own writes from here on: the view lives on
		// as its control-flow view, its membership list is the observation's.
		for _, w := range writes {
			view.Buffer(w)
		}
	}
	r.cur[inst] = view
	return nil
}
