package cluster

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"atropos/internal/ast"
	"atropos/internal/benchmarks"
	"atropos/internal/metrics"
	"atropos/internal/store"
)

// Mode selects the consistency deployment of a run (the four lines of
// Fig. 12).
type Mode int

// Deployment modes.
const (
	// ModeEC: every transaction runs against its home replica with
	// asynchronous replication (the paper's ◆ EC and ■ AT-EC lines,
	// depending on which program is supplied).
	ModeEC Mode = iota
	// ModeSC: every transaction runs at the primary under two-phase record
	// locking with majority-acknowledged writes (● SC).
	ModeSC
	// ModeATSC: transactions named in SerializableTxns run as under
	// ModeSC; the rest as under ModeEC (▲ AT-SC).
	ModeATSC
)

func (m Mode) String() string {
	switch m {
	case ModeEC:
		return "EC"
	case ModeSC:
		return "SC"
	case ModeATSC:
		return "AT-SC"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// Config describes one simulated run.
type Config struct {
	Program *ast.Program
	Mix     []benchmarks.MixEntry
	Scale   benchmarks.Scale
	Rows    []store.TableRow
	// Topology is the cluster geometry (VACluster/USCluster/GlobalCluster).
	Topology Topology
	Clients  int
	// Duration is the measured virtual time; Warmup precedes it.
	Duration time.Duration
	Warmup   time.Duration
	// Ops, when positive, switches the run to the ops-bounded mode: it
	// stops after Ops measured commits instead of at Duration, which makes
	// benchmark iterations and CI checks size-exact (ns and allocs per
	// transaction) regardless of the host. Warmup still applies.
	Ops  int64
	Seed int64
	Mode Mode
	// SerializableTxns names the transactions run under SC in ModeATSC.
	SerializableTxns map[string]bool
	// Trace, when non-nil, records the run's execution history (applied
	// write batches, commits, aborts) for differential testing.
	Trace *Trace
	// Faults, when non-nil, is the run's deterministic fault schedule
	// (partitions, crashes, lag, clock skew, drop/reorder — see fault.go).
	Faults *FaultPlan
	// Observe, when non-nil, receives per-command observation records for
	// dependency-graph analysis (see observe.go). It selects no engine: the
	// run is the same run, recorded. One thing differs — an observed
	// equality-indexed command scans (cframe.matching), so Result.Scans
	// counts scan visits for those commands.
	Observe *Observation

	// useInterpreter runs every transaction on the AST reference executor,
	// which only this package's tests have (refLaunch).
	useInterpreter bool
}

// refLaunch, set by this package's tests only, launches one transaction of a
// useInterpreter run on the AST reference executor. Production code has one
// executor and never sets it.
var refLaunch func(c *client, txn *ast.Txn, sc bool)

// Result is the outcome of one run: a figure point plus counters.
type Result struct {
	Point     metrics.Point
	Committed int64
	Aborted   int64 // SC lock-timeout aborts (retried)
	// Scans is the executor's where-clause work, summed over the replicas.
	Scans Scans
}

// Scans counts where-clause resolutions: calls to the matcher, the rows it
// examined, and the rows it returned. Visited over matched is the share of
// the store's work the chosen access paths wasted.
type Scans struct {
	Calls, RowsVisited, RowsMatched int64
}

const (
	stmtCost     = 2_000  // µs of replica capacity per statement: sets saturation throughput
	stmtOverhead = 12_000 // µs of per-statement latency using no capacity: the low-load floor
	servers      = 2      // per-replica service parallelism: vCPUs of the paper's M10 tier
	primary      = 0
)

// Run simulates the configured deployment and returns its measurements.
func Run(cfg Config) (Result, error) {
	_, res, err := run(cfg, false)
	return res, err
}

// FinalState simulates the deployment and returns the converged replica
// state after all in-flight transactions and replication have drained
// (used by conservation tests and state inspection).
func FinalState(cfg Config) (*MatStore, error) {
	d, _, err := run(cfg, true)
	if err != nil {
		return nil, err
	}
	return d.replicas[primary].state, nil
}

func run(cfg Config, drain bool) (*driver, Result, error) {
	if cfg.Clients <= 0 {
		return nil, Result{}, fmt.Errorf("cluster: need at least one client")
	}
	if cfg.Duration == 0 {
		cfg.Duration = 10 * time.Second
	}
	flt, err := newFaultState(cfg.Faults)
	if err != nil {
		return nil, Result{}, err
	}

	cp, err := CompileProgram(cfg.Program)
	if err != nil {
		return nil, Result{}, err
	}
	base := newMatStore(cp)
	for _, r := range cfg.Rows {
		if err := base.Load(r.Table, r.Row); err != nil {
			return nil, Result{}, err
		}
	}
	// An ops-bounded run measures exactly Ops samples, so a reservoir of
	// that size never replaces one: the same samples, no RNG draw.
	reservoir := 8192
	if cfg.Ops > 0 && cfg.Ops < int64(reservoir) {
		reservoir = int(cfg.Ops)
	}
	d := &driver{
		cfg:      cfg,
		cp:       cp,
		sim:      newSim(4 * cfg.Clients), // a run's backlog peaks at 3-5 events a client
		rng:      rand.New(rand.NewSource(cfg.Seed)),
		replicas: [3]*replica{},
		locks:    make([][]lockState, len(cp.tables)),
		uuid:     &UUIDGen{},
		lat:      metrics.NewLatencies(reservoir, cfg.Seed+1),
		flt:      flt,
	}
	if cfg.Observe != nil {
		d.obs = newObsState(d)
	}
	if cfg.Trace != nil && cfg.Faults != nil {
		// Record the plan up front: fault windows are static, so the header
		// is identical on both engines and pins the schedule in the history.
		for _, f := range cfg.Faults.Faults {
			cfg.Trace.fault(f)
		}
	}
	for i := range d.replicas {
		st := base
		if i > 0 {
			st = base.Clone()
		}
		d.replicas[i] = &replica{id: i, state: st, station: newStation(servers)}
	}
	warmup := cfg.Warmup.Microseconds()
	total := warmup + cfg.Duration.Microseconds()
	d.measureFrom = warmup
	d.measureUntil = total
	if cfg.Ops > 0 {
		d.measureUntil = math.MaxInt64
	}

	for c := 0; c < cfg.Clients; c++ {
		cl := newClient(d, c)
		d.sim.At(int64(c%97), cl.nextTxn) // stagger arrivals slightly
	}
	if cfg.Ops > 0 {
		// Ops-bounded: the closed loops stop launching once the target is
		// hit, so the queue drains by itself.
		d.sim.Run(math.MaxInt64)
	} else {
		d.sim.Run(total)
	}
	if drain {
		// Stop the closed loops and drain in-flight transactions and
		// replication so the replicas converge (FinalState inspection).
		d.stopped = true
		d.sim.Run(d.sim.Now() + 3_600_000_000)
	}

	secs := cfg.Duration.Seconds()
	if cfg.Ops > 0 {
		end := d.stopAt
		if end == 0 {
			end = d.sim.Now()
		}
		secs = float64(end-d.measureFrom) / 1e6
		if secs <= 0 {
			secs = 1e-6
		}
	}
	if cfg.Observe != nil {
		cfg.Observe.Obs = d.obs.obs
		cfg.Observe.Txns = d.obs.txns
	}
	res := Result{
		Committed: d.committed,
		Aborted:   d.aborted,
		Point:     d.lat.Point(cfg.Clients, float64(d.committed)/secs),
	}
	for _, r := range d.replicas {
		res.Scans.Calls += r.state.scans.Calls
		res.Scans.RowsVisited += r.state.scans.RowsVisited
		res.Scans.RowsMatched += r.state.scans.RowsMatched
	}
	return d, res, d.execErr
}

type driver struct {
	cfg          Config
	cp           *Compiled
	sim          *Sim
	rng          *rand.Rand
	replicas     [3]*replica
	locks        [][]lockState // by table id, then slot (locks.go)
	cores        []*lockCore   // by lockState.owner - 1
	queues       [][]waiter    // by lockState.waiters - 1
	freeQueues   []int32       // drained queues, as lockState.waiters
	uuid         *UUIDGen
	lat          *metrics.Latencies
	committed    int64
	aborted      int64
	measureFrom  int64
	measureUntil int64
	stopped      bool
	stopAt       int64
	tsSeq        int64
	execErr      error
	flt          *faultState
	obs          *obsState
	// replication pools: batches and their delivery events are recycled so
	// steady-state replication allocates nothing.
	batchPool []*repBatch
	repPool   []*repEv
	timerPool []*lockTimer
	wakePool  []*wakeEv
}

type replica struct {
	id      int
	state   *MatStore
	station station
}

// Merge timestamps come from tsAt (fault.go): a strictly monotone
// arbitration sequence — event-loop processing order is the arbitration
// order — optionally bent by an active clock-skew fault window.

func (d *driver) fail(err error) {
	if d.execErr == nil {
		d.execErr = err
	}
}

// countAbort records one SC abort if it falls inside the measurement
// window; like commits, aborts during an ops-bounded run's drain tail are
// not measured, so Result pairs exactly Ops commits with the aborts that
// happened while they accumulated.
func (d *driver) countAbort() {
	now := d.sim.Now()
	if now >= d.measureFrom && now <= d.measureUntil && !(d.cfg.Ops > 0 && d.stopped) {
		d.aborted++
	}
}

// finishTxn records one completed transaction for the owning client and, in
// ops-bounded mode, stops the run when the target is reached.
func (d *driver) finishTxn(c *client) {
	now := d.sim.Now()
	measured := now >= d.measureFrom && now <= d.measureUntil
	if d.cfg.Ops > 0 && d.committed >= d.cfg.Ops {
		// Target reached: in-flight transactions still complete while the
		// queue drains, but exactly Ops commits are measured.
		measured = false
	}
	if measured {
		d.committed++
		d.lat.Add(time.Duration(now-c.startAt) * time.Microsecond)
		if d.cfg.Ops > 0 && d.committed >= d.cfg.Ops {
			d.stopped = true
			d.stopAt = now
		}
	}
	if d.cfg.Trace != nil {
		d.cfg.Trace.commit(now, c.id, c.txnName, measured)
	}
}

type client struct {
	d       *driver
	id      int
	home    int
	startAt int64
	txnName string
	// Executor state, allocated once per client and reused for every
	// transaction it runs (DESIGN.md §9).
	fr       *cframe
	args     benchmarks.Args // the current transaction's
	finishFn func()
	ecPhase  int
	ecTick   func()
	scRun    *cTxnRun
	// Observation-mode state: the current instance id and the SC attempt's
	// buffered records.
	obsInst int
	pend    []DirectedObs
}

func newClient(d *driver, id int) *client {
	c := &client{d: d, id: id, home: id % 3}
	c.fr = newCFrame(d.cp)
	c.fr.observe = d.obs != nil
	c.finishFn = func() {
		d.finishTxn(c)
		c.nextTxn()
	}
	c.ecTick = c.ecStep
	return c
}

// nextTxn draws a transaction from the mix and launches it under the
// deployment's mode (closed loop: the next begins when this one commits).
func (c *client) nextTxn() {
	d := c.d
	if d.execErr != nil || d.stopped {
		return
	}
	m := d.cfg.Mix[pickWeighted(d.rng, d.cfg.Mix)]
	txn := d.cfg.Program.Txn(m.Txn)
	if txn == nil {
		d.fail(fmt.Errorf("cluster: mix references unknown txn %q", m.Txn))
		return
	}
	c.args = m.Args(d.rng, d.cfg.Scale)
	c.startAt = d.sim.Now()
	c.txnName = m.Txn
	if d.obs != nil {
		d.obs.beginTxn(c, m.Txn)
	}
	sc := d.cfg.Mode == ModeSC || (d.cfg.Mode == ModeATSC && d.cfg.SerializableTxns[m.Txn])
	if d.cfg.useInterpreter {
		refLaunch(c, txn, sc)
		return
	}
	ct := d.cp.txns[m.Txn]
	if sc {
		c.startSC(ct)
	} else {
		c.startEC(ct)
	}
}

func pickWeighted(rng *rand.Rand, mix []benchmarks.MixEntry) int {
	total := 0
	for _, m := range mix {
		total += m.Weight
	}
	n := rng.Intn(total)
	for i, m := range mix {
		n -= m.Weight
		if n < 0 {
			return i
		}
	}
	return len(mix) - 1
}

// primaryRTT is the round trip between the client and the primary replica.
func (c *client) primaryRTT() int64 {
	if c.home != primary {
		return c.d.cfg.Topology.RTT[c.home][primary]
	}
	return c.d.cfg.Topology.ClientRTT
}
