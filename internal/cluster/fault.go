package cluster

import (
	"fmt"
	"math/rand"
)

// This file is the simulator's deterministic fault layer (DESIGN.md §13).
// A FaultPlan is a declarative, seeded schedule of adverse conditions —
// link partitions, replica crashes with replication catch-up, added link
// lag, bounded clock skew on merge-timestamp assignment, and message
// drop/reorder — evaluated at the points where the drivers schedule
// network and service events. The executor and the tests' AST reference
// route every affected delay through the same hooks in the same order, so a
// faulted run remains a byte-identical differential twin: same (seed, plan,
// config) ⇒ same Trace, on either, on every machine. A nil plan compiles to a nil state and every hook takes
// the exact pre-fault fast path, leaving fault-free runs bit-for-bit
// unchanged.

// FaultKind selects what a Fault window does while it is active.
type FaultKind int

// Fault kinds. Link kinds apply to the unordered replica pair {A, B};
// node kinds apply to replica A.
const (
	// FaultPartition cuts the link: messages sent while the window is
	// active queue at the sender and depart when the link heals.
	FaultPartition FaultKind = iota
	// FaultCrash fail-stops the replica: statements routed to it and
	// replication batches arriving at it defer to its recovery time, where
	// the deferred batches land in send order — the catch-up.
	FaultCrash
	// FaultLag inflates the link's one-way transit by Amount µs.
	FaultLag
	// FaultSkew offsets the replica's merge-timestamp clock by Amount
	// ticks (positive or negative), bending last-writer-wins arbitration.
	FaultSkew
	// FaultDrop loses Pct percent of the link's messages; a lost message
	// retransmits after one round trip (deterministically, from the
	// plan's own RNG).
	FaultDrop
	// FaultReorder adds per-message jitter drawn from [0, Amount) µs to
	// the link, letting later sends overtake earlier ones.
	FaultReorder
)

func (k FaultKind) String() string {
	switch k {
	case FaultPartition:
		return "partition"
	case FaultCrash:
		return "crash"
	case FaultLag:
		return "lag"
	case FaultSkew:
		return "skew"
	case FaultDrop:
		return "drop"
	case FaultReorder:
		return "reorder"
	default:
		return fmt.Sprintf("FaultKind(%d)", int(k))
	}
}

// Fault is one scheduled fault window, active on [From, Until) virtual µs.
type Fault struct {
	Kind        FaultKind
	From, Until int64
	// A, B are replica indices: link kinds use the pair {A, B}, node
	// kinds (crash, skew) use A alone.
	A, B int
	// Amount is µs for lag/reorder and timestamp ticks for skew.
	Amount int64
	// Pct is the drop probability in percent (1..95).
	Pct int
}

// FaultPlan is a seeded schedule of fault windows. The seed drives only
// the plan's own RNG (drop lotteries, reorder jitter), kept separate from
// the workload RNG so the same workload meets the same faults regardless
// of how many random draws either side makes.
type FaultPlan struct {
	Seed   int64
	Faults []Fault
}

// faultState is a FaultPlan compiled for one run: windows bucketed per
// directed link and per node for O(active windows) queries, plus the
// plan's RNG.
type faultState struct {
	rng     *rand.Rand
	hasSkew bool
	link    [3][3][]Fault
	node    [3][]Fault
}

func newFaultState(p *FaultPlan) (*faultState, error) {
	if p == nil {
		return nil, nil
	}
	f := &faultState{rng: rand.New(rand.NewSource(p.Seed))}
	for i, w := range p.Faults {
		if w.Until <= w.From || w.From < 0 {
			return nil, fmt.Errorf("cluster: fault %d: bad window [%d, %d)", i, w.From, w.Until)
		}
		switch w.Kind {
		case FaultCrash, FaultSkew:
			if w.A < 0 || w.A > 2 {
				return nil, fmt.Errorf("cluster: fault %d: bad replica %d", i, w.A)
			}
			f.node[w.A] = append(f.node[w.A], w)
			if w.Kind == FaultSkew {
				f.hasSkew = true
			}
		case FaultPartition, FaultLag, FaultDrop, FaultReorder:
			if w.A < 0 || w.A > 2 || w.B < 0 || w.B > 2 || w.A == w.B {
				return nil, fmt.Errorf("cluster: fault %d: bad link %d-%d", i, w.A, w.B)
			}
			if w.Kind == FaultDrop && (w.Pct < 1 || w.Pct > 95) {
				return nil, fmt.Errorf("cluster: fault %d: drop pct %d outside 1..95", i, w.Pct)
			}
			if (w.Kind == FaultLag || w.Kind == FaultReorder) && w.Amount <= 0 {
				return nil, fmt.Errorf("cluster: fault %d: %s needs a positive amount", i, w.Kind)
			}
			f.link[w.A][w.B] = append(f.link[w.A][w.B], w)
			f.link[w.B][w.A] = append(f.link[w.B][w.A], w)
		default:
			return nil, fmt.Errorf("cluster: fault %d: unknown kind %d", i, int(w.Kind))
		}
	}
	return f, nil
}

// aliveAt returns the first instant ≥ t at which replica r is up,
// chaining through overlapping or back-to-back crash windows.
func (f *faultState) aliveAt(r int, t int64) int64 {
	for again := true; again; {
		again = false
		for _, w := range f.node[r] {
			if w.Kind == FaultCrash && t >= w.From && t < w.Until {
				t, again = w.Until, true
			}
		}
	}
	return t
}

// healedAt returns the first instant ≥ t at which the a–b link carries
// traffic (no partition window active).
func (f *faultState) healedAt(a, b int, t int64) int64 {
	for again := true; again; {
		again = false
		for _, w := range f.link[a][b] {
			if w.Kind == FaultPartition && t >= w.From && t < w.Until {
				t, again = w.Until, true
			}
		}
	}
	return t
}

// lagAt sums the link's active lag amounts at t.
func (f *faultState) lagAt(a, b int, t int64) int64 {
	var lag int64
	for _, w := range f.link[a][b] {
		if w.Kind == FaultLag && t >= w.From && t < w.Until {
			lag += w.Amount
		}
	}
	return lag
}

// dropPct is the link's strongest active drop probability at t.
func (f *faultState) dropPct(a, b int, t int64) int {
	pct := 0
	for _, w := range f.link[a][b] {
		if w.Kind == FaultDrop && t >= w.From && t < w.Until && w.Pct > pct {
			pct = w.Pct
		}
	}
	return pct
}

// reorderSpan is the link's widest active jitter bound at t.
func (f *faultState) reorderSpan(a, b int, t int64) int64 {
	var span int64
	for _, w := range f.link[a][b] {
		if w.Kind == FaultReorder && t >= w.From && t < w.Until && w.Amount > span {
			span = w.Amount
		}
	}
	return span
}

// skewAt sums the replica's active clock offsets at t.
func (f *faultState) skewAt(r int, t int64) int64 {
	var skew int64
	for _, w := range f.node[r] {
		if w.Kind == FaultSkew && t >= w.From && t < w.Until {
			skew += w.Amount
		}
	}
	return skew
}

// deliver computes the absolute arrival time of one message from a to b,
// sent at `sent` with fault-free one-way transit `transit`: partitions
// queue it at the sender until heal, drops retransmit it after a round
// trip, lag and reorder jitter stretch the flight, and a crashed receiver
// defers it to recovery — which is exactly the catch-up: every batch
// deferred during an outage lands at the recovery instant in send order.
func (f *faultState) deliver(a, b int, sent, transit int64) int64 {
	t := f.healedAt(a, b, sent)
	for retry := 0; retry < 64; retry++ {
		pct := f.dropPct(a, b, t)
		if pct <= 0 || f.rng.Intn(100) >= pct {
			break
		}
		t = f.healedAt(a, b, t+2*transit)
	}
	at := t + transit + f.lagAt(a, b, t)
	if span := f.reorderSpan(a, b, t); span > 0 {
		at += f.rng.Int63n(span)
	}
	return f.aliveAt(b, at)
}

// Driver hooks. Every delay the fault layer can bend is computed here —
// by both engines, at mirrored call sites, in the same order — and each
// hook's nil-plan branch reproduces the pre-fault expression verbatim.

// repDelay is the delay after which a replication batch sent now from
// `from` arrives at `to` (half the link RTT when no fault is active).
func (d *driver) repDelay(from, to int) int64 {
	transit := d.cfg.Topology.RTT[from][to] / 2
	if d.flt == nil {
		return transit
	}
	now := d.sim.Now()
	return d.flt.deliver(from, to, now, transit) - now
}

// ecDelay is the client → home-replica leg of one EC statement, including
// the non-queueing per-statement overhead; a crashed home replica defers
// service to its recovery. (Client links themselves are not in the fault
// vocabulary: clients are colocated with their replica.)
func (d *driver) ecDelay(r int) int64 {
	base := d.cfg.Topology.ClientRTT/2 + d.cfg.StmtOverhead
	if d.flt == nil {
		return base
	}
	now := d.sim.Now()
	return d.flt.aliveAt(r, now+base) - now
}

// scDelay is the client → primary leg of an SC attempt; a crashed primary
// defers the attempt to its recovery.
func (d *driver) scDelay(c *client) int64 {
	base := c.primaryRTT() / 2
	if d.flt == nil {
		return base
	}
	now := d.sim.Now()
	return d.flt.aliveAt(primary, now+base) - now
}

// ackDelay is the majority-acknowledgement wait of one SC write
// statement: the fastest secondary's request + ack round trip under the
// active faults (equal to Topology.majorityRTT when none are).
func (d *driver) ackDelay() int64 {
	if d.flt == nil {
		return d.cfg.Topology.majorityRTT(primary)
	}
	now := d.sim.Now()
	best := int64(-1)
	for j := 0; j < 3; j++ {
		if j == primary {
			continue
		}
		transit := d.cfg.Topology.RTT[primary][j] / 2
		req := d.flt.deliver(primary, j, now, transit)
		ack := d.flt.deliver(j, primary, req, transit)
		if best < 0 || ack < best {
			best = ack
		}
	}
	return best - now
}

// tsAt produces the merge timestamp for a batch committing at replica r.
// Without skew it is the plain strictly monotone arbitration sequence.
// Under an active skew window the sequence is offset by the replica's
// clock error and tagged with the replica index in the low bits, so
// timestamps stay unique across replicas while a skewed replica's batches
// arbitrate as if stamped earlier or later than arrival order; the rare
// same-replica collision (a window closing) is resolved by Apply's
// deterministic later-apply-wins tie rule.
func (d *driver) tsAt(r int) int64 {
	d.tsSeq++
	if d.flt == nil || !d.flt.hasSkew {
		return d.tsSeq
	}
	return (d.tsSeq+d.flt.skewAt(r, d.sim.Now()))*4 + int64(r)
}

// Scenario is one named fault schedule of the chaos panel.
type Scenario struct {
	Name string
	Plan *FaultPlan
}

// ChaosScenarios builds the canonical chaos panel for a run of the given
// virtual horizon (µs): clean (no faults — the control), flaky-link
// (drop + reorder on the secondary link, lag toward one secondary),
// rolling-crash (each secondary down in turn), split-brain-heal (one
// secondary partitioned from both peers, healing late), and skewed-clocks
// (opposite bounded clock offsets on the secondaries). Scenarios never
// crash or isolate-from-quorum the primary, so SC progress is preserved.
func ChaosScenarios(horizon int64) []Scenario {
	h := horizon
	return []Scenario{
		{Name: "clean"},
		{Name: "flaky-link", Plan: &FaultPlan{Seed: 101, Faults: []Fault{
			{Kind: FaultDrop, From: h / 10, Until: 9 * h / 10, A: 1, B: 2, Pct: 40},
			{Kind: FaultReorder, From: h / 10, Until: 9 * h / 10, A: 1, B: 2, Amount: 20_000},
			{Kind: FaultLag, From: h / 5, Until: 4 * h / 5, A: 0, B: 2, Amount: 60_000},
		}}},
		{Name: "rolling-crash", Plan: &FaultPlan{Seed: 102, Faults: []Fault{
			{Kind: FaultCrash, From: 15 * h / 100, Until: 35 * h / 100, A: 1},
			{Kind: FaultCrash, From: 45 * h / 100, Until: 65 * h / 100, A: 2},
		}}},
		{Name: "split-brain-heal", Plan: &FaultPlan{Seed: 103, Faults: []Fault{
			{Kind: FaultPartition, From: h / 5, Until: 7 * h / 10, A: 0, B: 2},
			{Kind: FaultPartition, From: h / 5, Until: 7 * h / 10, A: 1, B: 2},
		}}},
		{Name: "skewed-clocks", Plan: &FaultPlan{Seed: 104, Faults: []Fault{
			{Kind: FaultSkew, From: h / 10, Until: 9 * h / 10, A: 1, Amount: 64},
			{Kind: FaultSkew, From: h / 10, Until: 9 * h / 10, A: 2, Amount: -64},
		}}},
	}
}
