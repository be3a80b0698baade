// Package cluster is a deterministic discrete-event simulator of a
// three-replica geo-distributed document store, standing in for the
// paper's MongoDB deployment on AWS (§7.2; see DESIGN.md §2 for the
// substitution argument). It models:
//
//   - per-topology network round-trip times (VA / US / Global clusters);
//   - per-replica service stations (statement execution costs queue);
//   - EC mode: statements execute at the client's home replica and
//     replicate asynchronously with last-writer-wins merging;
//   - SC mode: transactions route to the primary, take record locks
//     (two-phase locking), and each write waits for a majority
//     acknowledgement round-trip — the coordination the paper blames for
//     SC's cost;
//   - AT-SC mode: only the transactions the repair left anomalous run SC,
//     the rest run EC (the paper's ▲ AT-SC configuration);
//   - fault injection (fault.go): a seeded FaultPlan of partitions,
//     crashes, lag, clock skew, and message drop/reorder evaluated at the
//     drivers' event-scheduling sites, so both executors replay the same
//     faulted history.
//
// All state lives in one goroutine driven by a virtual-time event queue,
// so runs are deterministic given a seed.
package cluster

import (
	"math"
	"math/bits"
)

// Sim is a virtual-time discrete-event loop. Times are in microseconds.
//
// The queue is a monotone radix heap (Ahuja, Mehlhorn, Orlin & Tarjan,
// JACM 1990): every event is scheduled at now + delay >= now, so pops never
// go back in time. An event at time at sits in bucket bits.Len64(at ^ last),
// where last is the time of the latest redistribution and never exceeds
// now; bucket 0 holds exactly the events at last. Buckets are linked lists
// threaded through one pointer-free slot table (ents), with the callbacks
// in a parallel table (fns), so moving an event between buckets writes no
// pointer and the tables stop growing once they hold the run's largest
// backlog. Every list is kept in scheduling order: At appends the newest
// event, and a redistribution empties the lowest non-empty bucket, in
// order, into buckets that are all empty. Events therefore pop in (time,
// scheduling order) order, the determinism tie-breaker, with no sequence
// number stored or compared.
type Sim struct {
	now  int64
	last int64
	head [64]int32 // bucket b's first slot, 0 when empty; times are >= 0
	tail [64]int32
	full uint64   // bit b set when bucket b is non-empty
	free int32    // first free slot, linked through next
	ents []qent   // slot 0 is the lists' nil
	fns  []func() // by slot
}

type qent struct {
	at   int64
	next int32 // next slot in the bucket or the free list
}

// newSim returns a Sim whose slot tables hold n pending events before they
// grow.
func newSim(n int) *Sim {
	return &Sim{ents: make([]qent, 1, n+1), fns: make([]func(), 1, n+1)}
}

// Now returns the current virtual time in microseconds.
func (s *Sim) Now() int64 { return s.now }

// At schedules fn to run after delay microseconds (clamped to now).
func (s *Sim) At(delay int64, fn func()) {
	if delay < 0 {
		delay = 0
	}
	p := s.free
	if p != 0 {
		s.free = s.ents[p].next
	} else {
		p = int32(len(s.ents))
		s.ents, s.fns = append(s.ents, qent{}), append(s.fns, nil)
	}
	at := s.now + delay
	s.ents[p] = qent{at: at}
	s.fns[p] = fn
	s.push(bits.Len64(uint64(at^s.last)), p)
}

// push appends slot p to bucket b.
func (s *Sim) push(b int, p int32) {
	if s.head[b] == 0 {
		s.head[b] = p
		s.full |= 1 << b
	} else {
		s.ents[s.tail[b]].next = p
	}
	s.tail[b] = p
}

// Run processes events until the queue drains or virtual time passes
// until (microseconds), which must not be before Now.
func (s *Sim) Run(until int64) {
	for s.head[0] != 0 || s.redistribute(until) {
		p := s.head[0]
		e := &s.ents[p]
		s.head[0] = e.next
		if e.next == 0 {
			s.full &^= 1
		}
		e.next, s.free = s.free, p
		fn := s.fns[p]
		s.fns[p] = nil // release the callback
		s.now = e.at
		fn()
	}
}

// redistribute refills the empty bucket 0 from the lowest non-empty bucket,
// whose earliest time becomes last. It reports false, moving nothing, when
// the queue is empty or that time lies beyond until (then now = until), so
// last never passes now.
func (s *Sim) redistribute(until int64) bool {
	if s.full == 0 {
		return false
	}
	b := bits.TrailingZeros64(s.full)
	least := int64(math.MaxInt64)
	for p := s.head[b]; p != 0; p = s.ents[p].next {
		least = min(least, s.ents[p].at)
	}
	if least > until {
		s.now = until
		return false
	}
	p := s.head[b]
	s.head[b] = 0
	s.full &^= 1 << b
	s.last = least
	for p != 0 {
		e := &s.ents[p]
		next := e.next
		e.next = 0
		s.push(bits.Len64(uint64(e.at^least)), p)
		p = next
	}
	return true
}

// station is a FIFO k-server queue modeled by per-server busy-until
// horizons: a job arriving at t with cost c runs on the earliest-free
// server and completes at max(t, horizon) + c.
type station struct {
	horizons []int64
}

func newStation(servers int) station {
	if servers < 1 {
		servers = 1
	}
	return station{horizons: make([]int64, servers)}
}

// serve returns the completion time of a job with the given cost arriving
// now, and advances the chosen server's horizon.
func (st *station) serve(now, cost int64) int64 {
	if len(st.horizons) == 0 {
		st.horizons = []int64{0}
	}
	best := 0
	for i, h := range st.horizons {
		if h < st.horizons[best] {
			best = i
		}
	}
	start := now
	if st.horizons[best] > start {
		start = st.horizons[best]
	}
	st.horizons[best] = start + cost
	return st.horizons[best]
}
