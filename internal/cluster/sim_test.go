package cluster

import (
	"cmp"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// The compiled executor and the AST oracle share Sim, so the differential
// tests cannot see a queue-order bug. These tests hold the queue to a
// reference kept here: every event scheduled, sorted by (time, seq), where
// seq counts At calls. That sort is the pop order of a correct queue, since
// an event scheduled during Run lies at or after the current time and after
// every earlier seq.

type refEvent struct{ at, seq int64 }

// queueCheck drives a Sim with a seeded random schedule and records what
// it schedules and what it pops.
type queueCheck struct {
	t      *testing.T
	s      *Sim
	rng    *rand.Rand
	delay  func(*rand.Rand) int64
	spawn  int // events callbacks may still schedule
	sched  []refEvent
	popped []int64 // seqs, in pop order
}

func (q *queueCheck) at(d int64) {
	seq := int64(len(q.sched) + 1)
	ev := refEvent{at: q.s.Now() + max(d, 0), seq: seq}
	q.sched = append(q.sched, ev)
	q.s.At(d, func() {
		if q.s.Now() != ev.at {
			q.t.Fatalf("event %d ran at %d, scheduled for %d", seq, q.s.Now(), ev.at)
		}
		q.popped = append(q.popped, seq)
		for n := q.rng.Intn(3); n > 0 && q.spawn > 0; n-- {
			q.spawn--
			q.at(q.delay(q.rng))
		}
	})
}

// run runs the queue to until and checks that it popped, in (time, seq)
// order, exactly the scheduled events at or before until, and where it left
// the clock.
func (q *queueCheck) run(until int64) {
	q.t.Helper()
	before := q.s.Now()
	q.s.Run(until)
	ref := slices.Clone(q.sched)
	slices.SortFunc(ref, func(a, b refEvent) int {
		return cmp.Or(cmp.Compare(a.at, b.at), cmp.Compare(a.seq, b.seq))
	})
	var want []int64
	pending, latest := false, before
	for _, e := range ref {
		if e.at > until {
			pending = true
			continue
		}
		want = append(want, e.seq)
		latest = max(latest, e.at)
	}
	if !slices.Equal(q.popped, want) {
		i := 0
		for i < min(len(q.popped), len(want)) && q.popped[i] == want[i] {
			i++
		}
		q.t.Fatalf("popped %d events, want %d; from pop %d: %v, want %v",
			len(q.popped), len(want), i, window(q.popped, i), window(want, i))
	}
	wantNow := latest
	if pending {
		wantNow = until
	}
	if q.s.Now() != wantNow {
		q.t.Fatalf("Run(%d) left now at %d, want %d", until, q.s.Now(), wantNow)
	}
}

func window(s []int64, i int) []int64 { return s[min(i, len(s)):min(i+8, len(s))] }

func TestSimQueueOrder(t *testing.T) {
	cases := []struct {
		name  string
		delay func(*rand.Rand) int64
	}{
		// Zero and negative delays and few distinct times: ties everywhere.
		{"ties", func(r *rand.Rand) int64 { return []int64{-5, 0, 0, 1, 3, 3, 8}[r.Intn(7)] }},
		// The drain's horizon next to near-zero delays: the top buckets.
		{"huge", func(r *rand.Rand) int64 {
			return []int64{0, 1, 3_600_000_000, 3_600_000_000 + r.Int63n(1000), r.Int63n(1 << 40)}[r.Intn(5)]
		}},
		// What a USCluster run schedules: round trips, statement costs,
		// lock timeouts.
		{"uscluster", func(r *rand.Rand) int64 {
			return []int64{0, 125, 5_500, 11_000, 12_125, 25_000, 37_500, 108_000, 2_000 + r.Int63n(20_000)}[r.Intn(9)]
		}},
	}
	for _, c := range cases {
		for seed := int64(1); seed <= 20; seed++ {
			q := &queueCheck{t: t, s: newSim(0), rng: rand.New(rand.NewSource(seed)), delay: c.delay, spawn: 2000}
			initial := 1 + q.rng.Intn(200)
			for range initial {
				q.at(c.delay(q.rng))
			}
			q.run(math.MaxInt64)
			if len(q.sched) == initial {
				t.Fatalf("%s/%d: no callback scheduled during Run", c.name, seed)
			}
		}
	}
}

// TestSimRunStopsEarly: Run(until) pops nothing past until and leaves now
// at until; events scheduled after it, at the stopped clock, pop in order
// with those left pending, over several stops.
func TestSimRunStopsEarly(t *testing.T) {
	delay := func(r *rand.Rand) int64 {
		return []int64{0, 0, 7, 125, 5_500, 37_500, 108_000, r.Int63n(1 << 20), 3_600_000_000}[r.Intn(9)]
	}
	for seed := int64(1); seed <= 30; seed++ {
		q := &queueCheck{t: t, s: newSim(0), rng: rand.New(rand.NewSource(seed)), delay: delay, spawn: 1500}
		for range 50 {
			q.at(delay(q.rng))
		}
		until := int64(0)
		for range 6 {
			until += q.rng.Int63n(200_000)
			q.run(until)
			for range q.rng.Intn(40) {
				q.at(delay(q.rng))
			}
		}
		q.run(math.MaxInt64)
	}
	// An empty queue leaves the clock where it was.
	s := newSim(0)
	s.At(10, func() {})
	s.Run(math.MaxInt64)
	if s.Run(100); s.Now() != 10 {
		t.Fatalf("empty Run(100) moved now to %d", s.Now())
	}
}
