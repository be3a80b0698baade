package main

import (
	"testing"
)

// TestSelfTimes checks span-minus-union-of-children on a hand-made tree:
// nested spans, overlapping siblings, a zero-length span and a child that
// outlives its parent.
func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Parent: 0, Op: 1, Name: "op", StartNs: 0, EndNs: 100},
		{ID: 2, Parent: 1, Op: 1, Name: "a", StartNs: 10, EndNs: 40},
		{ID: 3, Parent: 1, Op: 1, Name: "b", StartNs: 30, EndNs: 60}, // overlaps a
		{ID: 4, Parent: 2, Op: 1, Name: "a1", StartNs: 15, EndNs: 25},
		{ID: 5, Parent: 2, Op: 1, Name: "a2", StartNs: 30, EndNs: 30}, // zero length
		{ID: 6, Parent: 1, Op: 1, Name: "c", StartNs: 90, EndNs: 120}, // clipped to the parent
		{ID: 7, Parent: 0, Op: 7, Name: "leaf op", StartNs: 200, EndNs: 250},
	}
	want := []int64{
		100 - (60 - 10) - (100 - 90), // op: a∪b covers 10..60, c covers 90..100
		30 - 10,                      // a: minus a1; a2 covers nothing
		30,                           // b
		10,                           // a1
		0,                            // a2
		30,                           // c keeps its own length
		50,                           // an op without children is all self time
	}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self time of %q = %d, want %d", spans[i].Name, got[i], want[i])
		}
	}
}

// TestSelfTimesSumToOp: with children nested and siblings disjoint, the
// self times of an op's spans add up to the root's duration exactly.
func TestSelfTimesSumToOp(t *testing.T) {
	tr := newTracer()
	root := tr.start(0, "op")
	a := tr.start(root, "a")
	a1 := tr.start(a, "a1")
	tr.end(a1)
	tr.end(a)
	b := tr.start(root, "b")
	tr.end(b)
	tr.end(root)
	spans := tr.snapshot()
	sum := int64(0)
	for i, self := range selfTimes(spans) {
		if spans[i].Op != root {
			t.Errorf("span %q has op %d, want %d", spans[i].Name, spans[i].Op, root)
		}
		sum += self
	}
	if d := spans[0].EndNs - spans[0].StartNs; sum != d {
		t.Errorf("self times sum to %d, the op took %d", sum, d)
	}
}

// TestTracerOff: the nil recorder hands out no ids, keeps nothing and
// allocates nothing.
func TestTracerOff(t *testing.T) {
	var tr *tracer
	if id := tr.start(0, "op"); id != 0 {
		t.Fatalf("off tracer returned span id %d", id)
	}
	tr.end(0)
	if s := tr.snapshot(); s != nil {
		t.Fatalf("off tracer kept %d spans", len(s))
	}
	if n := testing.AllocsPerRun(100, func() { tr.end(tr.start(tr.start(0, "op"), "child")) }); n != 0 {
		t.Errorf("off tracer allocates %v times per op", n)
	}
	rc := &runCtx{}
	rc.op("cell", func(op spanID) error {
		if op != 0 {
			t.Errorf("untraced op got root span %d", op)
		}
		return nil
	})
	if rc.attempted != 1 || rc.failed != 0 || len(rc.samples) != 1 {
		t.Errorf("untraced op recorded %+v", rc)
	}
}
