package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// spanID identifies a span within one tracer; 0 means "no span" and is what
// a nil (off) tracer hands out.
type spanID int32

// span is one timed call into a layer. Spans of one op share Op, the id of
// the op's root span; Parent is 0 on a root span. Times are nanoseconds
// since the tracer was created.
type span struct {
	ID      spanID `json:"id"`
	Parent  spanID `json:"parent"`
	Op      spanID `json:"op"`
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer is the
// "tracing off" recorder: start and end return at once and record nothing,
// so the ops are written once and run untraced for the end-to-end metrics.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// start opens a span under parent; parent 0 opens the root span of a new op.
func (t *tracer) start(parent spanID, name string) spanID {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	id := spanID(len(t.spans) + 1)
	op := id
	if parent != 0 {
		op = t.spans[parent-1].Op
	}
	// The clock is read last on start and first on end, so the recorder's
	// own bookkeeping falls outside the span.
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Name: name})
	t.spans[id-1].StartNs = int64(time.Since(t.t0))
	t.mu.Unlock()
	return id
}

func (t *tracer) end(id spanID) {
	if t == nil || id == 0 {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans[id-1].EndNs = now
	t.mu.Unlock()
}

// snapshot returns the spans recorded so far.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// writeJSONL writes one span per line.
func writeJSONL(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTimes returns, per span (indexed like spans), its duration minus the
// part of its interval that its direct children cover. Children may overlap
// each other (concurrent calls) and are clipped to the parent's interval,
// so the self times of one op's spans sum to at most the root's duration,
// and to exactly that when no sibling spans overlap.
func selfTimes(spans []span) []int64 {
	children := map[spanID][]int{}
	for i, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].StartNs < spans[kids[b]].StartNs })
		covered, reach := int64(0), s.StartNs
		for _, k := range kids {
			lo, hi := max(spans[k].StartNs, reach), min(spans[k].EndNs, s.EndNs)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		self[i] = s.EndNs - s.StartNs - covered
	}
	return self
}
