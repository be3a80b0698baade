package pool

import (
	"sync"
	"testing"
)

// chainTask models the wavefront protocol: task i may only complete after
// task i-1, suspending (and being woken by its predecessor's completion)
// otherwise.
type chainState struct {
	mu      sync.Mutex
	done    []bool
	waiters []*chainTask
	order   []int
}

type chainTask struct {
	st *chainState
	i  int
}

func (t *chainTask) Run(s *Stealer, w int) TaskStatus {
	st := t.st
	st.mu.Lock()
	if t.i > 0 && !st.done[t.i-1] {
		st.waiters[t.i-1] = t
		st.mu.Unlock()
		return TaskSuspended
	}
	st.done[t.i] = true
	st.order = append(st.order, t.i)
	wake := st.waiters[t.i]
	st.waiters[t.i] = nil
	st.mu.Unlock()
	if wake != nil {
		s.Push(w, wake)
	}
	return TaskDone
}

func TestStealerChainDependency(t *testing.T) {
	const n = 200
	for _, workers := range []int{1, 2, 4, 8} {
		st := &chainState{done: make([]bool, n), waiters: make([]*chainTask, n)}
		seed := make([]Task, n)
		for i := 0; i < n; i++ {
			seed[i] = &chainTask{st: st, i: i}
		}
		NewStealer(workers, n).Run(seed)
		if len(st.order) != n {
			t.Fatalf("workers=%d: %d of %d tasks completed", workers, len(st.order), n)
		}
		for i, got := range st.order {
			if got != i {
				t.Fatalf("workers=%d: completion order %v violates the chain", workers, st.order[:i+1])
			}
		}
	}
}

// countTask checks plain fan-out: independent tasks all run exactly once.
type countTask struct {
	mu   *sync.Mutex
	runs *int
}

func (t *countTask) Run(*Stealer, int) TaskStatus {
	t.mu.Lock()
	*t.runs++
	t.mu.Unlock()
	return TaskDone
}

func TestStealerIndependentTasks(t *testing.T) {
	const n = 500
	var mu sync.Mutex
	runs := 0
	seed := make([]Task, n)
	for i := range seed {
		seed[i] = &countTask{mu: &mu, runs: &runs}
	}
	NewStealer(4, n).Run(seed)
	if runs != n {
		t.Fatalf("%d runs for %d tasks", runs, n)
	}
}

func TestStealerNoTasks(t *testing.T) {
	NewStealer(4, 0).Run(nil) // must terminate immediately
}

// panicTask panics in place of task i of a chain whose successors suspend
// on it.
type panicTask struct{ chainTask }

func (t *panicTask) Run(*Stealer, int) TaskStatus { panic("task panic") }

// TestStealerReraisesTaskPanic: a task's panic on a worker goroutine
// reaches Run's caller, whose recover sees the value, even though the
// tasks waiting on the panicked one never complete.
func TestStealerReraisesTaskPanic(t *testing.T) {
	const n = 50
	for _, workers := range []int{1, 2, 4} {
		st := &chainState{done: make([]bool, n), waiters: make([]*chainTask, n)}
		seed := make([]Task, n)
		for i := range seed {
			seed[i] = &chainTask{st: st, i: i}
		}
		seed[n/2] = &panicTask{chainTask{st: st, i: n / 2}}
		got := func() (v any) {
			defer func() { v = recover() }()
			NewStealer(workers, n).Run(seed)
			return nil
		}()
		if got != "task panic" {
			t.Fatalf("workers=%d: Run's caller recovered %v, want the task's panic", workers, got)
		}
	}
}
