package pool

import "sync"

// Work-stealing runner for suspendable tasks (DESIGN.md §15).
//
// The anomaly detector's parallel wavefront needs finer-grained fan-out
// than ForEach's fixed index handout: its units (one witness of one
// transaction) have cross-unit ordering constraints, so a unit must be
// able to *suspend* — stop running until another unit publishes the
// progress it waits on — without holding a worker goroutine hostage.
//
// The contract:
//
//   - Run executes until the task either completes (TaskDone) or cannot
//     proceed (TaskSuspended). A task returning TaskSuspended must have
//     already arranged — under its own synchronization — for some other
//     task to Push it back once the awaited progress exists. The runner
//     never re-schedules a suspended task on its own.
//   - Between the suspend registration and the return, Run must not touch
//     task state: the waker may Push (and another worker may re-run) the
//     task before the suspending Run invocation has unwound. The
//     registration's mutex is what publishes the task's state to the
//     next Run.
//   - Each worker owns a deque. It pops its own bottom (LIFO — a woken
//     successor runs hot on the worker that woke it) and steals from the
//     top of other deques (FIFO — stealing the oldest, largest-grained
//     work first). Deques are mutex-guarded; tasks here are milliseconds
//     of SAT solving, so the lock is not the bottleneck the way it would
//     be in a nanosecond-granularity scheduler.
//   - The runner exits when `total` tasks have returned TaskDone. Tasks
//     must guarantee that many completions (a drained error path still
//     completes its tasks).
//   - A task that panics stops the runner: the workers take no further
//     task, and Run panics with the same value on its caller's goroutine,
//     where the caller's recover can see it. Suspended tasks are dropped.

// TaskStatus is the result of one Task.Run invocation.
type TaskStatus int

const (
	// TaskDone: the task finished and will not run again.
	TaskDone TaskStatus = iota
	// TaskSuspended: the task parked itself; its waker will Push it back.
	TaskSuspended
)

// Task is one resumable unit of work.
type Task interface {
	// Run executes on worker w until done or suspended. It may call
	// s.Push(w, t) to schedule tasks it has made runnable.
	Run(s *Stealer, w int) TaskStatus
}

// Stealer runs suspendable tasks on a fixed set of workers.
type Stealer struct {
	mu        sync.Mutex
	cond      *sync.Cond
	deques    [][]Task
	remaining int // tasks not yet TaskDone (runnable, running, or suspended)
	// failed is set, and panicVal holds the value, once a task panicked.
	failed   bool
	panicVal any
}

// NewStealer prepares a runner for exactly total task completions on w
// workers (w is clamped to at least 1).
func NewStealer(w, total int) *Stealer {
	if w < 1 {
		w = 1
	}
	s := &Stealer{deques: make([][]Task, w), remaining: total}
	s.cond = sync.NewCond(&s.mu)
	return s
}

// Push makes t runnable on worker w's deque (any worker may steal it).
// Safe to call from any goroutine, including from inside Run.
func (s *Stealer) Push(w int, t Task) {
	s.mu.Lock()
	s.deques[w%len(s.deques)] = append(s.deques[w%len(s.deques)], t)
	s.mu.Unlock()
	s.cond.Signal()
}

// pop claims the next task for worker w: own deque bottom first, then the
// top of the other deques. It blocks while no task is runnable but some
// are still pending, and returns nil when all work is complete.
func (s *Stealer) pop(w int) Task {
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		if s.remaining == 0 || s.failed {
			return nil
		}
		if d := s.deques[w]; len(d) > 0 {
			t := d[len(d)-1]
			d[len(d)-1] = nil
			s.deques[w] = d[:len(d)-1]
			return t
		}
		for i := 1; i < len(s.deques); i++ {
			v := (w + i) % len(s.deques)
			if d := s.deques[v]; len(d) > 0 {
				t := d[0]
				copy(d, d[1:])
				d[len(d)-1] = nil
				s.deques[v] = d[:len(d)-1]
				return t
			}
		}
		s.cond.Wait()
	}
}

// done records one task completion, waking parked workers when the last
// task finishes.
func (s *Stealer) done() {
	s.mu.Lock()
	s.remaining--
	last := s.remaining == 0
	s.mu.Unlock()
	if last {
		s.cond.Broadcast()
	}
}

// fail records the first task panic and wakes every parked worker to exit.
func (s *Stealer) fail(v any) {
	s.mu.Lock()
	if !s.failed {
		s.failed, s.panicVal = true, v
	}
	s.mu.Unlock()
	s.cond.Broadcast()
}

// Run seeds the deques round-robin with the initially runnable tasks and
// blocks until every task has completed. It must be called once. A task's
// panic is re-raised here, after every worker has returned.
func (s *Stealer) Run(seed []Task) {
	for i, t := range seed {
		s.deques[i%len(s.deques)] = append(s.deques[i%len(s.deques)], t)
	}
	var wg sync.WaitGroup
	for w := 0; w < len(s.deques); w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			defer func() {
				if v := recover(); v != nil {
					s.fail(v)
				}
			}()
			for {
				t := s.pop(w)
				if t == nil {
					return
				}
				if t.Run(s, w) == TaskDone {
					s.done()
				}
				// TaskSuspended: drop the reference; the waker owns it now.
			}
		}(w)
	}
	wg.Wait()
	if s.failed {
		panic(s.panicVal)
	}
}
