package pool

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
)

// withProcs runs fn under GOMAXPROCS n and restores the old setting.
// Callers must not be t.Parallel: GOMAXPROCS is process-wide.
func withProcs(n int, fn func()) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(n))
	fn()
}

func TestForEachRunsEveryIndex(t *testing.T) {
	for _, w := range []int{1, 3, 8, 100} {
		var hits [40]int32
		var err error
		withProcs(w, func() {
			err = ForEach(len(hits), func(i int) error {
				atomic.AddInt32(&hits[i], 1)
				return nil
			})
		})
		if err != nil {
			t.Fatalf("GOMAXPROCS=%d: %v", w, err)
		}
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("GOMAXPROCS=%d: index %d ran %d times", w, i, h)
			}
		}
	}
}

func TestForEachEmpty(t *testing.T) {
	if err := ForEach(0, func(int) error { t.Fatal("called"); return nil }); err != nil {
		t.Fatal(err)
	}
}

// ForEach must return the lowest-index error so the reported failure does
// not depend on goroutine scheduling — and later indices still run.
func TestForEachLowestIndexError(t *testing.T) {
	for _, w := range []int{1, 4} {
		var ran int32
		var err error
		withProcs(w, func() {
			err = ForEach(10, func(i int) error {
				atomic.AddInt32(&ran, 1)
				if i == 7 || i == 3 {
					return fmt.Errorf("fail %d", i)
				}
				return nil
			})
		})
		if err == nil || err.Error() != "fail 3" {
			t.Errorf("GOMAXPROCS=%d: err = %v, want fail 3", w, err)
		}
		if ran != 10 {
			t.Errorf("GOMAXPROCS=%d: ran %d of 10 indices", w, ran)
		}
	}
}
