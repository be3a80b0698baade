package pool

import (
	"fmt"
	"sync/atomic"
	"testing"
)

func TestForEachRunsEveryIndex(t *testing.T) {
	for _, w := range []int{1, 3, 8, 100} {
		var hits [40]int32
		err := ForEach(w, len(hits), func(i int) error {
			atomic.AddInt32(&hits[i], 1)
			return nil
		})
		if err != nil {
			t.Fatalf("w=%d: %v", w, err)
		}
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("w=%d: index %d ran %d times", w, i, h)
			}
		}
	}
}

func TestForEachEmpty(t *testing.T) {
	if err := ForEach(4, 0, func(int) error { t.Fatal("called"); return nil }); err != nil {
		t.Fatal(err)
	}
}

// ForEach must return the lowest-index error so the reported failure does
// not depend on goroutine scheduling — and later indices still run.
func TestForEachLowestIndexError(t *testing.T) {
	for _, w := range []int{1, 4} {
		var ran int32
		err := ForEach(w, 10, func(i int) error {
			atomic.AddInt32(&ran, 1)
			if i == 7 || i == 3 {
				return fmt.Errorf("fail %d", i)
			}
			return nil
		})
		if err == nil || err.Error() != "fail 3" {
			t.Errorf("w=%d: err = %v, want fail 3", w, err)
		}
		if ran != 10 {
			t.Errorf("w=%d: ran %d of 10 indices", w, ran)
		}
	}
}

func TestWorkersResolution(t *testing.T) {
	if w := Workers(5); w != 5 {
		t.Errorf("Workers(5) = %d", w)
	}
	if w := Workers(0); w < 1 {
		t.Errorf("Workers(0) = %d, want >= 1", w)
	}
	if w := Workers(-3); w < 1 {
		t.Errorf("Workers(-3) = %d, want >= 1", w)
	}
}
