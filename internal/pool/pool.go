// Package pool provides the bounded worker pool shared by the experiment
// drivers and the atropos CLI's input fan-out.
package pool

import (
	"runtime"
	"sync"
)

// ForEach runs fn(0) … fn(n-1) on at most GOMAXPROCS goroutines and waits
// for all of them. Every index runs even if an earlier one fails; the error
// for the lowest index is returned so the outcome does not depend on
// scheduling. Under GOMAXPROCS 1 it degenerates to a plain sequential loop.
func ForEach(n int, fn func(i int) error) error {
	if n == 0 {
		return nil
	}
	w := min(runtime.GOMAXPROCS(0), n)
	if w <= 1 {
		var first error
		for i := 0; i < n; i++ {
			if err := fn(i); err != nil && first == nil {
				first = err
			}
		}
		return first
	}
	errs := make([]error, n)
	next := make(chan int)
	var wg sync.WaitGroup
	for g := 0; g < w; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				errs[i] = fn(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
