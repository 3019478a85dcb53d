// Package par runs an indexed loop on every core: checkpoint and recovery
// do independent work per chunk (encode, hash, deflate; inflate, decode).
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Do calls f(i) for every i in [0, n) on up to GOMAXPROCS goroutines and
// returns when all calls have. Indexes are started in ascending order and
// none is started once a call has failed, so the error returned — that of
// the lowest index that failed — is the one a serial loop would return.
func Do(n int, f func(i int) error) error {
	errs := make([]error, n)
	var next atomic.Int64
	var stop atomic.Bool
	var wg sync.WaitGroup
	work := func() {
		for !stop.Load() {
			i := int(next.Add(1)) - 1
			if i >= n {
				return
			}
			if errs[i] = f(i); errs[i] != nil {
				stop.Store(true)
			}
		}
	}
	for range min(runtime.GOMAXPROCS(0), n) - 1 {
		wg.Add(1)
		go func() { defer wg.Done(); work() }()
	}
	work() // the caller works too: a batch of one starts no goroutine
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
