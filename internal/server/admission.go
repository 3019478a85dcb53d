package server

import (
	"errors"
	"sync"
)

// ErrOverloaded reports an acquisition refused because the wait queue
// is full.
var ErrOverloaded = errors.New("server: overloaded")

// errAdmissionClosed is returned to waiters when the server drains.
var errAdmissionClosed = errors.New("server: admission closed")

// admission is a weighted semaphore with a bounded wait queue: the
// server's back-pressure valve. At most cap weight units execute
// concurrently; up to maxWait acquisitions queue (FIFO, so a heavy
// request cannot be starved by a stream of light ones); anything beyond
// that is rejected immediately with ErrOverloaded — the caller turns
// that into a fast error frame, so overload costs the server a constant
// amount of memory per connection instead of an unbounded queue.
type admission struct {
	mu      sync.Mutex
	cap     int64
	cur     int64
	maxWait int
	waiters []*waiter // FIFO
	closed  bool
}

type waiter struct {
	need  int64
	ready chan error
}

// newAdmission builds the semaphore; weights beyond cap are clamped so
// a single heavy request can always run (alone).
func newAdmission(capacity int64, maxWait int) *admission {
	if capacity < 1 {
		capacity = 1
	}
	return &admission{cap: capacity, maxWait: maxWait}
}

// acquire obtains weight units, queueing (bounded) when the semaphore is
// full. It returns ErrOverloaded when the wait queue is full too, and
// errAdmissionClosed when the server drained while waiting.
func (a *admission) acquire(weight int64) error {
	if weight > a.cap {
		weight = a.cap
	}
	a.mu.Lock()
	if a.closed {
		a.mu.Unlock()
		return errAdmissionClosed
	}
	// FIFO: even if capacity is free, earlier waiters go first.
	if len(a.waiters) == 0 && a.cur+weight <= a.cap {
		a.cur += weight
		a.mu.Unlock()
		return nil
	}
	if len(a.waiters) >= a.maxWait {
		a.mu.Unlock()
		return ErrOverloaded
	}
	w := &waiter{need: weight, ready: make(chan error, 1)}
	a.waiters = append(a.waiters, w)
	a.mu.Unlock()
	return <-w.ready
}

// release returns weight units and wakes queued waiters in order.
func (a *admission) release(weight int64) {
	if weight > a.cap {
		weight = a.cap
	}
	a.mu.Lock()
	a.cur -= weight
	if a.cur < 0 {
		a.cur = 0
	}
	a.wakeLocked()
	a.mu.Unlock()
}

// wakeLocked admits queued waiters while capacity lasts.
func (a *admission) wakeLocked() {
	for len(a.waiters) > 0 {
		w := a.waiters[0]
		if a.cur+w.need > a.cap {
			return
		}
		a.cur += w.need
		a.waiters = a.waiters[1:]
		w.ready <- nil
	}
}

// close fails every queued waiter and rejects future acquisitions;
// in-flight holders release normally.
func (a *admission) close() {
	a.mu.Lock()
	a.closed = true
	ws := a.waiters
	a.waiters = nil
	a.mu.Unlock()
	for _, w := range ws {
		w.ready <- errAdmissionClosed
	}
}
