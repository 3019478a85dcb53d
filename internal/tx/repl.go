package tx

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"mxq/internal/wal"
)

// ErrStale reports that WaitApplied timed out before the applied LSN
// reached the requested point: the caller asked to read its own write
// on a replica that has not caught up to it yet. The server maps this
// to a typed wire status (never a silently stale answer).
var ErrStale = errors.New("tx: applied LSN below the requested read point")

// appliedLSN is the read-your-writes watermark: the highest WAL LSN
// whose effects are visible to a reader acquiring a snapshot now. On a
// primary it advances with every local commit; on a follower, with
// every replicated record applied. Waiters park on a broadcast channel
// that is closed and replaced each time the watermark rises.
type appliedLSN struct {
	mu  sync.Mutex
	lsn uint64
	ch  chan struct{}
}

func (a *appliedLSN) advance(lsn uint64) {
	if lsn == 0 {
		return
	}
	a.mu.Lock()
	if lsn > a.lsn {
		a.lsn = lsn
		if a.ch != nil {
			close(a.ch)
			a.ch = nil
		}
	}
	a.mu.Unlock()
}

func (a *appliedLSN) get() uint64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.lsn
}

// wait parks until the watermark reaches lsn or the deadline passes.
func (a *appliedLSN) wait(lsn uint64, timeout time.Duration) error {
	if lsn == 0 {
		return nil
	}
	var timer *time.Timer
	for {
		a.mu.Lock()
		if a.lsn >= lsn {
			a.mu.Unlock()
			if timer != nil {
				timer.Stop()
			}
			return nil
		}
		if a.ch == nil {
			a.ch = make(chan struct{})
		}
		ch := a.ch
		cur := a.lsn
		a.mu.Unlock()
		if timer == nil {
			if timeout <= 0 {
				return fmt.Errorf("%w: applied %d, need %d", ErrStale, cur, lsn)
			}
			timer = time.NewTimer(timeout)
			defer timer.Stop()
		}
		select {
		case <-ch:
		case <-timer.C:
			return fmt.Errorf("%w: applied %d, need %d", ErrStale, a.get(), lsn)
		}
	}
}

// AppliedLSN returns the read-your-writes watermark: every commit with
// an LSN at or below it is visible to a snapshot acquired now.
func (m *Manager) AppliedLSN() uint64 { return m.applied.get() }

// WaitApplied parks until the applied watermark reaches lsn, or fails
// with ErrStale after timeout (a zero or negative timeout fails
// immediately unless the watermark is already there). lsn 0 never
// waits — it is the "any version will do" request every plain read
// carries.
func (m *Manager) WaitApplied(lsn uint64, timeout time.Duration) error {
	return m.applied.wait(lsn, timeout)
}

// ApplyReplicated applies one replicated WAL record: the follower-side
// twin of a commit that must replay. It replays the record's operations
// through ApplyOps onto a fresh image of the current version, as
// recovery does, then appends the record to the local log verbatim —
// the follower's LSN numbering must reproduce the primary's exactly, and
// wal.Log.AppendRecord refuses gaps — installs the image as the next
// version, and advances the applied watermark so parked
// read-your-writes readers wake. A record that fails to replay or to
// append is neither logged nor published.
//
// Durability is the caller's business: ApplyReplicated does not fsync,
// so a batch of records costs one Sync at its end (before the LSN is
// acked to the primary), not one per record.
func (m *Manager) ApplyReplicated(rec *wal.Record) error {
	m.pubMu.Lock()
	defer m.pubMu.Unlock()
	cur := m.cur.Load()
	next := cur.store.Snapshot()
	if err := ApplyOps(next, rec.Ops); err != nil {
		return fmt.Errorf("tx: applying replicated LSN %d: %w", rec.LSN, err)
	}
	var lsn uint64
	if m.log != nil {
		if err := m.log.AppendRecord(rec); err != nil {
			return err
		}
		lsn = rec.LSN
	}
	m.install(cur, next, rec.Ops, lsn)
	m.applied.advance(rec.LSN)
	return nil
}
