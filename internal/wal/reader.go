package wal

import (
	"errors"
	"fmt"
	"os"
)

// ErrPruned reports that a streaming reader's position was pruned away:
// the log no longer holds every record past the requested LSN, so a
// gap-free replay from there is impossible. The replication layer
// answers it by falling back to a full snapshot bootstrap.
var ErrPruned = errors.New("wal: records past the requested LSN were pruned")

// FirstLSN returns the lowest LSN the live segments still hold (0 when
// the log holds no records).
func (l *Log) FirstLSN() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, seg := range l.segs {
		if seg.records > 0 {
			return seg.firstLSN
		}
	}
	return 0
}

// CanStream reports whether the log still holds every record with
// LSN > after — i.e. whether a Reader starting there can replay
// gap-free to the tail. A position beyond the tail (a diverged
// follower) is not streamable either: the records it claims to have
// were never written here.
func (l *Log) CanStream(after uint64) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	if after > l.lsn {
		return false
	}
	for _, seg := range l.segs {
		if seg.records > 0 {
			return after+1 >= seg.firstLSN
		}
	}
	// No records live: nothing to replay, as long as the caller is not
	// behind the counter (records below l.lsn were pruned).
	return after >= l.lsn
}

// Reader is a streaming cursor over the log's records, built for
// replication senders: it follows segment rotations, never returns a
// record past the durability watermark (a primary crash may lose
// anything beyond it, and a follower must not apply what the primary
// can forget), and reports "caught up" as (nil, nil) instead of
// blocking — callers park on DurableChanged between drains.
//
// A Reader is not safe for concurrent use. It holds at most one open
// segment file handle; a segment pruned while the handle is open keeps
// streaming from the unlinked file, and the cursor moves past it before
// reopening anything, so pruning never corrupts an in-flight drain —
// the prune barrier (internal/repl) exists to keep segments a follower
// has not acked yet, not to protect this cursor.
type Reader struct {
	l   *Log
	lsn uint64 // last LSN handed out
	seq uint64 // seq of the open segment (0 = none)
	f   *os.File
	off int64
}

// NewReader returns a streaming cursor positioned just past `after`.
// It fails with ErrPruned if the log no longer holds every record from
// there.
func (l *Log) NewReader(after uint64) (*Reader, error) {
	if !l.CanStream(after) {
		return nil, fmt.Errorf("%w (after %d, first live %d)", ErrPruned, after, l.FirstLSN())
	}
	return &Reader{l: l, lsn: after}, nil
}

// LSN returns the last LSN the reader handed out.
func (r *Reader) LSN() uint64 { return r.lsn }

// Close releases the open segment handle. The reader is unusable after.
func (r *Reader) Close() {
	if r.f != nil {
		r.f.Close()
		r.f = nil
	}
	r.l = nil
}

// Next returns the next record, or (nil, nil) when every durable record
// has been handed out. Records are returned strictly in LSN order with
// no gaps; any impossibility (pruned position, torn durable record) is
// an error, after which the reader must be discarded.
func (r *Reader) Next() (*Record, error) {
	if r.l == nil {
		return nil, errors.New("wal: reader is closed")
	}
	target := r.lsn + 1
	if target > r.l.DurableLSN() {
		return nil, nil // caught up (to what is safe to ship)
	}
	for attempt := 0; ; attempt++ {
		if r.f == nil {
			if err := r.open(target); err != nil {
				return nil, err
			}
		}
		fi, err := r.f.Stat()
		if err != nil {
			return nil, fmt.Errorf("wal: %w", err)
		}
		rec, n, err := readRecordAt(r.f, r.off, fi.Size())
		if err != nil {
			return nil, err
		}
		if rec != nil {
			r.off += n
			if rec.LSN <= r.lsn {
				continue // skipping the prefix after (re)opening mid-segment
			}
			if rec.LSN != target {
				return nil, fmt.Errorf("wal: stream gap: want %d, segment yields %d", target, rec.LSN)
			}
			r.lsn = rec.LSN
			return rec, nil
		}
		// Short read or bad checksum at the current offset. The target is
		// durable, so either it lives in a later segment (this one is
		// sealed behind us) or the write just raced us and a re-read will
		// see it. advanceSegment distinguishes the two under l.mu.
		advanced, err := r.advanceSegment(target)
		if err != nil {
			return nil, err
		}
		if !advanced && attempt > 0 {
			// Same segment twice with no progress: the durable record is
			// unreadable where it must be. Surface it rather than spin.
			return nil, fmt.Errorf("wal: durable record %d unreadable in segment %d", target, r.seq)
		}
	}
}

// holding returns the path and seq of the live segment holding target.
func (r *Reader) holding(target uint64) (string, uint64, error) {
	r.l.mu.Lock()
	defer r.l.mu.Unlock()
	for _, seg := range r.l.segs {
		if seg.records > 0 && seg.firstLSN <= target && target <= seg.lastLSN {
			return seg.path, seg.seq, nil
		}
	}
	return "", 0, fmt.Errorf("%w: record %d is in no live segment", ErrPruned, target)
}

// open positions the reader at the segment containing target.
func (r *Reader) open(target uint64) error {
	path, seq, err := r.holding(target)
	if err != nil {
		return err
	}
	f, err := os.Open(path)
	if err != nil {
		return fmt.Errorf("%w: %v", ErrPruned, err) // unlinked between the scan and the open
	}
	r.f, r.seq, r.off = f, seq, 0
	return nil
}

// advanceSegment decides what an in-segment read failure means: if the
// target now lives in a later segment, move there (reports true);
// otherwise the record should appear at the current offset on a
// re-read (reports false).
func (r *Reader) advanceSegment(target uint64) (bool, error) {
	_, seq, err := r.holding(target)
	if err != nil || seq == r.seq {
		return false, err
	}
	r.f.Close()
	r.f = nil
	return true, nil
}
