// Package repl is WAL log-shipping replication for read scale-out: a
// primary streams a document's WAL — the records its commit protocol
// already writes — to any number of followers, each of which replays
// them through the same apply path recovery uses, so a follower is at
// all times a crash-recovered image of the primary at some LSN.
//
// The design rests on three contracts the rest of the system already
// provides:
//
//   - the WAL is the total order of committed work (one record per
//     commit, LSNs contiguous), and wal.Reader streams it gap-free past
//     any LSN that has not been pruned, never past the durability
//     watermark — a follower cannot apply a record a primary crash
//     could take back;
//   - the checkpoint image format (internal/ckpt) doubles as the
//     bootstrap format: a follower whose LSN was pruned away — or an
//     empty one — is sent a pinned checkpoint image and resumes
//     streaming from its LSN, exactly the recovery path run over the
//     network;
//   - pruning is fenced by a barrier (ckpt.New's pruneBarrier →
//     Tracker.Barrier): no segment holding a record beyond a live
//     follower's last durably-applied LSN is ever deleted, so a
//     connected follower never falls into the snapshot path; a
//     follower that disconnects loses the fence and self-heals through
//     it when it returns.
//
// Followers acknowledge the LSN they have durably applied; the primary
// tracks the minimum across live subscriptions both for the prune
// barrier and for observability (lag = primary tail − follower ack).
package repl

import "sync"

// Tracker registers one document's live follower subscriptions and
// their durably-acked LSNs. Its Barrier is the document's prune fence.
type Tracker struct {
	mu     sync.Mutex
	nextID uint64
	acked  map[uint64]uint64
}

// NewTracker returns an empty tracker.
func NewTracker() *Tracker {
	return &Tracker{acked: make(map[uint64]uint64)}
}

// Register adds a follower whose last durably-applied LSN is acked, and
// returns its subscription id. From this moment the prune barrier
// protects every record past acked, so Register must happen before the
// primary decides it can stream (not after — a prune could slip into
// the gap).
func (t *Tracker) Register(acked uint64) uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.nextID++
	t.acked[t.nextID] = acked
	return t.nextID
}

// Ack raises a follower's durably-applied LSN (never lowers it; acks
// racing out of order are harmless). Unknown ids are ignored — a late
// ack from a subscription already unregistered must not resurrect it.
func (t *Tracker) Ack(id, lsn uint64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if cur, ok := t.acked[id]; ok && lsn > cur {
		t.acked[id] = lsn
	}
}

// Unregister drops a subscription; its fence is released.
func (t *Tracker) Unregister(id uint64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	delete(t.acked, id)
}

// Barrier returns the highest LSN the WAL may be pruned up to without
// stranding a live follower: the minimum acked LSN, or ^uint64(0) when
// no follower is subscribed (no external constraint).
func (t *Tracker) Barrier() uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	min := ^uint64(0)
	for _, lsn := range t.acked {
		if lsn < min {
			min = lsn
		}
	}
	return min
}

// Count returns the number of live subscriptions.
func (t *Tracker) Count() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.acked)
}
