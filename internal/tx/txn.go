package tx

import (
	"fmt"
	"os"
	"runtime/debug"

	"mxq/internal/core"
	"mxq/internal/wal"
	"mxq/internal/xenc"
)

// Tx is a write transaction: a private copy-on-write image of the
// version it began on, plus the log of resolved operations it applied
// there. Commit installs the image as the next version, or replays the
// log onto the current one if a commit landed meanwhile. Tx reads as
// its image (xenc.IndexView, xenc.ParentView) and implements
// xupdate.Target (Apply), so XPath queries and XUpdate modification
// lists run against it directly with read-your-writes semantics. The
// column slices Cols returns go stale with the transaction's next
// mutation.
type Tx struct {
	imageView // the clone's read surface; nil, as clone is, after Commit or Abort
	m         *Manager
	base      *version // the version clone was forked from
	clone     *core.Store
	ops       []wal.Op
	pages     map[int32]bool
	done      bool
	err       error
	lsn       uint64 // assigned at commit; 0 until then (or for no-op commits)
}

// imageView is what Tx reads through: the private image's view surface.
type imageView interface {
	xenc.IndexView
	xenc.ParentView
}

// CommitLSN returns the WAL LSN Commit assigned, 0 before Commit or for
// a commit that logged nothing (empty op list, or a volatile database).
// It is the token a client carries to read its own write on a replica.
func (t *Tx) CommitLSN() uint64 { return t.lsn }

var (
	_ xenc.IndexView  = (*Tx)(nil)
	_ xenc.ParentView = (*Tx)(nil)
)

// --- mutations ---------------------------------------------------------------

func (t *Tx) check() error {
	if t.done {
		return ErrDone
	}
	return t.err
}

// fail poisons the transaction: after a lock conflict only Abort works.
func (t *Tx) fail(err error) error {
	if t.err == nil && err == ErrConflict {
		t.err = err
	}
	return err
}

// lockSpan write-locks the *physical* pages backing the view span
// [from, to], clamped to the view. Physical page numbers are stable
// across page splices, so two transactions always agree on what a lock
// name means even after either of them has reshaped the logical order.
func (t *Tx) lockSpan(from, to xenc.Pre) error {
	if from < 0 {
		from = 0
	}
	last := t.clone.Len() - 1
	if to > last {
		to = last
	}
	var pages []int32
	step := xenc.Pre(t.clone.PageSize())
	for p := from; ; p += step {
		if p > to {
			p = to
		}
		pages = append(pages, t.clone.PhysPage(p))
		if p == to {
			break
		}
	}
	return t.fail(t.m.lockPages(t, pages))
}

// Apply performs op on the transaction image and logs it for commit,
// with the ids of the nodes it inserted: the logged op is the applied
// op, and a commit that must replay it does so with the same
// core.Store.Apply. It first locks the pages of op's footprint
// (core.Store.Footprint); an insert the image refuses locks none.
func (t *Tx) Apply(op wal.Op) ([]xenc.NodeID, error) {
	if err := t.check(); err != nil {
		return nil, err
	}
	from, to, err := t.clone.Footprint(op)
	if err != nil {
		return nil, err
	}
	if err := t.lockSpan(from, to); err != nil {
		return nil, err
	}
	ids, err := t.clone.Apply(op)
	if err != nil {
		return nil, err
	}
	op.NewIDs = ids
	t.ops = append(t.ops, op)
	return ids, nil
}

// --- commit / abort -----------------------------------------------------------

// Commit publishes the transaction as the next version and writes its
// WAL record (Figure 8's commit sequence).
func (t *Tx) Commit() error {
	if t.done {
		return ErrDone
	}
	if t.err != nil {
		t.Abort()
		return t.err
	}
	if len(t.ops) == 0 {
		t.Abort()
		return nil
	}
	m := t.m
	lsn, err := t.publish()
	if err != nil {
		t.Abort()
		return err
	}
	// Wake read-your-writes waiters: the version is installed and any
	// view acquired from here on observes it. Durability is settled
	// below — the watermark is about visibility, and a waiter on this
	// replica already raced ahead of the fsync the moment it was
	// installed.
	m.applied.advance(lsn)
	t.lsn = lsn
	m.unlockAll(t)
	t.done = true
	t.imageView, t.clone, t.base = nil, nil, nil
	if m.log != nil {
		// Group commit: the transaction is visible to new readers already
		// (early lock release), but Commit only returns once its record is
		// on stable storage — the leader/follower door in wal.Log.Sync
		// batches the fsyncs of every committer that raced through the
		// critical section since the last one. A Sync failure is a
		// half-state: applied and visible, durability unknown — reported
		// as ErrNotDurable, which the caller must not answer by retrying.
		if err := m.log.Sync(lsn); err != nil {
			return fmt.Errorf("%w: %w", ErrNotDurable, err)
		}
	}
	return nil
}

// publish is Commit's critical section, under the publishers' mutex.
// The next version is the transaction's image if no commit landed since
// Begin — node ids are a function of node/pos and the image interned
// into the name pool the next version should hold, so it is what a
// replay would build. If a commit since Begin deleted a node an op
// names, or an ancestor of it, publish reports ErrConflict: node ids
// carry no generation, so another node may have taken the freed id, and
// a replay would write onto it. Otherwise it replays the ops onto a
// fresh image of the current version; a replay that fails drops it and
// reports ErrConflict. Only then
// is the WAL record appended and the version installed, so a failure
// logs and publishes nothing. A panic in here may leave a record
// logged that no version holds, which no caller can undo and serve on,
// so it ends the process the way an unrecovered panic would (recovery
// replays the log), even under a caller that recovers panics.
func (t *Tx) publish() (lsn uint64, err error) {
	m := t.m
	m.pubMu.Lock()
	defer m.pubMu.Unlock()
	defer func() {
		if v := recover(); v != nil {
			fmt.Fprintf(os.Stderr, "panic: %v [inside a commit]\n\n%s", v, debug.Stack())
			os.Exit(2)
		}
	}()
	cur := m.cur.Load()
	next := t.clone
	if cur != t.base {
		base := t.base.store
		for _, op := range t.ops {
			for p := base.PreOf(op.Target); p != xenc.NoPre; p = base.ParentPre(p) {
				if seq := m.deletedAt[base.NodeOf(p)]; seq > t.base.seq {
					return 0, fmt.Errorf("tx: %w: version %d deleted node %d, which op target %d lies in", ErrConflict, seq, base.NodeOf(p), op.Target)
				}
			}
		}
		next = cur.store.Snapshot()
		if err := ApplyOps(next, t.ops); err != nil {
			return 0, fmt.Errorf("tx: %w: %w", ErrConflict, err)
		}
	}
	if m.log != nil {
		// Append inside the critical section (it assigns the LSN that
		// orders this commit), but do NOT fsync here: durability is
		// settled by the group-commit Sync in Commit, outside the lock, so
		// concurrent committers share one fsync instead of queueing N of
		// them behind the mutex.
		if lsn, err = m.log.Append(t.ops); err != nil {
			return 0, err
		}
	}
	m.install(cur, next, t.ops, lsn)
	return lsn, nil
}

// Abort drops the transaction image and releases all locks.
func (t *Tx) Abort() {
	if t.done {
		return
	}
	t.m.aborts.Add(1)
	t.m.unlockAll(t)
	t.done = true
	t.imageView, t.clone, t.base = nil, nil, nil
}

// ApplyOps replays resolved operations onto a store through
// core.Store.Apply, mapping the transaction-local ids of inserted nodes
// to the ids the store hands out. A commit that raced another, recovery
// and a follower all replay through it, which keeps replay
// deterministic. An op whose target is missing fails the replay. A
// failed replay leaves the store partly written: replay onto a store
// nobody else reads yet.
func ApplyOps(store *core.Store, ops []wal.Op) error {
	idMap := make(map[xenc.NodeID]xenc.NodeID)
	for i, op := range ops {
		if id, ok := idMap[op.Target]; ok {
			op.Target = id
		}
		newIDs, err := store.Apply(op)
		if err != nil {
			return fmt.Errorf("tx: op %d (%d): %w", i, op.Kind, err)
		}
		for j, id := range op.NewIDs {
			if j < len(newIDs) {
				idMap[id] = newIDs[j]
			}
		}
	}
	return nil
}
