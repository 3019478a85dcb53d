// Package tx implements the transaction protocol of Section 3.2
// (Figure 8) over the paged document store:
//
//   - committed state is a sequence of immutable versions: a store, its
//     sequence number and the LSN of the last record in it. The manager
//     holds the current one behind one atomic pointer, and no published
//     version is ever written again, so a reader's view (AcquireRead)
//     and a checkpoint's pin (PinCheckpoint) are that pointer load —
//     no lock, no lease count, and long scans never block commits nor
//     commits readers. A version nobody holds is the garbage
//     collector's;
//   - write transactions work in isolation on a *page-granular
//     copy-on-write* image of the current version (core.Store.Snapshot):
//     the image shares all pages with the version and privately copies
//     only the pages its updates touch, so beginning a transaction and
//     making a small update are both O(pages touched) in chunk copies,
//     never O(document). Before each op they write-lock the physical
//     pages of its footprint (core.Store.Footprint); an insert the image
//     refuses locks nothing. Locking is no-wait: a conflict aborts the
//     younger request instead of risking deadlock.
//     Nothing locks or re-checks what they read, so they are
//     snapshot-isolated, not serializable: two that each read what the
//     other writes can both commit (write skew);
//   - ancestor size maintenance is performed with commutative delta
//     increments, so concurrent writers under the same ancestors — in
//     particular the document root — never contend on ancestor pages
//     ("delta operations are commutative, it does not matter in which
//     order they are executed");
//   - commit takes the publishers' mutex briefly. If no commit landed
//     since the transaction began, its image *is* the next version. If
//     one deleted a node it names (or an ancestor of one), it fails with
//     ErrConflict: node ids carry no generation, so a freed id may name
//     another node by now. Otherwise its resolved operations are
//     replayed onto a fresh image of the current version, and a replay
//     that fails publishes nothing (ErrConflict). Then it writes one WAL
//     record and installs the version.
//
// A write is one value from the XUpdate executor to replay: a wal.Op,
// which names its target by immutable node id. Tx.Apply takes the op's
// page locks, performs it on the image with core.Store.Apply and logs
// that same op with the ids of the nodes it inserted; ApplyOps replays
// a log through core.Store.Apply again — for a commit that raced
// another, in recovery and on a follower — mapping those
// transaction-local ids to the store's.
package tx

import (
	"errors"
	"sync"
	"sync/atomic"

	"mxq/internal/core"
	"mxq/internal/wal"
	"mxq/internal/xenc"
)

// ErrConflict reports a page-lock conflict with a concurrent writer. The
// caller should abort and retry the transaction.
var ErrConflict = errors.New("tx: page lock conflict")

// ErrDone reports use of a finished transaction.
var ErrDone = errors.New("tx: transaction already committed or aborted")

// ErrNotDurable reports that a commit was APPLIED — its effects are in
// the base store and visible to readers — but the group-commit fsync
// failed, so the record may not survive a crash. This is not a clean
// failure: the caller must NOT retry the transaction (that would apply
// it twice). The failed fsync poisons the WAL, so every later commit and
// checkpoint fails too until the log is reopened, which is no proof that
// the record reached the disk (see internal/wal).
var ErrNotDurable = errors.New("tx: commit applied but not durable")

// ErrSnapshotClosed reports a read through a ReadView after Close.
var ErrSnapshotClosed = errors.New("tx: snapshot is closed")

// Manager coordinates transactions over one document's versions.
type Manager struct {
	cur   atomic.Pointer[version] // the current committed version
	pubMu sync.Mutex              // taken by publishers only: Commit, ApplyReplicated
	log   *wal.Log

	// deletedAt maps each committed delete's target id to the seq of the
	// newest version that deleted it (under pubMu; one entry an id at most).
	deletedAt map[xenc.NodeID]uint64

	lockMu sync.Mutex
	owners map[int32]*Tx // logical page -> holder

	aborts atomic.Uint64 // bumped by Abort without any manager lock

	// applied is the read-your-writes watermark (see repl.go).
	applied appliedLSN
}

// version is one committed state: a store no one writes any more, the
// number of commits it holds, and the LSN of the last record in it (0
// for a volatile database).
type version struct {
	store *core.Store
	seq   uint64
	lsn   uint64
}

// ReadView is a handle on one committed version: the one read handle,
// whether it lives for a single query or is held across many commits.
// The view is read without any lock and is safe for concurrent use —
// a published version is never written, and commits copy the pages they
// modify into the next one (Section 3.2's copy-on-write reader
// isolation). Holding a view keeps alive the chunks replaced since its
// version, and costs the commits no copies: they copy what they write
// whether or not anyone reads the old version.
type ReadView struct {
	v      *version
	closed atomic.Bool
}

// View returns the immutable document view. It must not be used after
// Close; a reader that cannot rule out a concurrent Close goes through
// WithView instead.
func (rv *ReadView) View() xenc.DocView { return rv.v.store }

// Version returns the committed version the view observes.
func (rv *ReadView) Version() uint64 { return rv.v.seq }

// WithView runs fn against the view. It fails with ErrSnapshotClosed
// once Close has been called; a Close racing the call does not disturb
// it, as nothing is freed but by the garbage collector.
func (rv *ReadView) WithView(fn func(v xenc.DocView) error) error {
	if rv.closed.Load() {
		return ErrSnapshotClosed
	}
	return fn(rv.v.store)
}

// Close marks the view closed, so WithView refuses it from then on. It
// is idempotent and safe to call concurrently with commits and WithView.
func (rv *ReadView) Close() { rv.closed.Store(true) }

// NewManager wraps a store; log may be nil for a volatile database. The
// store becomes version 0 and is never written again: each commit
// installs a new version.
func NewManager(store *core.Store, log *wal.Log) *Manager {
	m := &Manager{
		log:       log,
		owners:    make(map[int32]*Tx),
		deletedAt: make(map[xenc.NodeID]uint64),
	}
	v := &version{store: store}
	if log != nil {
		// Everything recovered (or replicated) up to the log's tail is in
		// the store the caller hands us, so the read-your-writes watermark
		// starts there — a client that saw LSN n commit before a failover
		// must not be told the recovered replica is behind n.
		v.lsn = log.LastLSN()
		m.applied.advance(v.lsn)
	}
	m.cur.Store(v)
	return m
}

// Version returns the number of committed write transactions: the
// current version's sequence number.
func (m *Manager) Version() uint64 { return m.cur.Load().seq }

// AcquireRead returns a view of the current committed version: one
// atomic load and the handle. No lock is held while the caller
// evaluates against the view, so readers fully overlap commits. Close
// the view when done; it marks the handle, nothing else.
func (m *Manager) AcquireRead() *ReadView {
	return &ReadView{v: m.cur.Load()}
}

// Stats are the manager's counters and the current version's shape;
// Aborts, which no version holds, is read beside it.
type Stats struct {
	Commits, Aborts uint64 // finished write transactions
	LiveNodes       int    // live nodes
	Tuples          int    // tuples including unused space
	Pages, PageSize int    // logical pages, tuples per page
	Names           int    // base name pool entries (only commits add one)
}

// Stats reads the counters and the current version's shape.
func (m *Manager) Stats() Stats {
	v := m.cur.Load()
	return Stats{
		Commits:   v.seq,
		Aborts:    m.aborts.Load(),
		LiveNodes: v.store.LiveNodes(),
		Tuples:    int(v.store.Len()),
		Pages:     v.store.Pages(),
		PageSize:  v.store.PageSize(),
		Names:     v.store.Names().Len(),
	}
}

// CheckInvariants validates the current version's storage invariants
// (testing hook).
func (m *Manager) CheckInvariants() error {
	return m.cur.Load().store.CheckInvariants()
}

// Begin starts a write transaction. The returned Tx is not safe for
// concurrent use by multiple goroutines.
//
// The transaction's private image is a page-granular copy-on-write
// snapshot of the current version (core.Store.Snapshot): taking it
// costs O(pages) directory copies and the transaction's writes
// materialize only the pages they touch. It takes no lock: the version
// is never written, and Snapshot may fork it concurrently with readers
// and other Begins.
func (m *Manager) Begin() *Tx {
	base := m.cur.Load()
	clone := base.store.Snapshot()
	return &Tx{imageView: clone, m: m, base: base, clone: clone, pages: make(map[int32]bool)}
}

// install makes store, whose record holds ops, the version after cur
// (under pubMu), noting the targets of its deletes.
func (m *Manager) install(cur *version, store *core.Store, ops []wal.Op, lsn uint64) {
	for _, op := range ops {
		if op.Kind == wal.OpDelete {
			m.deletedAt[op.Target] = cur.seq + 1
		}
	}
	m.cur.Store(&version{store: store, seq: cur.seq + 1, lsn: lsn})
}

// PinCheckpoint returns the current version's store together with the
// LSN of the last record it covers. The pair is one version, so it
// cannot tear, and the store is never written again: the caller streams
// core.Store.SaveChunked from it outside any lock while commits proceed
// at full speed.
func (m *Manager) PinCheckpoint() (*core.Store, uint64) {
	v := m.cur.Load()
	return v.store, v.lsn
}

// --- page locks -------------------------------------------------------------

// lockPages acquires write locks on the given logical pages for t,
// all-or-nothing. A page held by another transaction causes ErrConflict
// (no-wait two-phase locking; locks are held until commit/abort).
func (m *Manager) lockPages(t *Tx, pages []int32) error {
	m.lockMu.Lock()
	defer m.lockMu.Unlock()
	for _, pg := range pages {
		if owner, held := m.owners[pg]; held && owner != t {
			return ErrConflict
		}
	}
	for _, pg := range pages {
		m.owners[pg] = t
		t.pages[pg] = true
	}
	return nil
}

func (m *Manager) unlockAll(t *Tx) {
	m.lockMu.Lock()
	defer m.lockMu.Unlock()
	for pg := range t.pages {
		if m.owners[pg] == t {
			delete(m.owners, pg)
		}
	}
	t.pages = make(map[int32]bool)
}
