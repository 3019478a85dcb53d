// Package tx implements the transaction protocol of Section 3.2
// (Figure 8) over the paged document store:
//
//   - read-only queries run against an immutable per-version snapshot
//     (AcquireRead): the manager keeps a monotonic version counter,
//     bumped on every commit, and lazily caches one copy-on-write
//     snapshot for the current committed version, built once by the
//     first reader after a commit while any others arriving meanwhile
//     wait for it. Acquiring a read view at an unchanged version is a
//     refcount bump — no per-query O(pages) snapshot, and no lock held
//     during evaluation, so long scans never block commits and commits
//     never block readers;
//   - write transactions work in isolation on a *page-granular
//     copy-on-write* image of the base store (core.Store.Snapshot): the
//     image shares all pages with the base and privately copies only the
//     pages its updates touch, so beginning a transaction and making a
//     small update are both O(pages touched), never O(document). They
//     acquire page-grained write locks for every logical page their
//     structural updates touch (no-wait locking: a conflict aborts the
//     younger request instead of risking deadlock). Nothing locks or
//     re-checks what they read, so they are snapshot-isolated, not
//     serializable: two that each read what the other writes can both
//     commit (write skew);
//   - ancestor size maintenance is performed with commutative delta
//     increments at commit, so concurrent writers under the same
//     ancestors — in particular the document root — never contend on
//     ancestor pages ("delta operations are commutative, it does not
//     matter in which order they are executed");
//   - commit takes the global write lock briefly: write one WAL record,
//     replay the transaction's resolved operations onto the base store,
//     release.
//
// A write is one value from the XUpdate executor to replay: a wal.Op,
// which names its target by immutable node id. Tx.Apply takes the op's
// page locks, performs it on the image with core.Store.Apply and logs
// that same op with the ids of the nodes it inserted; ApplyOps replays
// a log through core.Store.Apply again — at commit, in recovery and on a
// follower — mapping those transaction-local ids to the base's.
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

// Manager coordinates transactions over one base store.
type Manager struct {
	mu    sync.RWMutex // the paper's global read/write lock
	store *core.Store
	log   *wal.Log

	// version counts committed write transactions. It is bumped inside
	// the commit critical section (under mu) and read atomically by the
	// lock-free read path to detect a stale cached snapshot.
	version atomic.Uint64

	// cached is the snapshot for the current committed version, built
	// lazily by the read path and replaced (never mutated) when a reader
	// first arrives after a commit. buildMu admits one builder at a
	// time, so each version is built once however many first readers
	// race in; commits never take it. Commit drops the cache-slot
	// reference of a superseded snapshot (invalidateStale) so a
	// write-only phase neither pins the old version in memory nor pays
	// copy-on-write for chunks no reader will ever lease again.
	cached  atomic.Pointer[readSnap]
	buildMu sync.Mutex

	lockMu sync.Mutex
	owners map[int32]*Tx // logical page -> holder

	commits uint64        // under mu, bumped in the commit critical section
	aborts  atomic.Uint64 // bumped by Abort without any manager lock

	// applied is the read-your-writes watermark (see repl.go).
	applied appliedLSN
}

// readSnap is one cached per-version snapshot plus its lease count: one
// reference is held by the manager's cache slot while the snap is
// current, plus one per open ReadView. When the count reaches zero —
// the cache has moved on to a newer version and the last reader closed —
// the snapshot's chunk references are released, handing ownership back
// to the base store (see core.Store.Release).
type readSnap struct {
	store   *core.Store
	version uint64
	refs    atomic.Int64
}

func (rs *readSnap) release() {
	if rs.refs.Add(-1) == 0 {
		rs.store.Release()
	}
}

// tryAcquire takes one reference unless the snapshot is already fully
// released. The CAS loop makes the "is it still alive" check and the
// increment atomic: a reader that loses the race against the final
// release must not resurrect a snapshot whose chunks are already handed
// back.
func (rs *readSnap) tryAcquire() bool {
	for {
		n := rs.refs.Load()
		if n <= 0 {
			return false
		}
		if rs.refs.CompareAndSwap(n, n+1) {
			return true
		}
	}
}

// ReadView is a leased handle on the snapshot of one committed version:
// the one read handle, whether it lives for a single query or is held
// across many commits. The view is read without any lock and is safe
// for concurrent use — commits copy the pages they modify instead of
// updating shared chunks in place (Section 3.2's copy-on-write reader
// isolation). Leases taken at the same version share one snapshot with
// each other and with the manager's cache slot; holding one open pins
// the chunks its version shares with the base, so a long-running reader
// costs the base only the pages dirtied by commits that overlap it, and
// the base resumes in-place writes on a chunk as soon as its last
// sharer is gone. The caller must Close the lease — nothing in this
// package does it on the caller's behalf.
type ReadView struct {
	rs     *readSnap
	closed atomic.Bool
}

// View returns the immutable document view. It must not be used after
// Close; a reader that cannot rule out a concurrent Close goes through
// WithView instead.
func (rv *ReadView) View() xenc.DocView { return rv.rs.store }

// Version returns the committed version the view observes.
func (rv *ReadView) Version() uint64 { return rv.rs.version }

// WithView runs fn against the view while holding a temporary reference
// of its own, so a Close racing the call from another goroutine cannot
// release the snapshot's chunks mid-read — the release is deferred
// until fn returns. It fails with ErrSnapshotClosed once Close has been
// called.
func (rv *ReadView) WithView(fn func(v xenc.DocView) error) error {
	if rv.closed.Load() || !rv.rs.tryAcquire() {
		return ErrSnapshotClosed
	}
	defer rv.rs.release()
	return fn(rv.rs.store)
}

// Close returns the lease. Once the last sharer of the version is gone
// (leases and the manager's cache slot all count), the snapshot's chunk
// references are handed back to the base store. Close is idempotent and
// safe to call concurrently with commits and with WithView.
func (rv *ReadView) Close() {
	if rv.closed.CompareAndSwap(false, true) {
		rv.rs.release()
	}
}

// NewManager wraps a store; log may be nil for a volatile database.
func NewManager(store *core.Store, log *wal.Log) *Manager {
	m := &Manager{
		store:  store,
		log:    log,
		owners: make(map[int32]*Tx),
	}
	if log != nil {
		// Everything recovered (or replicated) up to the log's tail is in
		// the store the caller hands us, so the read-your-writes watermark
		// starts there — a client that saw LSN n commit before a failover
		// must not be told the recovered replica is behind n.
		m.applied.advance(log.LastLSN())
	}
	return m
}

// Version returns the number of committed write transactions.
func (m *Manager) Version() uint64 { return m.version.Load() }

// AcquireRead leases an immutable snapshot of the current committed
// version. The fast path — the cached snapshot is still current — is an
// atomic pointer load, a version check and a refcount bump: no lock is
// held while the caller evaluates against the view, so readers fully
// overlap commits. The slow path builds the version's O(pages) snapshot
// once: the first reader after a commit builds it under the shared read
// lock (snapshot construction only increments chunk refcounts, so it
// runs beside other readers, Begins and checkpoints), and readers that
// arrive meanwhile wait for that build and share it instead of
// repeating it. A commit never waits for a build longer than for any
// other holder of the shared lock.
//
// The caller must Close the returned view when done; the snapshot for a
// superseded version is dropped when its last reader closes, returning
// chunk ownership to the base store.
func (m *Manager) AcquireRead() *ReadView {
	return &ReadView{rs: m.acquireSnap()}
}

// acquireSnap returns the current version's snapshot with one reference
// taken for the caller.
func (m *Manager) acquireSnap() *readSnap {
	if rs := m.cachedCurrent(); rs != nil {
		return rs
	}
	m.buildMu.Lock()
	defer m.buildMu.Unlock()
	if rs := m.cachedCurrent(); rs != nil {
		return rs // built by the reader this one waited for
	}
	// The snapshot and its version are captured together under the
	// shared lock, so a commit cannot slip between them.
	m.mu.RLock()
	rs := &readSnap{store: m.store.Snapshot(), version: m.version.Load()}
	m.mu.RUnlock()
	rs.refs.Store(2) // the caller's lease and the cache slot's
	if old := m.cached.Swap(rs); old != nil {
		old.release()
	}
	// A commit that landed after the build ran its invalidateStale
	// before rs was in the slot: evict rs now, as that call would have,
	// so a write-only phase pins nothing.
	m.invalidateStale()
	return rs
}

// cachedCurrent takes a reference on the cached snapshot if it is of the
// current version and still alive, and returns nil otherwise.
func (m *Manager) cachedCurrent() *readSnap {
	if rs := m.cached.Load(); rs != nil && rs.version == m.version.Load() && rs.tryAcquire() {
		return rs
	}
	return nil
}

// invalidateStale drops the cache-slot reference of a snapshot whose
// version has been superseded, so open readers keep their leases but
// the cache stops pinning the old version across a write-only phase.
// Commit calls it after releasing the global lock. One compare-and-swap
// suffices: the only other slot writer, acquireSnap, calls it again
// after each install.
func (m *Manager) invalidateStale() {
	if rs := m.cached.Load(); rs != nil && rs.version != m.version.Load() && m.cached.CompareAndSwap(rs, nil) {
		rs.release()
	}
}

// Stats are the manager's counters and the base store's shape, read in
// one critical section; Aborts, which no lock guards, is read beside it.
type Stats struct {
	Commits, Aborts uint64 // finished write transactions
	LiveNodes       int    // live nodes
	Tuples          int    // tuples including unused space
	Pages, PageSize int    // logical pages, tuples per page
	Names           int    // base name pool entries (only commits add one)
}

// Stats reads the counters and the base store's shape under the shared
// lock. It builds no snapshot, so polling it through a write-only phase
// leaves the cache slot empty.
func (m *Manager) Stats() Stats {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return Stats{
		Commits:   m.commits,
		Aborts:    m.aborts.Load(),
		LiveNodes: m.store.LiveNodes(),
		Tuples:    int(m.store.Len()),
		Pages:     m.store.Pages(),
		PageSize:  m.store.PageSize(),
		Names:     m.store.Names().Len(),
	}
}

// CheckInvariants validates the base store's storage invariants with
// commits excluded (testing hook).
func (m *Manager) CheckInvariants() error {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.store.CheckInvariants()
}

// Begin starts a write transaction. The returned Tx is not safe for
// concurrent use by multiple goroutines.
//
// The transaction's private image is a page-granular copy-on-write
// snapshot (core.Store.Snapshot): taking it costs O(pages) and the
// transaction's writes materialize only the pages they touch. Snapshot
// creation only increments chunk reference counts — it never mutates
// base-private state — so it runs under the shared read lock (to
// exclude commits) and proceeds in parallel with read-only queries and
// other Begins.
func (m *Manager) Begin() *Tx {
	clone := m.snapshot()
	return &Tx{imageView: clone, m: m, clone: clone, pages: make(map[int32]bool)}
}

func (m *Manager) snapshot() *core.Store {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.store.Snapshot()
}

// PinCheckpoint captures a copy-on-write snapshot of the base store
// together with the LSN of the last record it covers, atomically with
// respect to commits (commits append to the WAL and apply to the base
// inside the write-lock critical section, so under the shared read lock
// the pair cannot tear). The snapshot costs O(pages) refcount bumps; the
// caller streams core.Store.SaveChunked from it outside any lock —
// commits proceed at full speed during the write — and must Release it
// when done.
func (m *Manager) PinCheckpoint() (*core.Store, uint64) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	snap := m.store.Snapshot()
	var lsn uint64
	if m.log != nil {
		lsn = m.log.LastLSN()
	}
	return snap, lsn
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
