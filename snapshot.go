package mxq

import "mxq/internal/tx"

// ErrSnapshotClosed reports use of a snapshot handle after Close.
var ErrSnapshotClosed = tx.ErrSnapshotClosed

// Snapshot is an immutable point-in-time view of a document, held open
// until Close. Queries against it (the embedded Query, QueryValue,
// SerializeTo, XML — the methods a Document has) observe the
// committed version current when it was taken, no matter how many
// transactions commit afterwards — a committed version is never
// written again, and each commit copies the pages it modifies into the
// next one (the page-granular copy-on-write scheme of the paper's
// Section 3.2) — and it is safe for concurrent use by any number of
// goroutines.
//
// Lifetime contract: holding a snapshot keeps alive the chunks that
// commits have replaced since its version, and costs those commits no
// copies: they copy what they write whether or not anyone holds an
// older version. Close (idempotent) marks the handle closed; a handle
// nobody holds is the garbage collector's, closed or not.
type Snapshot struct {
	queries
	rv *tx.ReadView
}

// Snapshot returns a closeable handle on the document's current
// committed version: the same view a query takes for the length of one
// call, held until Close. Taking one is an atomic load.
func (d *Document) Snapshot() *Snapshot {
	rv := d.mgr.AcquireRead()
	return &Snapshot{queries: queries{read: rv.WithView}, rv: rv}
}

// Close closes the snapshot. Calling Close more than once is harmless
// and it is safe to race with commits and reads; using the snapshot
// afterwards returns ErrSnapshotClosed.
func (s *Snapshot) Close() { s.rv.Close() }

// Version returns the committed version the snapshot observes.
func (s *Snapshot) Version() uint64 { return s.rv.Version() }
