package mxq

import (
	"fmt"
	"os"
	"runtime"

	"mxq/internal/tx"
)

// ErrSnapshotClosed reports use of a snapshot handle after Close.
var ErrSnapshotClosed = tx.ErrSnapshotClosed

// Snapshot is an immutable point-in-time view of a document, held open
// until Close. Queries against it (the embedded Query, QueryValue,
// SerializeTo, XML — the methods a Document has) observe the
// committed version current when it was taken, no matter how many
// transactions commit afterwards — commits copy the pages they modify
// instead of updating shared chunks in place (the page-granular
// copy-on-write scheme of the paper's Section 3.2) — and it is safe for
// concurrent use by any number of goroutines.
//
// Lifetime contract: a held snapshot keeps the chunks it shares with the
// base store copy-on-write, so commits that overlap its lifetime pay one
// page copy per page they dirty. Close (idempotent) returns the handle's
// chunk references; once the last sharer of the version is gone, the
// base store resumes writing those chunks in place, so a snapshot's
// total cost is bounded by the pages dirtied while it was open. Always
// pair Snapshot with a deferred Close. A handle that is garbage-collected
// unclosed is released by a finalizer and reported on stderr, but until
// the collector runs the base keeps paying the copy-on-write tax.
type Snapshot struct {
	queries
	rv *tx.ReadView
}

// Snapshot returns a closeable handle on the document's current
// committed version: the same lease a query takes for the length of one
// call, held until Close. Handles taken at the same version share one
// underlying snapshot with each other and with the query path, so
// taking one is cheap (at most one O(pages) refcount sweep, usually
// none). The caller must Close the handle when done.
func (d *Document) Snapshot() *Snapshot {
	rv := d.mgr.AcquireRead()
	// Each read takes a reference of its own (WithView), so a Close
	// racing it — or the finalizer, should the handle become garbage
	// mid-call — cannot release the snapshot's chunks until it returns.
	s := &Snapshot{queries: queries{read: rv.WithView}, rv: rv}
	runtime.SetFinalizer(s, (*Snapshot).leaked)
	return s
}

// Close releases the snapshot. Calling Close more than once is harmless
// and it is safe to race with commits; using the snapshot afterwards
// returns ErrSnapshotClosed.
func (s *Snapshot) Close() {
	runtime.SetFinalizer(s, nil)
	s.rv.Close()
}

// Version returns the committed version the snapshot observes.
func (s *Snapshot) Version() uint64 { return s.rv.Version() }

// leaked is the garbage-collection backstop for a handle nobody closed:
// release it so the base stops paying for it, and say so.
func (s *Snapshot) leaked() {
	s.rv.Close()
	fmt.Fprintf(os.Stderr, "mxq: Snapshot of version %d was garbage-collected without Close; "+
		"the base store paid copy-on-write for its chunks until now\n", s.rv.Version())
}
