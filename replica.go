package mxq

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"mxq/internal/chunkstore"
	"mxq/internal/ckpt"
	"mxq/internal/core"
	"mxq/internal/repl"
	"mxq/internal/tx"
	"mxq/internal/wal"
	"mxq/internal/xupdate"
)

// This file is the root-package face of WAL log-shipping replication
// (internal/repl): the primary side hands a document's WAL, checkpoint
// pin and follower tracker to the server's SubscribeWAL handler
// (ReplSource); the follower side maintains a subscription that keeps
// a local document in lockstep with a primary (FollowDocument). A
// follower document is a crash-recovered image of the primary at its
// applied LSN: records are replayed through the exact apply path
// recovery uses, the local WAL reproduces the primary's numbering, and
// local checkpoints bound restart time the same way they do on a
// primary. Read-your-writes across the pair is by LSN: Tx.CommitLSN on
// the primary, WaitApplied on the follower.

// ErrNotReplicated reports a replication operation on a document
// without a durability directory: no WAL, nothing to ship.
var ErrNotReplicated = errors.New("mxq: replication requires a durability directory")

// ErrStale reports a WaitApplied timeout: the document had not applied
// the requested LSN in time. Callers branch on it with errors.Is.
var ErrStale = tx.ErrStale

// ReplSource exposes the document to the replication sender: its WAL
// (the stream), its checkpoint pin (the bootstrap image) and its
// follower tracker (the prune fence). The server's SubscribeWAL
// handler passes it to repl.Serve.
func (d *Document) ReplSource() (repl.Source, error) {
	if d.log == nil || d.tracker == nil {
		return repl.Source{}, fmt.Errorf("%w (document %q)", ErrNotReplicated, d.name)
	}
	return repl.Source{Name: d.name, Log: d.log, Pin: d.mgr.PinCheckpoint, Track: d.tracker}, nil
}

// AppliedLSN is the document's read-your-writes watermark: the highest
// WAL LSN whose effects every new snapshot observes. On a primary it
// is the last commit; on a follower, the last replicated record
// applied.
func (d *Document) AppliedLSN() uint64 { return d.mgr.AppliedLSN() }

// LastLSN is the WAL tail (0 without a durability directory). On a
// follower, LastLSN−AppliedLSN is always 0 (records apply as they
// arrive); lag against the *primary's* tail is what DocStatus measures.
func (d *Document) LastLSN() uint64 {
	if d.log == nil {
		return 0
	}
	return d.log.LastLSN()
}

// WaitApplied parks until the document has applied lsn — the
// read-your-writes primitive: a client that committed at lsn on the
// primary calls this (through the server's Query minLSN field) before
// reading from a follower. It fails with tx.ErrStale after timeout
// rather than ever serving a read the caller knows is stale. lsn 0
// returns immediately.
func (d *Document) WaitApplied(lsn uint64, timeout time.Duration) error {
	return d.mgr.WaitApplied(lsn, timeout)
}

// Followers returns the number of live replication subscriptions.
func (d *Document) Followers() int {
	if d.tracker == nil {
		return 0
	}
	return d.tracker.Count()
}

// CommitLSN returns the WAL LSN the commit was assigned (0 before
// Commit, for an empty commit, or without a durability directory):
// the token to pass to a follower read for read-your-writes.
func (t *Tx) CommitLSN() uint64 { return t.inner.CommitLSN() }

// UpdateLSN is Update returning the commit's WAL LSN alongside the
// result — what the server embeds in Update responses so the client
// can pass it back as a follower read's minimum LSN.
func (d *Document) UpdateLSN(xupdateXML string) (xupdate.Result, uint64, error) {
	mods, err := xupdate.ParseString(xupdateXML)
	if err != nil {
		return xupdate.Result{}, 0, err
	}
	t := d.Begin()
	// Abort is a no-op once Commit has run; on an error or a panic it
	// gives the transaction's page locks back.
	defer t.Abort()
	res, err := xupdate.Execute(t.inner, mods)
	if err != nil {
		return res, 0, err
	}
	if err := t.Commit(); err != nil {
		return res, 0, err
	}
	return res, t.CommitLSN(), nil
}

// FollowDocument subscribes the named document to a primary at addr
// and keeps it converged in the background: an empty or out-of-date
// replica bootstraps from a pinned checkpoint image, then replays WAL
// record batches as the primary commits them, reconnecting with
// backoff on any failure. The returned stop function ends the
// subscription and waits it out (call it before Database.Close).
//
// The database must have a durability directory — the follower's local
// WAL and checkpoints are what make its acks mean "durably applied",
// and what let a restarted follower resume by WAL replay instead of a
// full re-bootstrap. The caller must not write to a followed document;
// serve it read-only (the daemon's -follow mode enforces this at the
// protocol layer with CodeReadOnly).
func (db *Database) FollowDocument(addr, name string) (stop func(), err error) {
	if db.opts.Dir == "" {
		return nil, ErrNotReplicated
	}
	db.mu.RLock()
	closed := db.closed
	db.mu.RUnlock()
	if closed {
		return nil, ErrDatabaseClosed
	}
	f := &repl.Follower{Addr: addr, Doc: name, Sink: &docSink{db: db, name: name}}
	stopC := make(chan struct{})
	done := make(chan struct{})
	go func() { defer close(done); f.Run(stopC) }()
	var once sync.Once
	return func() {
		once.Do(func() { close(stopC) })
		<-done
	}, nil
}

// docSink feeds a subscription into one named document of the
// database — the one repl.Sink in the tree. It is driven from the
// follower's single goroutine, and finds the document the way every
// caller does, through OpenDocument: a restarted follower attaches its
// local image and WAL and resumes by replay.
type docSink struct {
	db   *Database
	name string
}

// AppliedLSN implements repl.Sink. A document that does not exist, or
// whose artifacts no longer recover, is no state: the subscription
// bootstraps, which replaces it.
func (s *docSink) AppliedLSN() (uint64, bool) {
	d, err := s.db.OpenDocument(s.name)
	if err != nil {
		return 0, false
	}
	return d.mgr.AppliedLSN(), true
}

// ChunkStore hands a bootstrap the document's chunk store — the one
// local checkpoints write, so what a previous incarnation of this
// follower checkpointed is not transferred again. An attached instance
// hands over its own, its checkpoints stopped for good: they would sweep
// the fetched chunks, which none of its images names. Should the
// bootstrap fail, the retry bootstraps into the same store, as the
// primary's WAL still does not reach the instance's LSN.
func (s *docSink) ChunkStore() chunkstore.Store {
	s.db.mu.RLock()
	old := s.db.docs[s.name]
	s.db.mu.RUnlock()
	if old == nil {
		return s.db.chunkStore(s.name)
	}
	old.drainAuto()
	old.ckpter.Close() // waits out a Run in flight
	return old.cs
}

// BootstrapManifest replaces the document wholesale from the manifest
// of a checkpoint image pinned at lsn. Every chunk the manifest names
// is already in cs, the store the bootstrap fetched into, so the
// store materializes locally with no further transfer, and the
// bootstrapped document keeps cs for its checkpoints. The old
// instance (if any) is detached and its artifacts wiped — its history
// is foreign to the image's LSN line — then a fresh WAL is positioned
// at lsn and an initial local checkpoint written, so a follower
// restart recovers locally and resumes by WAL replay instead of a
// second bootstrap. The chunk directory deliberately survives the
// wipe: chunks are named by content, not by LSN line, so they are
// exactly as valid for the new incarnation, and the initial local
// checkpoint re-references them instead of rewriting the document.
// Readers holding the old instance's snapshots finish undisturbed on
// them; OpenDocument waits for the bootstrapped document to be
// published.
func (s *docSink) BootstrapManifest(m *core.ChunkManifest, lsn uint64, cs chunkstore.Store) error {
	store, err := core.LoadChunked(m, cs)
	if err != nil {
		return fmt.Errorf("mxq: materializing bootstrap manifest: %w", err)
	}
	db := s.db
	// The name stays fenced until the new instance is published (or this
	// bootstrap fails): recovery from a half-wiped directory would
	// resurrect a dead LSN line.
	old, lift, err := db.detach(s.name, nil)
	if err != nil {
		return err
	}
	defer lift()
	if old != nil {
		// Detach without a final checkpoint: the old image is on a dead
		// LSN line and about to be wiped.
		old.close(false)
	}
	// A segment of the dead LSN line that survived would be read by the
	// new log: a wipe that fails fails the bootstrap.
	if err := ckpt.RemoveArtifacts(db.opts.Dir, s.name); err != nil {
		return fmt.Errorf("mxq: wiping %q for bootstrap: %w", s.name, err)
	}
	if err := wal.RemoveSegments(db.walPath(s.name)); err != nil {
		return fmt.Errorf("mxq: wiping %q for bootstrap: %w", s.name, err)
	}

	log, err := db.openWAL(s.name)
	if err != nil {
		return err
	}
	// The local log must hand out exactly the LSNs the primary's stream
	// carries next; records at or below lsn are inside the image.
	log.EnsureLSN(lsn)
	doc := db.newDocument(s.name, store, log, cs)
	if err := doc.Checkpoint(); err != nil {
		doc.close(false)
		return fmt.Errorf("mxq: writing bootstrap checkpoint: %w", err)
	}

	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed {
		doc.close(false)
		return ErrDatabaseClosed
	}
	db.docs[s.name] = doc
	return nil
}

// Apply replays a record batch and makes it durable before returning
// the LSN to ack — the primary treats the ack as permission to prune,
// so acking anything a local crash could lose would strand this
// follower on the snapshot path forever.
func (s *docSink) Apply(recs []*wal.Record) (uint64, error) {
	d, err := s.db.OpenDocument(s.name)
	if err != nil {
		return 0, fmt.Errorf("mxq: follower document %q: %w", s.name, err)
	}
	for _, rec := range recs {
		if err := d.mgr.ApplyReplicated(rec); err != nil {
			return 0, err
		}
	}
	last := recs[len(recs)-1].LSN
	if err := d.log.Sync(last); err != nil {
		return 0, err
	}
	d.maybeAutoCheckpoint()
	return last, nil
}
