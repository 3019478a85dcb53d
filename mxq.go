// Package mxq is an embeddable XML database reproducing the storage and
// update architecture of MonetDB/XQuery as described in "Updating the
// Pre/Post Plane in MonetDB/XQuery" (Boncz, Manegold, Rittinger; CWI
// INS-E0506, 2005).
//
// Documents are shredded into the pre/size/level relational encoding and
// stored in the paper's *updatable* scheme: logical pages with unused
// tuples, a pageOffset indirection that lets page splices shift all
// following pre numbers for free, immutable node ids behind a node/pos
// table, and ACID transactions whose ancestor-size maintenance uses
// commutative delta increments so the document root never becomes a
// locking bottleneck. Write transactions run against a page-granular
// copy-on-write snapshot of the store (Section 3.2): beginning a
// transaction shares all pages with the base, and updates privately copy
// just the pages they touch.
//
// # Versioned-snapshot reads
//
// Every query entry point (Query, QueryVars, Prepared.Run, QueryValue,
// SerializeTo, XML) evaluates against an immutable committed version
// rather than under a lock, so reads fully overlap commits and commits
// never wait for readers. A document's committed state is a sequence of
// versions (Document.Version counts them): a commit installs the next
// one and never writes a published one again. Reading the current
// version is one atomic load. Page chunks are shared between versions —
// a commit copies only the pages it writes into the next version — and
// a version nobody reads any more is freed by the garbage collector,
// with every chunk no later version shares.
//
// # Snapshot handles and the Close contract
//
// Document.Snapshot hands out the same view a query takes for one
// call, held until Close: a *Snapshot whose queries (the read methods
// above, one implementation under both types) observe one committed
// version for as long as it is open. Holding a snapshot keeps alive the
// chunks replaced since its version, and costs the commits no copies:
// they copy what they write whether or not anyone holds an older
// version. Close is idempotent and safe to race with commits; using a
// handle after Close returns ErrSnapshotClosed.
//
// # Durability: incremental checkpoints, segmented WAL, group commit
//
// With Options.Dir set, every commit writes exactly one record to a
// segmented write-ahead log (the paper's single-I/O commit), and
// concurrent committers share the fsync through a leader/follower door
// (group commit): under load, N commits cost ~1 physical flush, so
// commit throughput rises with concurrency instead of serializing on
// the disk. A failed fsync leaves the document read-only until it is
// reopened, which reads the page cache and so is no proof that the
// record reached the disk. Checkpoints are *online* and *incremental*:
// Document.Checkpoint pins the current committed version, an immutable
// (store, LSN) pair — one atomic load, as on the read path — then
// serializes the store in content-addressed form outside any lock: every column
// chunk is named by its SHA-256 and stored under that name in the
// document's chunk store, and the LSN-stamped image is a small manifest
// of chunk names. A
// chunk stores only what cannot be derived (size, parent and node/pos
// are rebuilt from the levels on load), as varints and deltas — about 6
// bytes of structure per tuple next to the text itself, so an image is a
// little smaller than the XML it holds — in one format with no version switch:
// a chunk with another tag is refused ("unsupported chunk format"), as
// is an image file that does not open with the image magic
// ("unsupported image format"); neither is migrated. Chunks the store
// already holds — everything unchanged since the previous checkpoint,
// which the copy-on-write layer knows without hashing — are
// re-referenced, not rewritten, so checkpoint I/O is O(churn), not
// O(document), and frequent automatic checkpoints stay cheap on large
// documents. Superseded chunks are garbage-collected by mark-and-sweep
// over the retained images; Options.ChunkStore plugs in a different
// chunk backend per document (one that also offers PutMany — as the
// default local directory does, writing each batch as one pack file —
// gets a checkpoint's missing chunks as one batch, any other gets one
// Put per chunk). Completion is published
// atomically (chunks synced first, then tmp+rename+fsync of the image,
// the one commit point), and only WAL segments wholly below the pinned
// LSN are deleted — a commit racing the checkpoint lives in a segment
// the prune keeps, so it can never be lost, by construction.
// Options.CheckpointEvery runs this automatically in a per-document
// background goroutine once the WAL tail *beyond the last checkpoint*
// exceeds the policy — checked again when the goroutine picks the
// nudge up, so a burst of commits yields one checkpoint, not one per
// nudge — (CheckpointPolicy.Records, a count of committed records;
// Stats.WALRecords exposes that tail and Stats.WALBytes its size,
// Stats.Checkpoints the completions, and Stats.CkptBytesWritten /
// CkptChunksWritten / CkptChunksReused / CkptDedupeRatio the
// incremental win, Stats.CkptBytesStored what the written chunks take on disk, and
// Stats.CkptBytesCompacted what chunk GC rewrote to reclaim space);
// Database.Close drains it. Recovery loads the newest image and
// replays the segments above its LSN, degrading to the previous image
// over torn artifacts (leftover *.tmp, missing or torn image, torn or
// missing chunk) — each image names every chunk of
// the full document, so a candidate materializes whole or is skipped
// whole, never mixed — and never to silent loss: replay insists on
// gap-free LSNs.
//
// # Set-at-a-time query pipeline
//
// Queries execute the way MonetDB executes them: column-at-a-time, not
// node-at-a-time. Parsing an XPath expression (Query, Prepare) also
// compiles every location path into a plan of sequence-level operators —
// each step maps the *whole* context sequence through one staircase
// join over the pre/size/level columns, with the paper's context
// pruning (a context node inside an already-scanned region is skipped,
// so no tuple is inspected twice) and results emitted directly in
// document order (no per-step sort or dedupe). The compiler pushes name
// and kind tests into the scan, collapses the // shorthand into single
// descendant steps, fuses leading positional predicates ([1], [n]) into
// early-exit counters, and applies position-free boolean predicates
// over the merged sequence with a reusable scratch context; predicate
// shapes whose semantics need per-context numbering (last(), positions
// on reverse axes) run through a numbering operator that drives the
// same sequence operators one context node at a time. Prepared caches
// the compiled plan across runs, and Prepared.Explain (over the wire,
// mxqd's Explain request and mxqshell's explain) renders the chosen
// operators.
//
// # Serving over the network
//
// The library also runs as a daemon: cmd/mxqd serves a Database over
// TCP (length-prefixed binary frames; see internal/server for the
// protocol) with per-session prepared-statement caches, pinned read
// versions built on Snapshot handles, admission control, and graceful
// drain. Every request looks its document up with OpenDocument, so a
// document is recovered on its first request.
// The client package is the Go client, cmd/mxqload the load generator,
// and Example_server a served quickstart.
//
// # Replication
//
// A durable document can be followed by read replicas: the primary
// streams its per-document WAL over the wire (an empty follower first
// bootstraps from a pinned checkpoint image — by diffing the image's
// chunk manifest against its local chunk store and transferring only
// the chunks it is missing, so a crash-restarted follower re-bootstraps
// with O(churn) transfer — then replays record batches as they commit),
// and prunes no segment a live follower still needs. Database.FollowDocument subscribes a local document to a
// primary — mxqd -follow does this for every primary document and
// serves the result read-only. Every update response carries its
// commit LSN; a client configured with a read replica routes queries
// there tagged with the highest LSN its session has seen, and the
// follower holds each read until that LSN is applied (or fails typed,
// never silently stale) — read-your-writes on scale-out reads. See
// internal/repl, the ROADMAP "Replication" section, and
// Example_replication.
//
// Quick start:
//
//	db := mxq.Open(mxq.Options{})
//	doc, _ := db.LoadXMLString("lib", `<lib><book>A</book></lib>`)
//	res, _ := doc.Query(`/lib/book/text()`)
//	_, _ = doc.Update(`<xupdate:modifications xmlns:xupdate="http://www.xmldb.org/xupdate">
//	    <xupdate:append select="/lib"><book>B</book></xupdate:append>
//	</xupdate:modifications>`)
package mxq

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"sync"
	"syscall"

	"mxq/internal/chunkstore"
	"mxq/internal/ckpt"
	"mxq/internal/core"
	"mxq/internal/repl"
	"mxq/internal/shred"
	"mxq/internal/tx"
	"mxq/internal/vfs"
	"mxq/internal/wal"
)

// ChunkStore is the content-addressed blob store checkpoint images
// reference: immutable chunks named by their SHA-256, with batched
// existence probes so incremental checkpoints and bootstrap transfers
// move only missing chunks. The default backend is a local directory of
// pack files (<doc>.chunks/ next to the WAL); implement this interface
// to put chunks somewhere else (an object store, a cache hierarchy),
// and additionally PutMany(hs []ChunkHash, datas [][]byte) error to be
// handed a checkpoint's missing chunks as one batch. Garbage collection
// is the store's: after each checkpoint Sweep is told which chunks the
// retained images still name.
type ChunkStore = chunkstore.Store

// ChunkHash is a chunk's content address (SHA-256).
type ChunkHash = chunkstore.Hash

// CheckpointPolicy decides when a document's background checkpointer
// runs: once the un-checkpointed WAL tail holds Records committed
// records. A zero policy disables automatic checkpointing.
type CheckpointPolicy struct {
	// Records triggers a checkpoint once the live WAL segments hold at
	// least this many committed records.
	Records int
}

// Options configure a Database.
type Options struct {
	// PageSize is the logical page size in tuples (power of two;
	// default core.DefaultPageSize).
	PageSize int
	// FillFactor is the fraction of each page the shredder fills
	// (default core.DefaultFillFactor; the paper's Figure 9 scenario
	// corresponds to 0.8).
	FillFactor float64
	// Dir, when non-empty, enables durability: each document gets a
	// segmented write-ahead log (<name>.wal.NNNNNNNN), LSN-stamped
	// checkpoint images (<name>-<lsn>.ckpt) and a chunk directory
	// (<name>.chunks/) in Dir. Every document with an image there
	// exists: Documents lists it, and its first OpenDocument recovers it
	// (newest image first, degrading to older images over torn
	// artifacts). One Database owns Dir at a time: it holds a lock on
	// the empty file Dir/LOCK, no document's artifact, and an Open of a
	// Dir another Database holds, in any process, fails with ErrDirLocked.
	Dir string
	// NoSync skips fsync on WAL appends (faster, test-friendly).
	NoSync bool
	// WALSegmentBytes bounds each WAL segment file; the log rotates to a
	// fresh segment beyond it and checkpoints delete only whole covered
	// segments. Zero means wal.DefaultSegmentBytes.
	WALSegmentBytes int64
	// CheckpointEvery, when enabled, starts a per-document background
	// goroutine that writes an *online* checkpoint whenever the WAL tail
	// exceeds the policy — commits keep landing at full speed while the
	// image streams (see Document.Checkpoint). Close drains it.
	CheckpointEvery CheckpointPolicy
	// ChunkStore, when non-nil, supplies the content-addressed chunk
	// store backing each document's checkpoint images in place of the
	// default local directory (<doc>.chunks/ in Dir). With Dir set it is
	// called once each time a document attaches — LoadXML, and the
	// OpenDocument that recovers it — for the store that attachment
	// reads and checkpoints through, and once per follower bootstrap of
	// a document not attached (one that is hands over its own store),
	// for the store the fetched chunks land in and the new instance keeps.
	// Per-document scoping is what keeps chunk garbage collection sound,
	// so the stores returned for different documents must not share a
	// namespace. Note Drop only deletes the default directory; a custom
	// backend's data is the caller's to reclaim.
	ChunkStore func(doc string) ChunkStore
}

// ErrDirLocked reports an Open of an Options.Dir that another Database
// holds (errors.Is; the error names the directory).
var ErrDirLocked = errors.New("mxq: data directory is in use by another Database")

// ErrDatabaseClosed reports an operation on a closed Database.
var ErrDatabaseClosed = errors.New("mxq: database is closed")

// ErrNoDocument reports that the database holds no document of the
// requested name, in memory or on disk (errors.Is; the error names the
// document).
var ErrNoDocument = errors.New("mxq: no document")

// Database is a collection of named XML documents. A document exists
// while it is attached (loaded, or recovered by OpenDocument) or has a
// checkpoint image in Options.Dir.
type Database struct {
	mu     sync.RWMutex
	docs   map[string]*Document // attached documents
	opts   Options
	closed bool
	closeC chan struct{} // closed by Close: wakes every fence waiter
	// fences holds one channel per name whose artifacts are changing
	// (CloseDocument's final checkpoint, Drop's delete, a follower
	// bootstrap's wipe and republish); closing it ends the change.
	// Lookups, loads and drops of that name wait for it first (settle),
	// so none decides from half-written artifacts or a dying instance.
	fences map[string]chan struct{}
	lock   *os.File // Dir/LOCK, flocked until Close (nil without Dir)
}

// Open creates a database; with Options.Dir set it creates the
// directory and locks it, until Close — a process that dies releases
// the lock with it. It recovers nothing: each document attaches on its
// first OpenDocument.
func Open(opts Options) (*Database, error) {
	db := &Database{
		docs: make(map[string]*Document), opts: opts,
		closeC: make(chan struct{}), fences: make(map[string]chan struct{}),
	}
	if opts.Dir != "" {
		if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
			return nil, fmt.Errorf("mxq: %w", err)
		}
		lock, err := os.OpenFile(filepath.Join(opts.Dir, "LOCK"), os.O_RDONLY|os.O_CREATE, 0o644)
		if err != nil {
			return nil, fmt.Errorf("mxq: %w", err)
		}
		// A flock belongs to the open file, so a second Open in this
		// process is refused like one in another.
		if err := syscall.Flock(int(lock.Fd()), syscall.LOCK_EX|syscall.LOCK_NB); err != nil {
			lock.Close()
			if errors.Is(err, syscall.EWOULDBLOCK) {
				return nil, fmt.Errorf("%w: %s", ErrDirLocked, opts.Dir)
			}
			return nil, fmt.Errorf("mxq: locking %s: %w", opts.Dir, err)
		}
		db.lock = lock
	}
	return db, nil
}

// settle waits until no change to name's artifacts is in flight. The
// caller holds db.mu, which is released while waiting; it fails with
// ErrDatabaseClosed once the database is closed.
func (db *Database) settle(name string) error {
	for {
		if db.closed {
			return ErrDatabaseClosed
		}
		fence, ok := db.fences[name]
		if !ok {
			return nil
		}
		db.mu.Unlock()
		select {
		case <-fence:
		case <-db.closeC:
		}
		db.mu.Lock()
	}
}

// exists reports, with db.mu held, whether name is attached or has a
// checkpoint image on disk. A Dir that cannot be read is an error, never
// "absent": a load would take a checkpointed name, and the next recovery
// would replay its commits over the old image.
func (db *Database) exists(name string) (bool, error) {
	if _, ok := db.docs[name]; ok || db.opts.Dir == "" {
		return ok, nil
	}
	imgs, err := ckpt.Images(db.opts.Dir, name)
	if err != nil {
		return false, fmt.Errorf("mxq: looking up %q: %w", name, err)
	}
	return len(imgs) > 0, nil
}

// walPath is the base path of the document's WAL segments.
func (db *Database) walPath(name string) string {
	return filepath.Join(db.opts.Dir, name+".wal")
}

func (db *Database) openWAL(name string) (*wal.Log, error) {
	return wal.Open(db.walPath(name), wal.Options{NoSync: db.opts.NoSync, SegmentBytes: db.opts.WALSegmentBytes})
}

// chunkStore resolves the document's chunk store: the Options factory's
// if installed, else the local <name>.chunks directory.
func (db *Database) chunkStore(name string) ChunkStore {
	if db.opts.ChunkStore == nil {
		return ckpt.DefaultChunkStore(db.opts.Dir, name)
	}
	return db.opts.ChunkStore(name)
}

func (db *Database) recoverDoc(name string) (*Document, error) {
	log, err := db.openWAL(name)
	if err != nil {
		return nil, err
	}
	cs := db.chunkStore(name)
	store, _, err := ckpt.Recover(db.opts.Dir, name, log, cs)
	if err != nil {
		log.Close()
		return nil, err
	}
	return db.newDocument(name, store, log, cs), nil
}

// newDocument assembles a document over a built, recovered or
// bootstrapped store — the one place a Document is made. log and cs are
// nil without a durability directory; with one, the online checkpointer
// over the chunk store cs, the follower tracker and (when the policy
// asks for it) the background auto-checkpoint goroutine are wired here,
// and close tears them down.
func (db *Database) newDocument(name string, store *core.Store, log *wal.Log, cs ChunkStore) *Document {
	d := &Document{name: name, db: db, log: log, mgr: tx.NewManager(store, log)}
	d.read = d.readCurrent
	if log == nil {
		return d
	}
	d.tracker = repl.NewTracker()
	d.cs = cs
	d.ckpter = ckpt.New(vfs.OS, db.opts.Dir, name, log, d.mgr.PinCheckpoint, cs, d.tracker.Barrier)
	if db.opts.CheckpointEvery.Records > 0 {
		d.autoC = make(chan struct{}, 1)
		d.stopC = make(chan struct{})
		d.wg.Add(1)
		go d.autoCheckpointLoop()
	}
	return d
}

// LoadXML shreds and stores a document under the given name. The
// document is read into memory whole. It is durable from its first
// checkpoint on — an automatic or explicit one, or the one
// CloseDocument and Close write — and a crash before that loses it,
// committed updates and all.
func (db *Database) LoadXML(name string, r io.Reader) (*Document, error) {
	xml, err := shred.ReadAll(r)
	if err != nil {
		return nil, err
	}
	return db.LoadXMLString(name, xml)
}

// LoadXMLString is LoadXML over a string; the document keeps no
// reference to it. The shredder's tokens go straight into the store's
// pages (core.BuildXML), with no tree between.
func (db *Database) LoadXMLString(name, xml string) (*Document, error) {
	store, err := core.BuildXML(xml, core.Options{
		PageSize:   db.opts.PageSize,
		FillFactor: db.opts.FillFactor,
	})
	if err != nil {
		return nil, err
	}
	// The duplicate-name check must precede opening the WAL: wal.Open
	// runs a recovery scan that truncates what it takes for a torn tail,
	// and pointing a second scan at the live document's segments could
	// destroy records the running log is mid-append on. A document that
	// is only on disk is a duplicate too: the next recovery would replay
	// the new document's commits over the old one's image.
	db.mu.Lock()
	defer db.mu.Unlock()
	if err := db.settle(name); err != nil {
		return nil, err
	}
	if ok, err := db.exists(name); err != nil {
		return nil, err
	} else if ok {
		return nil, fmt.Errorf("mxq: document %q already exists", name)
	}
	var log *wal.Log
	var cs ChunkStore
	if db.opts.Dir != "" {
		// Segments without an image are what a crash before the first
		// checkpoint leaves: no document, and no log to continue.
		if err := wal.RemoveSegments(db.walPath(name)); err != nil {
			return nil, fmt.Errorf("mxq: removing the orphaned WAL of %q: %w", name, err)
		}
		if log, err = db.openWAL(name); err != nil {
			return nil, err
		}
		cs = db.chunkStore(name)
	}
	doc := db.newDocument(name, store, log, cs)
	db.docs[name] = doc
	return doc, nil
}

// OpenDocument returns the named document, attaching it on first use:
// a document that is not attached is recovered from its newest usable
// checkpoint image and the WAL above it (see internal/ckpt for the
// degradation order over torn artifacts). It is the one lookup — for a
// document loaded in this process, one on disk from an earlier one, and
// one detached by CloseDocument alike. While the name's artifacts are
// changing (CloseDocument, Drop, a follower bootstrap) it waits for the
// change to finish. A name neither attached nor checkpointed is
// ErrNoDocument.
func (db *Database) OpenDocument(name string) (*Document, error) {
	// Fast path, under the shared lock, for every served request: an
	// attached instance is never a dying one (detach takes it out of docs
	// as it fences the name), so it needs no settle.
	db.mu.RLock()
	d, ok := db.docs[name]
	db.mu.RUnlock()
	if ok {
		return d, nil
	}

	db.mu.Lock()
	defer db.mu.Unlock()
	if err := db.settle(name); err != nil {
		return nil, err
	}
	if d, ok := db.docs[name]; ok {
		return d, nil
	}
	if ok, err := db.exists(name); err != nil {
		return nil, err
	} else if !ok {
		return nil, fmt.Errorf("%w %q", ErrNoDocument, name)
	}
	d, err := db.recoverDoc(name)
	if err != nil {
		return nil, fmt.Errorf("mxq: recovering %q: %w", name, err)
	}
	db.docs[name] = d
	return d, nil
}

// detach settles name, takes its attached instance (nil if none) out of
// the database and fences the name until lift is called. A name that
// fails check is ErrNoDocument; a nil check admits any name.
func (db *Database) detach(name string, check func(string) (bool, error)) (doc *Document, lift func(), err error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	if err := db.settle(name); err != nil {
		return nil, nil, err
	}
	if check != nil {
		if ok, err := check(name); err != nil {
			return nil, nil, err
		} else if !ok {
			return nil, nil, fmt.Errorf("%w %q", ErrNoDocument, name)
		}
	}
	doc = db.docs[name]
	delete(db.docs, name)
	fence := make(chan struct{})
	db.fences[name] = fence
	return doc, func() {
		db.mu.Lock()
		delete(db.fences, name)
		db.mu.Unlock()
		close(fence)
	}, nil
}

// CloseDocument detaches one attached document: the auto-checkpointer
// is drained, a final checkpoint is written (so the reopen replays no
// WAL and a never-checkpointed document is not lost), the checkpointer
// is closed and the WAL segments released. Durability artifacts stay on
// disk — the next OpenDocument recovers a new instance from them, and
// waits for this call to publish the final image first; contrast Drop,
// which deletes them. The caller must guarantee no in-flight queries or
// transactions on the document. Without a durability directory this
// discards the document, exactly like Drop.
func (db *Database) CloseDocument(name string) error {
	doc, lift, err := db.detach(name, func(name string) (bool, error) { return db.docs[name] != nil, nil })
	if err != nil {
		return err
	}
	defer lift()
	return doc.close(true)
}

// Documents lists, sorted, the names of the documents that exist:
// attached, checkpointed in Options.Dir, or mid-change.
func (db *Database) Documents() []string {
	db.mu.RLock()
	defer db.mu.RUnlock()
	var names []string
	if db.opts.Dir != "" {
		entries, _ := os.ReadDir(db.opts.Dir)
		for _, e := range entries {
			if name, _, ok := ckpt.DocumentOfArtifact(e.Name()); ok {
				names = append(names, name)
			}
		}
	}
	for n := range db.docs {
		names = append(names, n)
	}
	for n := range db.fences {
		names = append(names, n)
	}
	sort.Strings(names)
	return slices.Compact(names)
}

// Drop removes a document and its durability files, attached or not. A
// Dir that cannot be read fails it, rather than answering ErrNoDocument.
// A nil answer means every file is gone and the unlinks of the images and
// segments are durable; otherwise Drop returns the first error, having
// removed what it could.
func (db *Database) Drop(name string) error {
	doc, lift, err := db.detach(name, db.exists)
	if err != nil {
		return err
	}
	defer lift()
	if doc != nil {
		// close waits out an in-flight checkpoint before the artifacts
		// go: a Run that lost this race would otherwise republish an
		// image and prune a WAL that no longer exists.
		doc.close(false)
	}
	if db.opts.Dir == "" {
		return nil
	}
	// Exact-boundary removal: a document whose name is a prefix of
	// another ("a" vs "a-b") must never take the other's artifacts.
	// Images go first: a name without images no longer exists, so a Drop
	// that fails later leaves no document behind, only litter.
	err = ckpt.RemoveArtifacts(db.opts.Dir, name)
	if serr := wal.RemoveSegments(db.walPath(name)); err == nil {
		err = serr
	}
	// Dropping the document is the one case chunks go too: no future
	// image of this document will reference them. (Only the default
	// local store — a caller-supplied ChunkStore manages its own data.)
	// vfs.FS has no RemoveAll, so this one delete does not go through it.
	if db.opts.ChunkStore == nil {
		if cerr := os.RemoveAll(ckpt.ChunkDir(db.opts.Dir, name)); err == nil {
			err = cerr
		}
	}
	return err
}

// Close drains every document's auto-checkpointer (a checkpoint in
// flight finishes; no new one starts), writes each attached document's
// final checkpoint as CloseDocument does, and closes the WAL segments; a
// call waiting out a change to some name's artifacts fails with
// ErrDatabaseClosed. Last it releases Options.Dir's lock, also when a
// document's close failed. It is idempotent, and safe to race with manual
// Checkpoint calls: a checkpoint that loses the race fails with
// ckpt.ErrClosed instead of writing through a closed log.
func (db *Database) Close() error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed {
		return nil
	}
	db.closed = true
	close(db.closeC)
	var first error
	for _, d := range db.docs {
		if err := d.close(true); err != nil && first == nil {
			first = err
		}
	}
	db.docs = map[string]*Document{}
	if db.lock != nil {
		db.lock.Close() // nothing was written through it
	}
	return first
}
