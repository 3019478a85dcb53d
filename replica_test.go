package mxq

import (
	"errors"
	"fmt"
	"net"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mxq/internal/chunkstore"
	"mxq/internal/ckpt"
	"mxq/internal/repl"
	"mxq/internal/tx"
	"mxq/internal/wal"
	"mxq/internal/wire"
)

// countingConn counts the bytes the primary writes to the follower —
// the transfer volume the bootstrap's chunk diff exists to shrink.
type countingConn struct {
	net.Conn
	sent *atomic.Int64
}

func (c *countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.sent.Add(int64(n))
	return n, err
}

// replListener is a minimal primary endpoint: Hello + SubscribeWAL
// delegated to repl.Serve over the document's ReplSource (the real
// daemon wires the same calls through internal/server). It negotiates
// features exactly like the server, and the returned counter
// accumulates every byte sent to followers.
func replListener(t *testing.T, doc *Document) (net.Listener, *atomic.Int64) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	sent := new(atomic.Int64)
	var wg sync.WaitGroup
	t.Cleanup(func() { ln.Close(); wg.Wait() })
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			raw, err := ln.Accept()
			if err != nil {
				return
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				conn := &countingConn{Conn: raw, sent: sent}
				defer conn.Close()
				for {
					fr, err := wire.ReadFrame(conn, 0)
					if err != nil {
						return
					}
					switch fr.Op {
					case wire.OpHello:
						r := wire.NewPayloadReader(fr.Payload)
						cliVer, _ := r.Uvarint()
						cliFeats, _ := r.Uvarint()
						proto, feats, ok := wire.Negotiate(cliVer, wire.FeatReplication, cliFeats)
						if !ok {
							return
						}
						var b wire.PayloadBuilder
						b.Uvarint(proto).Uvarint(feats)
						wire.WriteFrame(conn, wire.Frame{ID: fr.ID, Op: wire.StatusOK, Payload: b.Bytes()})
					case wire.OpSubscribeWAL:
						r := wire.NewPayloadReader(fr.Payload)
						if _, err := r.String(); err != nil {
							return
						}
						after, err := r.Uvarint()
						if err != nil {
							return
						}
						src, err := doc.ReplSource()
						if err != nil {
							return
						}
						repl.Serve(conn, fr.ID, after, src, 0, t.Logf)
						return
					default:
						return
					}
				}
			}()
		}
	}()
	return ln, sent
}

func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

const replDoc = `<lib><shelf id="s1"><book>A</book></shelf></lib>`

func appendBook(t *testing.T, doc *Document, name string) uint64 {
	t.Helper()
	txn := doc.Begin()
	if _, err := txn.Update(`<xupdate:modifications xmlns:xupdate="http://www.xmldb.org/xupdate">
		<xupdate:append select="/lib/shelf"><book>` + name + `</book></xupdate:append>
	</xupdate:modifications>`); err != nil {
		txn.Abort()
		t.Fatal(err)
	}
	if err := txn.Commit(); err != nil {
		t.Fatal(err)
	}
	return txn.CommitLSN()
}

// appliedAt reports whether the named document exists on db and has
// applied lsn.
func appliedAt(db *Database, name string, lsn uint64) bool {
	d, err := db.OpenDocument(name)
	return err == nil && d.AppliedLSN() == lsn
}

// books is a one-shelf library of n numbered books.
func books(n int) string {
	var sb strings.Builder
	sb.WriteString(`<lib><shelf id="s1">`)
	for i := 0; i < n; i++ {
		fmt.Fprintf(&sb, "<book>title-%05d</book>", i)
	}
	sb.WriteString(`</shelf></lib>`)
	return sb.String()
}

// TestFollowDocument is the whole follower lifecycle against a live
// primary: empty-directory bootstrap, live streaming, read-your-writes
// by LSN, restart with WAL-mode resume.
func TestFollowDocument(t *testing.T) {
	primaryDB, err := Open(Options{Dir: t.TempDir(), NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer primaryDB.Close()
	doc, err := primaryDB.LoadXMLString("lib", replDoc)
	if err != nil {
		t.Fatal(err)
	}
	appendBook(t, doc, "B")
	ln, sent := replListener(t, doc)

	followerDir := t.TempDir()
	follower := func() *Database {
		t.Helper()
		db, err := Open(Options{Dir: followerDir, NoSync: true})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { db.Close() })
		return db
	}
	// stop ends the subscription and waits until the primary has let go
	// of it, so no byte of it is counted against the next one.
	follow := func(db *Database) (stop func()) {
		t.Helper()
		stopFollow, err := db.FollowDocument(ln.Addr().String(), "lib")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(stopFollow)
		return func() {
			stopFollow()
			waitUntil(t, "unsubscribe", func() bool { return doc.Followers() == 0 })
		}
	}
	followerDB := follower()
	stop := follow(followerDB)
	waitUntil(t, "bootstrap", func() bool { return appliedAt(followerDB, "lib", doc.LastLSN()) })

	// Read-your-writes: commit on the primary, wait for the LSN on the
	// follower, then the read must see it.
	lsn := appendBook(t, doc, "C")
	fdoc, err := followerDB.OpenDocument("lib")
	if err != nil {
		t.Fatal(err)
	}
	if err := fdoc.WaitApplied(lsn, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	if n, err := fdoc.QueryValue(`count(//book[text()="C"])`); err != nil || n != "1" {
		t.Fatalf("follower read after WaitApplied: n=%s err=%v", n, err)
	}
	// A too-new LSN is a typed staleness failure, never a silent stale read.
	if err := fdoc.WaitApplied(lsn+100, 20*time.Millisecond); !errors.Is(err, tx.ErrStale) {
		t.Fatalf("future LSN wait = %v", err)
	}
	waitUntil(t, "follower registration", func() bool { return doc.Followers() == 1 })
	cold := sent.Load()

	// Restart the follower: the subscription attaches the local image
	// and WAL and resumes by WAL replay, so the primary ships the one
	// missing record, not a bootstrap.
	stop()
	if err := followerDB.Close(); err != nil {
		t.Fatal(err)
	}
	lsn = appendBook(t, doc, "D")
	followerDB = follower()
	base := sent.Load()
	stop = follow(followerDB)
	// Wait for the follower's ack on the primary: a lookup on the
	// follower would attach the document before the subscription does.
	waitUntil(t, "resume", func() bool { return doc.tracker.Barrier() == lsn })
	if resumed := sent.Load() - base; resumed*20 >= cold {
		t.Fatalf("resume shipped %d bytes, the cold bootstrap %d: the restarted follower bootstrapped", resumed, cold)
	}
	stop()
	if err := followerDB.Close(); err != nil {
		t.Fatal(err)
	}

	// Restart again, attaching before following: the instance
	// OpenDocument recovers is the one the subscription rolls forward (a
	// bootstrap would have replaced it).
	lsn = appendBook(t, doc, "E")
	followerDB = follower()
	fdoc, err = followerDB.OpenDocument("lib")
	if err != nil {
		t.Fatalf("follower did not recover its local document: %v", err)
	}
	if fdoc.AppliedLSN() == 0 {
		t.Fatal("local recovery lost the applied watermark")
	}
	follow(followerDB)
	waitUntil(t, "resume", func() bool { return appliedAt(followerDB, "lib", lsn) })
	if d, _ := followerDB.OpenDocument("lib"); d != fdoc {
		t.Fatal("the subscription replaced the recovered instance: the restarted follower bootstrapped")
	}
	want, err := doc.XML()
	if err != nil {
		t.Fatal(err)
	}
	got, err := fdoc.XML()
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("follower diverged after restart:\n%s\n%s", got, want)
	}
}

// TestFollowerRebootstrapShipsOnlyMissingChunks is the payoff of
// bootstrapping by content: a follower that crash-restarts with its recovery
// artifacts gone but its content-addressed chunk store intact
// re-bootstraps by diffing the primary's manifest against that store,
// so the wire carries only the chunks the churn since then dirtied —
// a small fraction of the first (cold) bootstrap's transfer. Each
// bootstrap of a document that is not attached opens the follower's
// chunk store once: the Options.ChunkStore factory runs once per such
// bootstrap, the store the chunks are fetched into being the one the
// bootstrapped document keeps.
func TestFollowerRebootstrapShipsOnlyMissingChunks(t *testing.T) {
	primaryDB, err := Open(Options{Dir: t.TempDir(), NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer primaryDB.Close()
	doc, err := primaryDB.LoadXMLString("lib", books(20000))
	if err != nil {
		t.Fatal(err)
	}
	ln, sent := replListener(t, doc)

	// Cold bootstrap: the follower's chunk store is empty, every chunk
	// ships. This transfer is the doc-size yardstick.
	followerDir := t.TempDir()
	var opens atomic.Int32
	followerOpts := Options{Dir: followerDir, NoSync: true, ChunkStore: func(doc string) ChunkStore {
		opens.Add(1)
		return ckpt.DefaultChunkStore(followerDir, doc)
	}}
	followerDB, err := Open(followerOpts)
	if err != nil {
		t.Fatal(err)
	}
	stop, err := followerDB.FollowDocument(ln.Addr().String(), "lib")
	if err != nil {
		t.Fatal(err)
	}
	waitUntil(t, "cold bootstrap", func() bool { return appliedAt(followerDB, "lib", doc.LastLSN()) })
	stop()
	if err := followerDB.Close(); err != nil {
		t.Fatal(err)
	}
	if n := opens.Load(); n != 1 {
		t.Fatalf("the chunk store factory ran %d times for a cold bootstrap, want 1", n)
	}
	cold := sent.Load()
	if cold == 0 {
		t.Fatal("counting conn saw no bootstrap bytes")
	}

	// The crash: WAL and checkpoint images gone (the follower cannot
	// recover locally), chunk store intact. Then a little churn on the
	// primary, so the manifest is not even identical.
	wal.RemoveSegments(filepath.Join(followerDir, "lib.wal"))
	ckpt.RemoveArtifacts(followerDir, "lib")
	lsn := appendBook(t, doc, "churn")

	followerDB, err = Open(followerOpts)
	if err != nil {
		t.Fatal(err)
	}
	defer followerDB.Close()
	if _, err := followerDB.OpenDocument("lib"); !errors.Is(err, ErrNoDocument) {
		t.Fatalf("document recovered without WAL or images (%v); crash simulation is broken", err)
	}
	base := sent.Load()
	stop, err = followerDB.FollowDocument(ln.Addr().String(), "lib")
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	waitUntil(t, "re-bootstrap", func() bool { return appliedAt(followerDB, "lib", lsn) })
	rebootstrap := sent.Load() - base
	if n := opens.Load(); n != 2 {
		t.Fatalf("the chunk store factory ran %d times for two bootstraps, want 2", n)
	}

	// The re-bootstrap is a full bootstrap on the wire protocol level
	// (manifest + chunks + stream), but almost every chunk is
	// already local: the transfer must be a small fraction of cold.
	if rebootstrap*5 > cold {
		t.Fatalf("re-bootstrap shipped %d bytes, cold bootstrap %d: chunk reuse is not happening", rebootstrap, cold)
	}
	t.Logf("cold bootstrap %d bytes, re-bootstrap %d bytes (%.1f%%)", cold, rebootstrap, 100*float64(rebootstrap)/float64(cold))

	fdoc, err := followerDB.OpenDocument("lib")
	if err != nil {
		t.Fatal(err)
	}
	want, err := doc.XML()
	if err != nil {
		t.Fatal(err)
	}
	got, err := fdoc.XML()
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatal("follower diverged after re-bootstrap")
	}
}

// putHookStore is a chunk store that runs the hook armed in onPut, once,
// after the first PutMany that follows the arming.
type putHookStore struct {
	ChunkStore
	onPut *atomic.Pointer[func()]
}

func (s *putHookStore) PutMany(hs []ChunkHash, datas [][]byte) error {
	err := chunkstore.PutAll(s.ChunkStore, hs, datas)
	if hook := s.onPut.Swap(nil); hook != nil {
		(*hook)()
	}
	return err
}

// TestFollowerBootstrapOverAttachedInstance: a follower whose applied
// LSN the primary's WAL no longer reaches re-bootstraps while its old
// instance is still attached. The fetched chunks land in the old
// instance's own chunk store, and no checkpoint of the old instance —
// whose images name none of them — sweeps them before the new instance
// names them: the first re-bootstrap succeeds, and the follower recovers
// it after a restart.
func TestFollowerBootstrapOverAttachedInstance(t *testing.T) {
	primaryDB, err := Open(Options{Dir: t.TempDir(), NoSync: true, WALSegmentBytes: 4 << 10})
	if err != nil {
		t.Fatal(err)
	}
	defer primaryDB.Close()
	doc, err := primaryDB.LoadXMLString("lib", books(2000))
	if err != nil {
		t.Fatal(err)
	}
	ln, _ := replListener(t, doc)

	followerDir := t.TempDir()
	var opens atomic.Int32
	var onPut atomic.Pointer[func()]
	followerOpts := Options{Dir: followerDir, NoSync: true, ChunkStore: func(doc string) ChunkStore {
		opens.Add(1)
		return &putHookStore{ChunkStore: ckpt.DefaultChunkStore(followerDir, doc), onPut: &onPut}
	}}
	followerDB, err := Open(followerOpts)
	if err != nil {
		t.Fatal(err)
	}
	stop, err := followerDB.FollowDocument(ln.Addr().String(), "lib")
	if err != nil {
		t.Fatal(err)
	}
	applied := doc.LastLSN()
	waitUntil(t, "cold bootstrap", func() bool { return appliedAt(followerDB, "lib", applied) })
	stop()
	waitUntil(t, "unsubscribe", func() bool { return doc.Followers() == 0 })
	if err := followerDB.Close(); err != nil {
		t.Fatal(err)
	}

	// Churn on the primary, checkpointed twice, prunes the WAL past the
	// follower's applied LSN: the follower can only bootstrap.
	for round := 0; round < 2; round++ {
		for i := 0; i < 100; i++ {
			appendBook(t, doc, fmt.Sprintf("churn-%d-%d", round, i))
		}
		if err := doc.Checkpoint(); err != nil {
			t.Fatal(err)
		}
	}
	if doc.log.CanStream(applied) {
		t.Fatal("the primary's WAL still reaches the follower's applied LSN; the setup is broken")
	}

	followerDB, err = Open(followerOpts)
	if err != nil {
		t.Fatal(err)
	}
	old, err := followerDB.OpenDocument("lib")
	if err != nil {
		t.Fatal(err)
	}
	if n := opens.Load(); n != 2 {
		t.Fatalf("the chunk store factory ran %d times for a cold bootstrap and an attach, want 2", n)
	}
	// The old instance checkpoints right after the bootstrap's first
	// batch of chunks is stored, as an auto-checkpoint could.
	hook := func() { old.Checkpoint() }
	onPut.Store(&hook)
	stop, err = followerDB.FollowDocument(ln.Addr().String(), "lib")
	if err != nil {
		t.Fatal(err)
	}
	waitUntil(t, "re-bootstrap", func() bool { return appliedAt(followerDB, "lib", doc.LastLSN()) })
	stop()
	if onPut.Load() != nil {
		t.Fatal("the re-bootstrap stored no chunks")
	}
	// A bootstrap over an attached instance fetches into that instance's
	// store; one more factory call would be a retry's, after a first
	// attempt whose fetched chunks were swept.
	if n := opens.Load(); n != 2 {
		t.Fatalf("the chunk store factory ran %d times by the end of the re-bootstrap, want 2", n)
	}
	if err := followerDB.Close(); err != nil {
		t.Fatal(err)
	}

	followerDB, err = Open(followerOpts)
	if err != nil {
		t.Fatal(err)
	}
	defer followerDB.Close()
	fdoc, err := followerDB.OpenDocument("lib")
	if err != nil {
		t.Fatalf("the follower did not recover its re-bootstrapped document: %v", err)
	}
	want, err := doc.XML()
	if err != nil {
		t.Fatal(err)
	}
	if got, err := fdoc.XML(); err != nil || got != want {
		t.Fatalf("follower diverged after re-bootstrap and restart (%v)", err)
	}
}

// TestReplSourceRequiresDurability: a volatile document cannot be
// replicated (no WAL, nothing to ship) and says so with a typed error.
func TestReplSourceRequiresDurability(t *testing.T) {
	db, err := Open(Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	doc, err := db.LoadXMLString("lib", replDoc)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := doc.ReplSource(); !errors.Is(err, ErrNotReplicated) {
		t.Fatalf("ReplSource on volatile doc = %v", err)
	}
	if _, err := db.FollowDocument("127.0.0.1:1", "lib"); !errors.Is(err, ErrNotReplicated) {
		t.Fatalf("FollowDocument without dir = %v", err)
	}
	// Volatile commits carry no LSN: nothing for read-your-writes to key on.
	txn := doc.Begin()
	if err := txn.Commit(); err != nil {
		t.Fatal(err)
	}
	if txn.CommitLSN() != 0 {
		t.Fatalf("volatile commit LSN = %d, want 0", txn.CommitLSN())
	}
	_ = doc
}
