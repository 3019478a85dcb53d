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
						proto, feats, ok := wire.Negotiate(cliVer, wire.FeatReplication|wire.FeatRYW, cliFeats)
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
	ln, _ := replListener(t, doc)

	followerDir := t.TempDir()
	followerDB, err := Open(Options{Dir: followerDir, NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	stop, err := followerDB.FollowDocument(ln.Addr().String(), "lib")
	if err != nil {
		t.Fatal(err)
	}
	waitUntil(t, "bootstrap", func() bool {
		d, ok := followerDB.Document("lib")
		return ok && d.AppliedLSN() == doc.LastLSN()
	})

	// Read-your-writes: commit on the primary, wait for the LSN on the
	// follower, then the read must see it.
	lsn := appendBook(t, doc, "C")
	fdoc, _ := followerDB.Document("lib")
	if err := fdoc.WaitApplied(lsn, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	if n, err := fdoc.Count(`//book[text()="C"]`); err != nil || n != 1 {
		t.Fatalf("follower read after WaitApplied: n=%d err=%v", n, err)
	}
	// A too-new LSN is a typed staleness failure, never a silent stale read.
	if err := fdoc.WaitApplied(lsn+100, 20*time.Millisecond); !errors.Is(err, tx.ErrStale) {
		t.Fatalf("future LSN wait = %v", err)
	}
	waitUntil(t, "follower registration", func() bool { return doc.Followers() == 1 })

	// Restart the follower: it must recover locally and resume by WAL
	// replay (no second bootstrap — the primary would tell us by mode,
	// which docSink counts via a fresh ckpt each bootstrap; we check
	// convergence and that local recovery alone reached the old LSN).
	stop()
	if err := followerDB.Close(); err != nil {
		t.Fatal(err)
	}
	lsn = appendBook(t, doc, "D")

	followerDB, err = Open(Options{Dir: followerDir, NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer followerDB.Close()
	fdoc, ok := followerDB.Document("lib")
	if !ok {
		t.Fatal("follower did not recover its local document")
	}
	if fdoc.AppliedLSN() == 0 {
		t.Fatal("local recovery lost the applied watermark")
	}
	stop, err = followerDB.FollowDocument(ln.Addr().String(), "lib")
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	waitUntil(t, "resume", func() bool {
		d, ok := followerDB.Document("lib")
		return ok && d.AppliedLSN() == lsn
	})
	d, _ := followerDB.Document("lib")
	want, err := doc.XML()
	if err != nil {
		t.Fatal(err)
	}
	got, err := d.XML()
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
// a small fraction of the first (cold) bootstrap's transfer.
func TestFollowerRebootstrapShipsOnlyMissingChunks(t *testing.T) {
	var sb strings.Builder
	sb.WriteString(`<lib><shelf id="s1">`)
	for i := 0; i < 20000; i++ {
		fmt.Fprintf(&sb, "<book>title-%05d</book>", i)
	}
	sb.WriteString(`</shelf></lib>`)

	primaryDB, err := Open(Options{Dir: t.TempDir(), NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer primaryDB.Close()
	doc, err := primaryDB.LoadXMLString("lib", sb.String())
	if err != nil {
		t.Fatal(err)
	}
	ln, sent := replListener(t, doc)

	// Cold bootstrap: the follower's chunk store is empty, every chunk
	// ships. This transfer is the doc-size yardstick.
	followerDir := t.TempDir()
	followerDB, err := Open(Options{Dir: followerDir, NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	stop, err := followerDB.FollowDocument(ln.Addr().String(), "lib")
	if err != nil {
		t.Fatal(err)
	}
	waitUntil(t, "cold bootstrap", func() bool {
		d, ok := followerDB.Document("lib")
		return ok && d.AppliedLSN() == doc.LastLSN()
	})
	stop()
	if err := followerDB.Close(); err != nil {
		t.Fatal(err)
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

	followerDB, err = Open(Options{Dir: followerDir, NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer followerDB.Close()
	if _, ok := followerDB.Document("lib"); ok {
		t.Fatal("document recovered without WAL or images; crash simulation is broken")
	}
	base := sent.Load()
	stop, err = followerDB.FollowDocument(ln.Addr().String(), "lib")
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	waitUntil(t, "re-bootstrap", func() bool {
		d, ok := followerDB.Document("lib")
		return ok && d.AppliedLSN() == lsn
	})
	rebootstrap := sent.Load() - base

	// The re-bootstrap is a full bootstrap on the wire protocol level
	// (manifest + chunks + stream), but almost every chunk is
	// already local: the transfer must be a small fraction of cold.
	if rebootstrap*5 > cold {
		t.Fatalf("re-bootstrap shipped %d bytes, cold bootstrap %d: chunk reuse is not happening", rebootstrap, cold)
	}
	t.Logf("cold bootstrap %d bytes, re-bootstrap %d bytes (%.1f%%)", cold, rebootstrap, 100*float64(rebootstrap)/float64(cold))

	fdoc, _ := followerDB.Document("lib")
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
