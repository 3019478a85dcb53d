package repl_test

import (
	"bytes"
	"fmt"
	"net"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"mxq"
	"mxq/internal/core"
	"mxq/internal/repl"
	"mxq/internal/serialize"
	"mxq/internal/shred"
	"mxq/internal/tx"
	"mxq/internal/wal"
	"mxq/internal/wire"
	"mxq/internal/xenc"
	"mxq/internal/xpath"
)

const docXML = `<lib><shelf id="s1"><book>A</book></shelf></lib>`

func buildStore(t testing.TB) *core.Store {
	t.Helper()
	tr, err := shred.Parse(strings.NewReader(docXML), shred.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s, err := core.Build(tr, core.Options{PageSize: 16, FillFactor: 0.75})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// primary is a document plus a mini replication listener speaking just
// enough of the protocol (Hello + SubscribeWAL) to exercise Serve.
type primary struct {
	t     *testing.T
	log   *wal.Log
	mgr   *tx.Manager
	track *repl.Tracker
	ln    net.Listener
	wg    sync.WaitGroup
}

func newPrimary(t *testing.T, segBytes int64) *primary {
	t.Helper()
	log, err := wal.Open(filepath.Join(t.TempDir(), "d.wal"), wal.Options{NoSync: true, SegmentBytes: segBytes})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { log.Close() })
	p := &primary{t: t, log: log, mgr: tx.NewManager(buildStore(t), log), track: repl.NewTracker()}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	p.ln = ln
	t.Cleanup(func() { ln.Close(); p.wg.Wait() })
	p.wg.Add(1)
	go p.acceptLoop()
	return p
}

func (p *primary) acceptLoop() {
	defer p.wg.Done()
	for {
		conn, err := p.ln.Accept()
		if err != nil {
			return
		}
		p.wg.Add(1)
		go func() {
			defer p.wg.Done()
			defer conn.Close()
			p.serveConn(conn)
		}()
	}
}

func (p *primary) serveConn(conn net.Conn) {
	for {
		fr, err := wire.ReadFrame(conn, 0)
		if err != nil {
			return
		}
		switch fr.Op {
		case wire.OpHello:
			var b wire.PayloadBuilder
			b.Uvarint(wire.Version).Uvarint(wire.FeatReplication)
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
			repl.Serve(conn, fr.ID, after, p.source(), 0, p.t.Logf)
			return
		default:
			return
		}
	}
}

func (p *primary) source() repl.Source {
	return repl.Source{Name: "d", Log: p.log, Pin: p.mgr.PinCheckpoint, Track: p.track}
}

func (p *primary) commit(name string) uint64 {
	p.t.Helper()
	txn := p.mgr.Begin()
	ns, err := xpath.MustParse(`//shelf`).Select(txn)
	if err != nil || len(ns) == 0 {
		p.t.Fatalf("select shelf: %v", err)
	}
	fr, err := shred.ParseFragment(`<book>`+name+`</book>`, shred.Options{})
	if err != nil {
		p.t.Fatal(err)
	}
	if _, err := txn.Apply(wal.Op{Kind: wal.OpAppendChild, Target: txn.NodeOf(ns[0].Pre), Frag: fr}); err != nil {
		p.t.Fatal(err)
	}
	if err := txn.Commit(); err != nil {
		p.t.Fatal(err)
	}
	return txn.CommitLSN()
}

func (p *primary) xml() string {
	p.t.Helper()
	return managerXML(p.t, p.mgr)
}

func managerXML(t testing.TB, m *tx.Manager) string {
	t.Helper()
	rv := m.AcquireRead()
	defer rv.Close()
	var b bytes.Buffer
	if err := serialize.Document(&b, rv.View().(xenc.DocView), serialize.Options{}); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// follower opens a durable database in a fresh directory for the
// followed document "d". The follower side of these tests is the
// product's — mxq.Database.FollowDocument, whose docSink is the one
// repl.Sink in the tree — against a hand-built primary.
func follower(t *testing.T) *mxq.Database {
	t.Helper()
	db, err := mxq.Open(mxq.Options{Dir: t.TempDir(), NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	return db
}

// follow subscribes db's "d" to the primary until stop is called.
func follow(t *testing.T, db *mxq.Database, p *primary) (stop func()) {
	t.Helper()
	stop, err := db.FollowDocument(p.ln.Addr().String(), "d")
	if err != nil {
		t.Fatal(err)
	}
	return stop
}

// followed is the follower's document (nil before its bootstrap).
func followed(db *mxq.Database) *mxq.Document {
	d, _ := db.OpenDocument("d")
	return d
}

// applied is the follower's applied LSN (0 before its bootstrap).
func applied(db *mxq.Database) uint64 {
	if d := followed(db); d != nil {
		return d.AppliedLSN()
	}
	return 0
}

func xml(t *testing.T, d *mxq.Document) string {
	t.Helper()
	s, err := d.XML()
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestFollowerBootstrapAndStream: an empty follower bootstraps from a
// pinned image, then applies live commits as they arrive; its acks
// drive the tracker barrier, and the stores converge byte-for-byte.
func TestFollowerBootstrapAndStream(t *testing.T) {
	p := newPrimary(t, wal.DefaultSegmentBytes)
	p.commit("B")
	p.commit("C")

	db := follower(t)
	defer db.Close()
	stop := follow(t, db, p)
	defer stop()

	waitFor(t, "bootstrap catch-up", func() bool { return applied(db) == 2 })
	// Live tail: commits made after the subscription stream through.
	p.commit("D")
	last := p.commit("E")
	waitFor(t, "live stream", func() bool { return applied(db) == last })
	if got, want := xml(t, followed(db)), p.xml(); got != want {
		t.Fatalf("stores diverged:\nfollower: %s\nprimary:  %s", got, want)
	}
	waitFor(t, "ack propagation", func() bool { return p.track.Barrier() == last })
	if p.track.Count() != 1 {
		t.Fatalf("tracker count = %d", p.track.Count())
	}
	stop()
	waitFor(t, "unregister", func() bool { return p.track.Count() == 0 })
	if p.track.Barrier() != ^uint64(0) {
		t.Fatalf("barrier with no followers = %d", p.track.Barrier())
	}
}

// TestFollowerResumesInWALMode: a follower that already holds a prefix
// reconnects and resumes by WAL replay alone — no second bootstrap,
// which would have replaced the document instance.
func TestFollowerResumesInWALMode(t *testing.T) {
	p := newPrimary(t, wal.DefaultSegmentBytes)
	p.commit("B")

	db := follower(t)
	defer db.Close()
	stop := follow(t, db, p)
	waitFor(t, "first catch-up", func() bool { return applied(db) == 1 })
	stop()
	first := followed(db)

	// Commits land while the follower is away; the WAL keeps them.
	last := p.commit("C")
	stop = follow(t, db, p)
	defer stop()
	waitFor(t, "resume", func() bool { return applied(db) == last })
	if followed(db) != first {
		t.Fatal("bootstrapped again (resume must use WAL mode)")
	}
	if got, want := xml(t, first), p.xml(); got != want {
		t.Fatalf("stores diverged after resume:\n%s\n%s", got, want)
	}
}

// TestFollowerRefusesMalformedBatch: a primary that streams a record
// whose fragment the shredder could not have made — levels 0 then 5 —
// ends the follower's subscription with an error, before the record
// reaches the follower's WAL or store. The follower keeps running: its
// document is as it was, and it resumes from the real primary.
func TestFollowerRefusesMalformedBatch(t *testing.T) {
	p := newPrimary(t, wal.DefaultSegmentBytes)
	p.commit("B")
	db := follower(t)
	defer db.Close()
	stop := follow(t, db, p)
	waitFor(t, "catch-up", func() bool { return applied(db) == 1 })
	stop()
	d := followed(db)
	before := xml(t, d)

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	hungUp := make(chan struct{})
	go func() {
		defer close(hungUp)
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		for {
			fr, err := wire.ReadFrame(conn, 0)
			if err != nil {
				return // the follower ended the subscription
			}
			var b wire.PayloadBuilder
			switch fr.Op {
			case wire.OpHello:
				b.Uvarint(wire.Version).Uvarint(wire.FeatReplication)
				wire.WriteFrame(conn, wire.Frame{ID: fr.ID, Op: wire.StatusOK, Payload: b.Bytes()})
			case wire.OpSubscribeWAL:
				b.Byte(wire.ModeWAL).Uvarint(1)
				wire.WriteFrame(conn, wire.Frame{ID: fr.ID, Op: wire.StatusOK, Payload: b.Bytes()})
				frag := &shred.Tree{Nodes: []shred.Node{
					{Kind: xenc.KindElem, Name: "a", Size: 1},
					{Kind: xenc.KindElem, Name: "b", Level: 5},
				}}
				rec := wal.Record{LSN: 2, Ops: []wal.Op{{Kind: wal.OpAppendChild, Target: 1, Frag: frag, NewIDs: []xenc.NodeID{9, 10}}}}
				var batch wire.PayloadBuilder
				rec.Encode(&batch)
				wire.WriteFrame(conn, wire.Frame{Op: wire.OpWALRecords, Payload: batch.Bytes()})
			}
		}
	}()
	stop, err = db.FollowDocument(ln.Addr().String(), "d")
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-hungUp:
	case <-time.After(10 * time.Second):
		t.Fatal("the follower kept the subscription that sent a malformed record")
	}
	stop()
	if got := applied(db); got != 1 || xml(t, d) != before {
		t.Fatalf("after the refused batch: applied %d, document %s; want 1, %s", got, xml(t, d), before)
	}

	last := p.commit("C")
	stop = follow(t, db, p)
	defer stop()
	waitFor(t, "resume", func() bool { return applied(db) == last })
	if got, want := xml(t, d), p.xml(); got != want {
		t.Fatalf("stores diverged after the refused batch:\n%s\n%s", got, want)
	}
}

// TestPrunedFollowerRebootstraps: while the follower is disconnected
// its fence is gone; if the primary prunes past its position, the
// reconnect self-heals through a fresh bootstrap, which replaces the
// document instance.
func TestPrunedFollowerRebootstraps(t *testing.T) {
	p := newPrimary(t, 256) // tiny segments so pruning actually seals some
	p.commit("B")

	db := follower(t)
	defer db.Close()
	stop := follow(t, db, p)
	waitFor(t, "first catch-up", func() bool { return applied(db) == 1 })
	stop()
	first := followed(db)

	var last uint64
	for i := 0; i < 30; i++ {
		last = p.commit("X")
	}
	if err := p.log.Prune(last - 1); err != nil {
		t.Fatal(err)
	}
	if p.log.CanStream(1) {
		t.Skip("prune sealed nothing; segment bound too large for this doc")
	}

	stop = follow(t, db, p)
	defer stop()
	waitFor(t, "re-bootstrap", func() bool { return applied(db) == last })
	if followed(db) == first {
		t.Fatal("caught up without bootstrapping past the prune")
	}
	if got, want := xml(t, followed(db)), p.xml(); got != want {
		t.Fatalf("stores diverged after re-bootstrap:\n%s\n%s", got, want)
	}
}

// TestChunkNeedOverflowingCountRejected: a ChunkNeed frame whose count
// times the hash size wraps to the (empty) remainder must end the
// subscription with an error, not size an allocation.
func TestChunkNeedOverflowingCountRejected(t *testing.T) {
	p := newPrimary(t, wal.DefaultSegmentBytes)
	srv, cli := net.Pipe()
	defer cli.Close()
	errc := make(chan error, 1)
	go func() {
		defer srv.Close()
		errc <- repl.Serve(srv, 2, wire.SubscribeNone, p.source(), 0, nil)
	}()
	for _, want := range []byte{wire.StatusOK, wire.OpSnapManifest} {
		fr, err := wire.ReadFrame(cli, 0)
		if err != nil || fr.Op != want {
			t.Fatalf("frame op %d, %v; want op %d", fr.Op, err, want)
		}
	}
	var b wire.PayloadBuilder
	b.Uvarint(1 << 59) // × 32-byte hashes = 2^64, which wraps to 0
	if err := wire.WriteFrame(cli, wire.Frame{Op: wire.OpChunkNeed, Payload: b.Bytes()}); err != nil {
		t.Fatal(err)
	}
	if err := <-errc; err == nil || !strings.Contains(err.Error(), "reading chunk wants") {
		t.Fatalf("Serve returned %v, want a ChunkNeed count error", err)
	}
}

// TestBatchNeverOutgrowsItsBound: the sender cuts WALRecords batches by
// the records' encoded length, text inside fragments included, so no
// frame carries more than maxBatchBytes (256 KiB) unless it carries one
// record. Sized by an estimate that ignored fragment text, four commits
// of 20 MiB text each once made one 80 MiB frame that every reconnect
// of the follower refused, over wire.MaxFrame.
func TestBatchNeverOutgrowsItsBound(t *testing.T) {
	const maxBatchBytes = 256 << 10
	p := newPrimary(t, wal.DefaultSegmentBytes)
	big := strings.Repeat("x", 200<<10)
	for _, text := range []string{"a", "b", big, "c", big, big, "d"} {
		p.commit(text)
	}
	srv, cli := net.Pipe()
	defer cli.Close()
	go func() {
		defer srv.Close()
		repl.Serve(srv, 2, 0, p.source(), 0, nil)
	}()
	if fr, err := wire.ReadFrame(cli, 0); err != nil || fr.Op != wire.StatusOK {
		t.Fatalf("subscribe answer op %d, %v", fr.Op, err)
	}
	var frames []int
	for next := uint64(1); next <= 7; {
		fr, err := wire.ReadFrame(cli, 0)
		if err != nil || fr.Op != wire.OpWALRecords {
			t.Fatalf("frame op %d, %v; want WALRecords", fr.Op, err)
		}
		n := 0
		for r := wire.NewPayloadReader(fr.Payload); r.Remaining() > 0; n++ {
			rec, err := wal.DecodeRecord(r)
			if err != nil || rec.LSN != next {
				t.Fatalf("record %d of a batch: %+v, %v; want LSN %d", n, rec, err, next)
			}
			next++
		}
		if len(fr.Payload) > maxBatchBytes && n > 1 {
			t.Fatalf("a batch of %d records is %d bytes, over %d", n, len(fr.Payload), maxBatchBytes)
		}
		frames = append(frames, n)
	}
	// A big text shares a batch with small records, never with another.
	if fmt.Sprint(frames) != "[4 1 2]" {
		t.Fatalf("records per frame %v, want [4 1 2]", frames)
	}
}

func TestTrackerBarrier(t *testing.T) {
	tr := repl.NewTracker()
	if tr.Barrier() != ^uint64(0) {
		t.Fatal("empty tracker constrains pruning")
	}
	a := tr.Register(5)
	b := tr.Register(9)
	if got := tr.Barrier(); got != 5 {
		t.Fatalf("barrier = %d", got)
	}
	tr.Ack(a, 12)
	if got := tr.Barrier(); got != 9 {
		t.Fatalf("barrier = %d", got)
	}
	tr.Ack(b, 3) // acks never regress
	if got := tr.Barrier(); got != 9 {
		t.Fatalf("barrier after stale ack = %d", got)
	}
	tr.Unregister(b)
	if got := tr.Barrier(); got != 12 {
		t.Fatalf("barrier = %d", got)
	}
	tr.Unregister(a)
	tr.Ack(a, 99) // late ack on a dead subscription is inert
	if tr.Count() != 0 || tr.Barrier() != ^uint64(0) {
		t.Fatal("dead subscription resurrected")
	}
}
