package repl

import (
	"bytes"
	"fmt"
	"net"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"mxq/internal/chunkstore"
	"mxq/internal/core"
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
	track *Tracker
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
	p := &primary{t: t, log: log, mgr: tx.NewManager(buildStore(t), log), track: NewTracker()}
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
			b.Uvarint(wire.Version).Uvarint(wire.FeatReplication | wire.FeatRYW)
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
			Serve(conn, fr.ID, after, Source{
				Name: "d", Log: p.log, Pin: p.mgr.PinCheckpoint, Track: p.track,
			}, 0, p.t.Logf)
			return
		default:
			return
		}
	}
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
	if _, err := txn.AppendChild(ns[0].Pre, fr); err != nil {
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

// testSink applies a subscription onto a real manager + local WAL and
// chunk store — the same wiring the root package's follower documents
// use.
type testSink struct {
	t   *testing.T
	dir string
	cs  *chunkstore.Mem

	mu        sync.Mutex
	log       *wal.Log
	mgr       *tx.Manager
	bootstrap int
}

func newTestSink(t *testing.T) *testSink {
	return &testSink{t: t, dir: t.TempDir(), cs: chunkstore.NewMem()}
}

func (s *testSink) manager() *tx.Manager {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.mgr
}

func (s *testSink) AppliedLSN() (uint64, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.mgr == nil {
		return 0, false
	}
	return s.mgr.AppliedLSN(), true
}

// applied is the test-side shorthand (0 until bootstrapped).
func (s *testSink) applied() uint64 {
	lsn, _ := s.AppliedLSN()
	return lsn
}

func (s *testSink) ChunkStore() (chunkstore.Store, error) { return s.cs, nil }

func (s *testSink) BootstrapManifest(m *core.ChunkManifest, lsn uint64) error {
	store, err := core.LoadChunked(m, s.cs)
	if err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.log != nil {
		s.log.Close()
	}
	path := filepath.Join(s.dir, "d.wal")
	wal.RemoveSegments(path)
	log, err := wal.Open(path, wal.Options{NoSync: true})
	if err != nil {
		return err
	}
	log.EnsureLSN(lsn)
	s.log = log
	s.mgr = tx.NewManager(store, log)
	s.bootstrap++
	return nil
}

func (s *testSink) Apply(recs []*wal.Record) (uint64, error) {
	s.mu.Lock()
	mgr := s.mgr
	s.mu.Unlock()
	if mgr == nil {
		return 0, fmt.Errorf("apply before bootstrap")
	}
	for _, rec := range recs {
		if err := mgr.ApplyReplicated(rec); err != nil {
			return 0, err
		}
	}
	return recs[len(recs)-1].LSN, nil
}

func (s *testSink) close() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.log != nil {
		s.log.Close()
	}
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

// startFollower runs f until the returned stop function is called.
func startFollower(t *testing.T, f *Follower) (stop func()) {
	t.Helper()
	stopC := make(chan struct{})
	done := make(chan struct{})
	go func() { defer close(done); f.Run(stopC) }()
	var once sync.Once
	return func() {
		once.Do(func() { close(stopC) })
		<-done
	}
}

// TestFollowerBootstrapAndStream: an empty follower bootstraps from a
// pinned image, then applies live commits as they arrive; its acks
// drive the tracker barrier, and the stores converge byte-for-byte.
func TestFollowerBootstrapAndStream(t *testing.T) {
	p := newPrimary(t, wal.DefaultSegmentBytes)
	p.commit("B")
	p.commit("C")

	sink := newTestSink(t)
	defer sink.close()
	f := &Follower{Addr: p.ln.Addr().String(), Doc: "d", Sink: sink, Logf: t.Logf}
	stop := startFollower(t, f)
	defer stop()

	waitFor(t, "bootstrap catch-up", func() bool { return sink.applied() == 2 })
	// Live tail: commits made after the subscription stream through.
	p.commit("D")
	last := p.commit("E")
	waitFor(t, "live stream", func() bool { return sink.applied() == last })
	if got, want := managerXML(t, sink.manager()), p.xml(); got != want {
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
// reconnects and resumes by WAL replay alone — no second bootstrap.
func TestFollowerResumesInWALMode(t *testing.T) {
	p := newPrimary(t, wal.DefaultSegmentBytes)
	p.commit("B")

	sink := newTestSink(t)
	defer sink.close()
	f := &Follower{Addr: p.ln.Addr().String(), Doc: "d", Sink: sink, Logf: t.Logf}
	stop := startFollower(t, f)
	waitFor(t, "first catch-up", func() bool { return sink.applied() == 1 })
	stop()

	// Commits land while the follower is away; the WAL keeps them.
	last := p.commit("C")
	stop = startFollower(t, f)
	defer stop()
	waitFor(t, "resume", func() bool { return sink.applied() == last })
	if n := sink.bootstrap; n != 1 {
		t.Fatalf("bootstrapped %d times, want 1 (resume must use WAL mode)", n)
	}
	if got, want := managerXML(t, sink.manager()), p.xml(); got != want {
		t.Fatalf("stores diverged after resume:\n%s\n%s", got, want)
	}
}

// TestPrunedFollowerRebootstraps: while the follower is disconnected
// its fence is gone; if the primary prunes past its position, the
// reconnect self-heals through a fresh bootstrap.
func TestPrunedFollowerRebootstraps(t *testing.T) {
	p := newPrimary(t, 256) // tiny segments so pruning actually seals some
	p.commit("B")

	sink := newTestSink(t)
	defer sink.close()
	f := &Follower{Addr: p.ln.Addr().String(), Doc: "d", Sink: sink, Logf: t.Logf}
	stop := startFollower(t, f)
	waitFor(t, "first catch-up", func() bool { return sink.applied() == 1 })
	stop()

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

	stop = startFollower(t, f)
	defer stop()
	waitFor(t, "re-bootstrap", func() bool { return sink.applied() == last })
	if n := sink.bootstrap; n != 2 {
		t.Fatalf("bootstrapped %d times, want 2", n)
	}
	if got, want := managerXML(t, sink.manager()), p.xml(); got != want {
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
		errc <- Serve(srv, 2, wire.SubscribeNone, Source{
			Name: "d", Log: p.log, Pin: p.mgr.PinCheckpoint, Track: p.track,
		}, 0, nil)
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

func TestTrackerBarrier(t *testing.T) {
	tr := NewTracker()
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

func TestRecordCodec(t *testing.T) {
	in := []*wal.Record{
		{LSN: 7, Ops: []wal.Op{{Kind: wal.OpSetValue, Target: 3, Value: "v"}}},
		{LSN: 8, Ops: []wal.Op{{Kind: wal.OpAppendChild, Target: 1,
			Frag:   []wal.FragNode{{Kind: 1, Name: "book", Attrs: []string{"id", "b9"}}},
			NewIDs: []xenc.NodeID{42}}}},
	}
	b, err := encodeRecords(in)
	if err != nil {
		t.Fatal(err)
	}
	out, err := decodeRecords(b)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 2 || out[0].LSN != 7 || out[1].Ops[0].Frag[0].Name != "book" || out[1].Ops[0].NewIDs[0] != 42 {
		t.Fatalf("round trip = %+v", out)
	}
}
