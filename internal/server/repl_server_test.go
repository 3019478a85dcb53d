package server_test

import (
	"context"
	"errors"
	"net"
	"strconv"
	"testing"
	"time"

	"mxq"
	"mxq/client"
	"mxq/internal/server"
	"mxq/internal/wire"
)

// startFollower opens a follower database in its own directory,
// subscribes it to the primary, and serves it read-only on a loopback
// port.
func startFollower(t *testing.T, primaryAddr string, docs ...string) (addr string, fdb *mxq.Database) {
	t.Helper()
	var err error
	fdb, err = mxq.Open(mxq.Options{Dir: t.TempDir(), NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	var stops []func()
	for _, name := range docs {
		stop, err := fdb.FollowDocument(primaryAddr, name)
		if err != nil {
			t.Fatal(err)
		}
		stops = append(stops, stop)
	}
	srv := server.New(server.Config{DB: fdb, ReadOnly: true})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(l)
	t.Cleanup(func() {
		srv.Shutdown(5 * time.Second)
		for _, stop := range stops {
			stop()
		}
		fdb.Close()
	})
	return l.Addr().String(), fdb
}

// TestHelloNegotiation covers the handshake: a client speaking the
// protocol version dials; a Hello announcing a lower maximum is
// rejected typed; an opcode behind a feature bit on a session that never
// said Hello gets CodeVersion, not CodeBadRequest, and the session
// survives.
func TestHelloNegotiation(t *testing.T) {
	addr := startServer(t, server.Config{}, nil)
	dial(t, addr)

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	var p wire.PayloadBuilder
	p.Uvarint(wire.Version - 1).Uvarint(wire.FeatReplication)
	if err := wire.WriteFrame(conn, wire.Frame{ID: 1, Op: wire.OpHello, Payload: p.Bytes()}); err != nil {
		t.Fatal(err)
	}
	f, err := wire.ReadFrame(conn, 0)
	if err != nil {
		t.Fatal(err)
	}
	if f.Op != wire.CodeVersion {
		t.Fatalf("hello(v%d) status = %d, want CodeVersion", wire.Version-1, f.Op)
	}

	var q wire.PayloadBuilder
	q.String("lib").Uvarint(0)
	if err := wire.WriteFrame(conn, wire.Frame{ID: 2, Op: wire.OpSubscribeWAL, Payload: q.Bytes()}); err != nil {
		t.Fatal(err)
	}
	if f, err = wire.ReadFrame(conn, 0); err != nil || f.Op != wire.CodeVersion {
		t.Fatalf("subscribe without hello = op %d, %v; want CodeVersion", f.Op, err)
	}
	if err := wire.WriteFrame(conn, wire.Frame{ID: 3, Op: wire.OpPing}); err != nil {
		t.Fatal(err)
	}
	if f, err = wire.ReadFrame(conn, 0); err != nil || f.Op != wire.StatusOK {
		t.Fatalf("ping after version rejection = op %d, %v", f.Op, err)
	}
}

// TestReadOnlyServer: a follower-mode server rejects writes typed and
// keeps serving reads.
func TestReadOnlyServer(t *testing.T) {
	dir := t.TempDir()
	db, err := mxq.Open(mxq.Options{Dir: dir, NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.LoadXMLString("lib", libDoc); err != nil {
		t.Fatal(err)
	}
	addr := startServer(t, server.Config{ReadOnly: true}, db)
	c := dial(t, addr)
	if _, err := c.Update(bg, "lib", wrapMods(`<xupdate:append select="/lib/shelf"><book>X</book></xupdate:append>`)); !errors.Is(err, client.ErrReadOnly) {
		t.Fatalf("update on read-only server = %v, want ErrReadOnly", err)
	}
	if err := c.Load(bg, "other", libDoc); !errors.Is(err, client.ErrReadOnly) {
		t.Fatalf("load on read-only server = %v, want ErrReadOnly", err)
	}
	items, err := c.Query(bg, "lib", "count(//book)", nil)
	if err != nil || items[0].Value != "2" {
		t.Fatalf("read on read-only server = %+v, %v", items, err)
	}
	st, err := c.DocStatus(bg, "lib")
	if err != nil || st.Role != "follower" {
		t.Fatalf("docstatus = %+v, %v; want follower role", st, err)
	}
}

// TestReadYourWritesAcrossReplica is the whole scale-out contract
// through the real daemon stack: a primary server, a follower server
// subscribed to it, and a client routing queries to the follower. The
// client's own writes are always visible to its reads (the follower
// parks them until caught up), and a read pinned above what the
// follower can reach fails typed instead of returning old data.
func TestReadYourWritesAcrossReplica(t *testing.T) {
	pdb, err := mxq.Open(mxq.Options{Dir: t.TempDir(), NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	primaryAddr := startServer(t, server.Config{}, pdb)
	seed := dial(t, primaryAddr)
	if err := seed.Load(bg, "lib", libDoc); err != nil {
		t.Fatal(err)
	}
	replicaAddr, fdb := startFollower(t, primaryAddr, "lib")

	c, err := client.Dial(bg, primaryAddr, client.WithReadReplica(replicaAddr))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// Each write then read must observe itself, no matter how far the
	// follower was behind when the read arrived.
	for i := 0; i < 5; i++ {
		res, err := c.Update(bg, "lib", wrapMods(`<xupdate:append select="/lib/shelf"><book>R</book></xupdate:append>`))
		if err != nil {
			t.Fatal(err)
		}
		if res.LSN == 0 {
			t.Fatal("v2 update response carried no commit LSN")
		}
		if c.LastLSN() != res.LSN {
			t.Fatalf("client LSN floor = %d, want %d", c.LastLSN(), res.LSN)
		}
		items, err := c.Query(bg, "lib", `count(//book[. = "R"])`, nil)
		if err != nil {
			t.Fatalf("replica-routed read after write %d: %v", i, err)
		}
		if want := strconv.Itoa(i + 1); items[0].Value != want {
			t.Fatalf("read-your-writes: count = %s after %s writes", items[0].Value, want)
		}
	}
	st, err := c.ReplicaStatus(bg, "lib")
	if err != nil || st.Role != "follower" {
		t.Fatalf("replica status = %+v, %v", st, err)
	}

	// A floor beyond anything committed: the follower parks, times out,
	// and answers typed — never a silently stale result.
	rc := dial(t, replicaAddr)
	fast, err := client.Dial(bg, replicaAddr, client.WithRYWTimeout(30*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer fast.Close()
	if _, err := fast.QueryAt(bg, "lib", "count(//book)", nil, c.LastLSN()+1000); !errors.Is(err, client.ErrStale) {
		t.Fatalf("over-pinned read = %v, want ErrStale", err)
	}
	// The same floor becomes servable once the primary commits past it
	// and the follower applies it — parking, not polling.
	target := c.LastLSN() + 1
	done := make(chan error, 1)
	go func() {
		_, err := rc.QueryAt(bg, "lib", "count(//book)", nil, target)
		done <- err
	}()
	time.Sleep(20 * time.Millisecond) // let the read park on the follower
	if _, err := c.Update(bg, "lib", wrapMods(`<xupdate:update select="/lib/shelf/book[1]">seen</xupdate:update>`)); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("parked read after catch-up: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("parked read never woke")
	}
	_ = fdb
}

// TestClientContextCancel: a context failure mid-round-trip leaves the
// client in the defined closed state — the call reports the context
// error, and every later call fails with ErrClosed.
func TestClientContextCancel(t *testing.T) {
	// A server that answers Hello and then goes silent: the next
	// round trip can only end by context.
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go func() {
		for {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			go func() {
				defer conn.Close()
				f, err := wire.ReadFrame(conn, 0)
				if err != nil || f.Op != wire.OpHello {
					return
				}
				var p wire.PayloadBuilder
				p.Uvarint(wire.Version).Uvarint(0)
				wire.WriteFrame(conn, wire.Frame{ID: f.ID, Op: wire.StatusOK, Payload: p.Bytes()})
				// Swallow everything after; never respond.
				for {
					if _, err := wire.ReadFrame(conn, 0); err != nil {
						return
					}
				}
			}()
		}
	}()
	c, err := client.Dial(bg, l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// Deadline mid-round-trip.
	ctx, cancel := context.WithTimeout(bg, 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	err = c.Ping(ctx)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("ping on silent server = %v, want DeadlineExceeded", err)
	}
	if time.Since(start) > 5*time.Second {
		t.Fatal("deadline did not interrupt the blocked read")
	}
	var ce *client.Error
	if !errors.As(err, &ce) || ce.Op != "ping" {
		t.Fatalf("error not a typed *client.Error with op: %#v", err)
	}

	// Defined closed state: the connection is desynchronized, so the
	// client is poisoned.
	if err := c.Ping(bg); !errors.Is(err, client.ErrClosed) {
		t.Fatalf("ping after poisoning = %v, want ErrClosed", err)
	}

	// Cancellation (not deadline) behaves identically.
	c2, err := client.Dial(bg, l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	ctx2, cancel2 := context.WithCancel(bg)
	go func() {
		time.Sleep(30 * time.Millisecond)
		cancel2()
	}()
	if err := c2.Ping(ctx2); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled ping = %v, want Canceled", err)
	}
	if err := c2.Ping(bg); !errors.Is(err, client.ErrClosed) {
		t.Fatalf("ping after cancel = %v, want ErrClosed", err)
	}
}
