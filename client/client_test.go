package client_test

import (
	"context"
	"errors"
	"net"
	"slices"
	"sync"
	"testing"

	"mxq/client"
	"mxq/internal/wire"
)

// fakeServer answers every request on every connection through reply,
// which returns the response status and payload.
func fakeServer(t *testing.T, reply func(f wire.Frame) (byte, []byte)) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	go func() {
		for {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			go func() {
				defer conn.Close()
				for {
					f, err := wire.ReadFrame(conn, 0)
					if err != nil {
						return
					}
					status, payload := reply(f)
					if wire.WriteFrame(conn, wire.Frame{ID: f.ID, Op: status, Payload: payload}) != nil {
						return
					}
				}
			}()
		}
	}()
	return l.Addr().String()
}

func helloOK() (byte, []byte) {
	var p wire.PayloadBuilder
	p.Uvarint(wire.Version).Uvarint(wire.FeatReplication)
	return wire.StatusOK, p.Bytes()
}

// TestHostileCountsAreErrors: a reply whose item or name count exceeds
// what its bytes can hold must come back as an error before the count
// sizes an allocation.
func TestHostileCountsAreErrors(t *testing.T) {
	addr := fakeServer(t, func(f wire.Frame) (byte, []byte) {
		if f.Op == wire.OpHello {
			return helloOK()
		}
		var p wire.PayloadBuilder
		p.Uvarint(1 << 62)
		return wire.StatusOK, p.Bytes()
	})
	ctx := context.Background()
	c, err := client.Dial(ctx, addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if items, err := c.Query(ctx, "lib", "//x", nil); err == nil {
		t.Fatalf("Query accepted a count of 1<<62: %d items", len(items))
	}
	if names, err := c.ListDocs(ctx); err == nil {
		t.Fatalf("ListDocs accepted a count of 1<<62: %d names", len(names))
	}
}

// TestDialRequiresTheVersion: a server that rejects Hello, or answers it
// with another version, fails the dial.
func TestDialRequiresTheVersion(t *testing.T) {
	ctx := context.Background()
	addr := fakeServer(t, func(f wire.Frame) (byte, []byte) {
		var p wire.PayloadBuilder
		p.String("unknown opcode")
		return wire.CodeBadRequest, p.Bytes()
	})
	if c, err := client.Dial(ctx, addr); err == nil {
		c.Close()
		t.Fatal("dial succeeded against a server that rejects Hello")
	}
	addr = fakeServer(t, func(f wire.Frame) (byte, []byte) {
		var p wire.PayloadBuilder
		p.Uvarint(wire.Version + 1).Uvarint(0)
		return wire.StatusOK, p.Bytes()
	})
	if c, err := client.Dial(ctx, addr); !errors.Is(err, client.ErrVersion) {
		if err == nil {
			c.Close()
		}
		t.Fatalf("dial against version %d = %v, want ErrVersion", wire.Version+1, err)
	}
}

// query is a Query request as a fake server sees it.
type query struct {
	doc    string
	minLSN uint64 // 0 when the request carries no read-your-writes trailer
}

func parseQuery(t *testing.T, f wire.Frame) query {
	r := wire.NewPayloadReader(f.Payload)
	doc, err := r.String()
	if err != nil {
		t.Error(err)
	}
	r.String() // the query text
	if n, _ := r.Uvarint(); n != 0 {
		t.Errorf("query carries %d vars, want none", n)
	}
	q := query{doc: doc}
	if r.Remaining() > 0 {
		q.minLSN, _ = r.Uvarint()
		r.Uvarint() // the park timeout
	}
	return q
}

// answer is a one-item query result whose value is v.
func answer(v string) (byte, []byte) {
	var p wire.PayloadBuilder
	p.Uvarint(1).Byte(wire.KindCode("string")).String(v).String("")
	return wire.StatusOK, p.Bytes()
}

// routed is a client dialed with a read replica, both ends scripted: the
// primary answers an update with commit LSN 42, a BeginRead with version
// 7, EndRead with OK, and every query with "primary"; the replica
// answers every query with "replica". Each side records its queries.
type routed struct {
	c                *client.Client
	mu               sync.Mutex
	primary, replica []query
}

func dialRouted(t *testing.T) *routed {
	rt := &routed{}
	record := func(to *[]query, name string) func(f wire.Frame) (byte, []byte) {
		return func(f wire.Frame) (byte, []byte) {
			switch f.Op {
			case wire.OpHello:
				return helloOK()
			case wire.OpQuery:
				rt.mu.Lock()
				*to = append(*to, parseQuery(t, f))
				rt.mu.Unlock()
				return answer(name)
			case wire.OpUpdate:
				var p wire.PayloadBuilder
				p.Uvarint(1).Uvarint(1).Uvarint(42)
				return wire.StatusOK, p.Bytes()
			case wire.OpBeginRead:
				var p wire.PayloadBuilder
				p.Uvarint(7)
				return wire.StatusOK, p.Bytes()
			case wire.OpEndRead:
				return wire.StatusOK, nil
			}
			var p wire.PayloadBuilder
			p.String("unexpected opcode")
			return wire.CodeBadRequest, p.Bytes()
		}
	}
	primary := fakeServer(t, record(&rt.primary, "primary"))
	replica := fakeServer(t, record(&rt.replica, "replica"))
	c, err := client.Dial(context.Background(), primary, client.WithReadReplica(replica))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	rt.c = c
	return rt
}

// run queries doc and returns the answering side's name.
func (rt *routed) run(t *testing.T, doc string) string {
	t.Helper()
	items, err := rt.c.Query(context.Background(), doc, "//x", nil)
	if err != nil || len(items) != 1 {
		t.Fatalf("query %q: %v, %d items", doc, err, len(items))
	}
	return items[0].Value
}

// TestReplicaReadsCarryTheLastCommitLSN: a query routed to the replica
// carries the LSN the session's last update answered, so the replica
// can hold it until that write is applied.
func TestReplicaReadsCarryTheLastCommitLSN(t *testing.T) {
	rt := dialRouted(t)
	ctx := context.Background()
	if got := rt.run(t, "lib"); got != "replica" {
		t.Fatalf("query before any write answered by the %s", got)
	}
	res, err := rt.c.Update(ctx, "lib", "<mods/>")
	if err != nil || res.LSN != 42 {
		t.Fatalf("Update = %+v, %v; want LSN 42", res, err)
	}
	if got := rt.run(t, "lib"); got != "replica" {
		t.Fatalf("query after a write answered by the %s", got)
	}
	rt.mu.Lock()
	defer rt.mu.Unlock()
	want := []query{{"lib", 0}, {"lib", 42}}
	if !slices.Equal(rt.replica, want) || len(rt.primary) != 0 {
		t.Fatalf("replica saw %v, primary %v; want replica %v", rt.replica, rt.primary, want)
	}
}

// TestPinnedReadsStayOnThePrimary: between BeginRead and EndRead the
// pinned document's queries go to the primary session, where the pin
// lives; other documents, and the document after EndRead, route to the
// replica.
func TestPinnedReadsStayOnThePrimary(t *testing.T) {
	rt := dialRouted(t)
	ctx := context.Background()
	if v, err := rt.c.BeginRead(ctx, "lib"); err != nil || v != 7 {
		t.Fatalf("BeginRead = %d, %v", v, err)
	}
	if got := rt.run(t, "lib"); got != "primary" {
		t.Fatalf("pinned query answered by the %s", got)
	}
	if got := rt.run(t, "other"); got != "replica" {
		t.Fatalf("query on an unpinned document answered by the %s", got)
	}
	if err := rt.c.EndRead(ctx, "lib"); err != nil {
		t.Fatal(err)
	}
	if got := rt.run(t, "lib"); got != "replica" {
		t.Fatalf("query after EndRead answered by the %s", got)
	}
}

// TestStaleIsErrStale: the server's CodeStale answer surfaces as
// ErrStale through errors.Is, and leaves the session usable.
func TestStaleIsErrStale(t *testing.T) {
	addr := fakeServer(t, func(f wire.Frame) (byte, []byte) {
		switch f.Op {
		case wire.OpHello:
			return helloOK()
		case wire.OpPing:
			return wire.StatusOK, nil
		}
		var p wire.PayloadBuilder
		p.String("applied LSN 3, read requires 9")
		return wire.CodeStale, p.Bytes()
	})
	ctx := context.Background()
	c, err := client.Dial(ctx, addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.QueryAt(ctx, "lib", "//x", nil, 9); !errors.Is(err, client.ErrStale) {
		t.Fatalf("QueryAt = %v, want ErrStale", err)
	}
	if err := c.Ping(ctx); err != nil {
		t.Fatalf("Ping after a stale answer: %v", err)
	}
}

// TestCancelWhileServerHoldsTheAnswer: a context cancelled while the
// server has not answered ends the call with context.Canceled; the
// connection then holds an unread answer, so the next call is ErrClosed.
func TestCancelWhileServerHoldsTheAnswer(t *testing.T) {
	received, release := make(chan struct{}), make(chan struct{})
	addr := fakeServer(t, func(f wire.Frame) (byte, []byte) {
		if f.Op == wire.OpHello {
			return helloOK()
		}
		close(received)
		<-release
		return answer("late")
	})
	t.Cleanup(func() { close(release) })
	c, err := client.Dial(context.Background(), addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		<-received
		cancel()
	}()
	if _, err := c.Query(ctx, "lib", "//x", nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("Query = %v, want context.Canceled", err)
	}
	if err := c.Ping(context.Background()); !errors.Is(err, client.ErrClosed) {
		t.Fatalf("call after the cancelled one = %v, want ErrClosed", err)
	}
}
