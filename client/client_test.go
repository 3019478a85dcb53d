package client_test

import (
	"context"
	"errors"
	"net"
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
	p.Uvarint(wire.Version).Uvarint(wire.FeatReplication | wire.FeatRYW)
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
