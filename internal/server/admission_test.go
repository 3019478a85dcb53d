package server

import (
	"bytes"
	"errors"
	"net"
	"testing"
	"time"

	"mxq"
	"mxq/internal/wire"
)

func TestAdmissionFastPath(t *testing.T) {
	a := newAdmission(4, 2)
	for i := 0; i < 4; i++ {
		if err := a.acquire(1); err != nil {
			t.Fatalf("acquire %d: %v", i, err)
		}
	}
	a.release(1)
	if err := a.acquire(1); err != nil {
		t.Fatalf("acquire after release: %v", err)
	}
}

func TestAdmissionOverflow(t *testing.T) {
	a := newAdmission(1, 1)
	if err := a.acquire(1); err != nil {
		t.Fatal(err)
	}
	queued := make(chan error, 1)
	go func() { queued <- a.acquire(1) }()
	waitWaiters(t, a, 1)
	// Queue full: the next acquisition is rejected immediately.
	if err := a.acquire(1); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("acquire with full queue = %v, want ErrOverloaded", err)
	}
	a.release(1)
	if err := <-queued; err != nil {
		t.Fatalf("queued waiter: %v", err)
	}
	a.release(1)
}

func TestAdmissionFIFO(t *testing.T) {
	a := newAdmission(2, 4)
	if err := a.acquire(2); err != nil {
		t.Fatal(err)
	}
	order := make(chan int, 2)
	// A heavy waiter queues first; a light one that *would* fit must not
	// jump it.
	heavy := make(chan error, 1)
	go func() {
		err := a.acquire(2)
		order <- 2
		heavy <- err
	}()
	waitWaiters(t, a, 1)
	light := make(chan error, 1)
	go func() {
		err := a.acquire(1)
		order <- 1
		light <- err
	}()
	waitWaiters(t, a, 2)
	a.release(2)
	if err := <-heavy; err != nil {
		t.Fatal(err)
	}
	if got := <-order; got != 2 {
		t.Fatalf("first admitted = %d, want the heavy FIFO head", got)
	}
	a.release(2)
	if err := <-light; err != nil {
		t.Fatal(err)
	}
}

func TestAdmissionWeightClamp(t *testing.T) {
	a := newAdmission(2, 1)
	// A request heavier than the whole semaphore clamps to cap and runs
	// alone rather than deadlocking forever.
	if err := a.acquire(99); err != nil {
		t.Fatal(err)
	}
	if a.cur != 2 {
		t.Fatalf("cur = %d, want clamped 2", a.cur)
	}
	a.release(99)
	if a.cur != 0 {
		t.Fatalf("cur after release = %d", a.cur)
	}
}

func TestAdmissionClose(t *testing.T) {
	a := newAdmission(1, 4)
	if err := a.acquire(1); err != nil {
		t.Fatal(err)
	}
	queued := make(chan error, 1)
	go func() { queued <- a.acquire(1) }()
	waitWaiters(t, a, 1)
	a.close()
	if err := <-queued; !errors.Is(err, errAdmissionClosed) {
		t.Fatalf("queued waiter after close = %v", err)
	}
	if err := a.acquire(1); !errors.Is(err, errAdmissionClosed) {
		t.Fatalf("acquire after close = %v", err)
	}
	a.release(1) // in-flight holder still releases cleanly
}

func waitWaiters(t *testing.T, a *admission, n int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for {
		a.mu.Lock()
		got := len(a.waiters)
		a.mu.Unlock()
		if got == n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("waiters = %d, want %d", got, n)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestPayloadRoundTrip(t *testing.T) {
	var p wire.PayloadBuilder
	p.Uvarint(7).String("hello").Byte(0xAB).String("").Uvarint(1 << 40)
	r := wire.NewPayloadReader(p.Bytes())
	if n, err := r.Uvarint(); err != nil || n != 7 {
		t.Fatalf("uvarint = %d, %v", n, err)
	}
	if s, err := r.String(); err != nil || s != "hello" {
		t.Fatalf("string = %q, %v", s, err)
	}
	if b, err := r.Byte(); err != nil || b != 0xAB {
		t.Fatalf("byte = %x, %v", b, err)
	}
	if s, err := r.String(); err != nil || s != "" {
		t.Fatalf("empty string = %q, %v", s, err)
	}
	if n, err := r.Uvarint(); err != nil || n != 1<<40 {
		t.Fatalf("big uvarint = %d, %v", n, err)
	}
	if _, err := r.Uvarint(); err == nil {
		t.Fatal("read past end should error")
	}
}

func TestPayloadTruncated(t *testing.T) {
	var p wire.PayloadBuilder
	p.String("hello")
	raw := p.Bytes()
	r := wire.NewPayloadReader(raw[:len(raw)-2])
	if _, err := r.String(); err == nil {
		t.Fatal("truncated string should error")
	}
}

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	in := wire.Frame{ID: 42, Op: wire.OpQuery, Payload: []byte("payload")}
	if err := wire.WriteFrame(&buf, in); err != nil {
		t.Fatal(err)
	}
	out, err := wire.ReadFrame(&buf, 0)
	if err != nil {
		t.Fatal(err)
	}
	if out.ID != in.ID || out.Op != in.Op || string(out.Payload) != "payload" {
		t.Fatalf("round trip = %+v", out)
	}
}

func TestFrameLimits(t *testing.T) {
	// Length below the fixed header is malformed.
	var buf bytes.Buffer
	buf.Write([]byte{0, 0, 0, 4, 1, 2, 3, 4})
	if _, err := wire.ReadFrame(&buf, 0); err == nil {
		t.Fatal("undersized frame should error")
	}
	// Length above the cap is rejected before any allocation.
	buf.Reset()
	buf.Write([]byte{0xFF, 0xFF, 0xFF, 0xFF})
	if _, err := wire.ReadFrame(&buf, 1024); err == nil {
		t.Fatal("oversized frame should error")
	}
}

// TestOverloadFrames drives overload end to end over the wire: with the
// single execution slot held and the wait queue full, a query must come
// back as a fast CodeOverloaded frame — and succeed once capacity frees.
func TestOverloadFrames(t *testing.T) {
	db, err := mxq.Open(mxq.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if _, err := db.LoadXMLString("lib", "<lib><b>x</b></lib>"); err != nil {
		t.Fatal(err)
	}
	srv := New(Config{DB: db, MaxConcurrent: 1, MaxWaiters: 1})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(l)
	defer srv.Shutdown(2 * time.Second)

	// Occupy the only slot and fill the queue from the test side.
	if err := srv.adm.acquire(1); err != nil {
		t.Fatal(err)
	}
	queued := make(chan error, 1)
	go func() { queued <- srv.adm.acquire(1) }()
	waitWaiters(t, srv.adm, 1)

	conn, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	var p wire.PayloadBuilder
	p.String("lib").String("//b").Uvarint(0)
	if err := wire.WriteFrame(conn, wire.Frame{ID: 1, Op: wire.OpQuery, Payload: p.Bytes()}); err != nil {
		t.Fatal(err)
	}
	f, err := wire.ReadFrame(conn, 0)
	if err != nil {
		t.Fatal(err)
	}
	if f.ID != 1 || f.Op != wire.CodeOverloaded {
		t.Fatalf("frame under overload = id %d op %d, want wire.CodeOverloaded", f.ID, f.Op)
	}

	srv.adm.release(1)
	if err := <-queued; err != nil {
		t.Fatal(err)
	}
	srv.adm.release(1)

	if err := wire.WriteFrame(conn, wire.Frame{ID: 2, Op: wire.OpQuery, Payload: p.Bytes()}); err != nil {
		t.Fatal(err)
	}
	f, err = wire.ReadFrame(conn, 0)
	if err != nil {
		t.Fatal(err)
	}
	if f.ID != 2 || f.Op != wire.StatusOK {
		t.Fatalf("frame after release = id %d op %d, want wire.StatusOK", f.ID, f.Op)
	}
}
