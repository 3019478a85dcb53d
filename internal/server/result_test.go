package server

import (
	"bytes"
	"hash/fnv"
	"net"
	"strings"
	"testing"

	"mxq"
	"mxq/internal/wire"
	"mxq/internal/xmark"
)

// TestEncodeResultGolden pins the Query payloads of the served
// benchmark's three bulk-fetch shapes on XMark SF 0.01: their FNV-64a
// hashes were taken from the encoder that built a fresh payload per
// result, before the session reused one buffer and sized it in advance.
func TestEncodeResultGolden(t *testing.T) {
	var buf bytes.Buffer
	if _, err := xmark.NewGenerator(0.01, 42).WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	db, err := mxq.Open(mxq.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	doc, err := db.LoadXMLString("x", buf.String())
	if err != nil {
		t.Fatal(err)
	}
	s := newSession(New(Config{DB: db}), nil)
	for _, g := range []struct {
		q    string
		size int
		sum  uint64
	}{
		{"/site/people/person[position() <= 200]", 102056, 0x93239124ca3acf88},
		{"/site/regions/europe/item[position() <= 60]", 286743, 0xbcd13f2d848ab8be},
		{"/site/regions/namerica/item[position() <= 100]", 499389, 0x36e0cc9834f14ba1},
	} {
		res, err := doc.Query(g.q)
		if err != nil {
			t.Fatal(err)
		}
		payload, err := s.encodeResult(res)
		if err != nil {
			t.Fatal(err)
		}
		h := fnv.New64a()
		h.Write(payload)
		if len(payload) != g.size || h.Sum64() != g.sum {
			t.Errorf("%s: payload of %d bytes, FNV-64a %#x; want %d bytes, %#x", g.q, len(payload), h.Sum64(), g.size, g.sum)
		}
	}
}

// TestResultBufferIsBounded: a session encodes each result into one
// buffer it reuses, but drops a buffer a large result grew past maxKept
// once the response is out, so an idle session does not pin it.
func TestResultBufferIsBounded(t *testing.T) {
	db, err := mxq.Open(mxq.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	para := "<p>" + strings.Repeat("x", 1000) + "</p>"
	if _, err := db.LoadXMLString("big", "<r>"+strings.Repeat(para, 1200)+"</r>"); err != nil {
		t.Fatal(err)
	}
	cli, conn := net.Pipe()
	defer cli.Close()
	s := newSession(New(Config{DB: db}), conn)
	defer conn.Close()
	status := make(chan byte)
	go func() {
		for {
			f, err := wire.ReadFrame(cli, 0)
			if err != nil {
				return
			}
			status <- f.Op
		}
	}()
	query := func(q string) {
		t.Helper()
		var p wire.PayloadBuilder
		p.String("big").String(q).Uvarint(0)
		served := make(chan bool)
		go func() { served <- s.handle(wire.Frame{ID: 1, Op: wire.OpQuery, Payload: p.Bytes()}) }()
		if op := <-status; op != wire.StatusOK {
			t.Fatalf("%s: status %d", q, op)
		}
		if !<-served {
			t.Fatalf("%s: the session stopped serving", q)
		}
	}
	query("//p[1]")
	first := s.out.Bytes()
	query("//p[2]")
	if again := s.out.Bytes(); &again[0] != &first[0] {
		t.Error("the second result was not encoded into the first one's buffer")
	}
	query("//p")
	if n := cap(s.out.Bytes()); n != 0 {
		t.Errorf("after a %d-byte result the session keeps a %d-byte buffer", len(para)*1200*2, n)
	}
}
