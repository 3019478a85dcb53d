package wire

import (
	"bytes"
	"errors"
	"strings"
	"testing"
)

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	var p PayloadBuilder
	p.String("doc").Uvarint(42).Byte(7).Raw([]byte("tail"))
	in := Frame{ID: 99, Op: OpQuery, Payload: p.Bytes()}
	if err := WriteFrame(&buf, in); err != nil {
		t.Fatal(err)
	}
	out, err := ReadFrame(&buf, 0)
	if err != nil {
		t.Fatal(err)
	}
	if out.ID != 99 || out.Op != OpQuery {
		t.Fatalf("frame header = %d/%d", out.ID, out.Op)
	}
	r := NewPayloadReader(out.Payload)
	if s, err := r.String(); err != nil || s != "doc" {
		t.Fatalf("string = %q, %v", s, err)
	}
	if v, err := r.Uvarint(); err != nil || v != 42 {
		t.Fatalf("uvarint = %d, %v", v, err)
	}
	if c, err := r.Byte(); err != nil || c != 7 {
		t.Fatalf("byte = %d, %v", c, err)
	}
	if rest := r.Rest(); string(rest) != "tail" {
		t.Fatalf("rest = %q", rest)
	}
	if r.Remaining() != 0 {
		t.Fatalf("remaining = %d", r.Remaining())
	}
}

// TestResetSizesExactly: UvarintLen predicts what Uvarint appends at
// every length boundary, so a payload sized with it fills a Reset
// builder without growing.
func TestResetSizesExactly(t *testing.T) {
	var p PayloadBuilder
	for shift := 0; shift < 64; shift++ {
		for _, v := range []uint64{1<<shift - 1, 1 << shift, 1<<shift + 1} {
			p.Reset(UvarintLen(v))
			before := &p.Bytes()[:1][0]
			if p.Uvarint(v); len(p.Bytes()) != UvarintLen(v) || &p.Bytes()[0] != before {
				t.Fatalf("Uvarint(%d) appended %d bytes, UvarintLen says %d (grown: %v)", v, len(p.Bytes()), UvarintLen(v), &p.Bytes()[0] != before)
			}
		}
	}
}

func TestReadFrameLimits(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, Frame{ID: 1, Op: OpPing, Payload: make([]byte, 100)}); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadFrame(&buf, 32); err == nil || !strings.Contains(err.Error(), "exceeds limit") {
		t.Fatalf("oversize frame: %v", err)
	}
	short := []byte{0, 0, 0, 3, 1, 2, 3}
	if _, err := ReadFrame(bytes.NewReader(short), 0); err == nil {
		t.Fatal("short frame accepted")
	}
}

func TestTruncatedPayload(t *testing.T) {
	var p PayloadBuilder
	p.Uvarint(1000) // string length prefix with no bytes behind it
	r := NewPayloadReader(p.Bytes())
	if _, err := r.String(); err == nil {
		t.Fatal("truncated string accepted")
	}
	if _, err := NewPayloadReader(nil).Uvarint(); err == nil {
		t.Fatal("empty uvarint accepted")
	}
	if _, err := NewPayloadReader(nil).Byte(); err == nil {
		t.Fatal("empty byte accepted")
	}
	var c PayloadBuilder
	c.Uvarint(2).Raw(make([]byte, 63)) // one byte short of two 32-byte elements
	if _, err := NewPayloadReader(c.Bytes()).Count(32); err == nil {
		t.Fatal("count beyond the bytes present accepted")
	}
	if n, err := NewPayloadReader(c.Bytes()).Count(31); err != nil || n != 2 {
		t.Fatalf("count the bytes can hold = %d, %v", n, err)
	}
}

// TestReaderErrorSticks: the first error fails the reader for good.
// Every getter after it returns the zero value and that error, Next and
// Rest return nil, nothing is left to read, and a later Fail keeps the
// first error.
func TestReaderErrorSticks(t *testing.T) {
	r := NewPayloadReader([]byte{1, 2, 3})
	if b := r.Next(2); !bytes.Equal(b, []byte{1, 2}) || r.Err() != nil {
		t.Fatalf("Next(2) = %x, %v", b, r.Err())
	}
	if b := r.Next(2); b != nil || r.Err() == nil {
		t.Fatalf("Next(2) past the end = %x, %v", b, r.Err())
	}
	first := r.Err()
	r.Fail(errors.New("second"))
	if v, err := r.Uvarint(); v != 0 || err != first {
		t.Errorf("Uvarint after failure = %d, %v", v, err)
	}
	if c, err := r.Byte(); c != 0 || err != first {
		t.Errorf("Byte after failure = %d, %v", c, err)
	}
	if s, err := r.String(); s != "" || err != first {
		t.Errorf("String after failure = %q, %v", s, err)
	}
	if n, err := r.Count(1); n != 0 || err != first {
		t.Errorf("Count after failure = %d, %v", n, err)
	}
	if b := r.Rest(); b != nil || r.Remaining() != 0 || r.Err() != first {
		t.Errorf("Rest after failure = %x, %d left, %v", b, r.Remaining(), r.Err())
	}
	// Fail on a healthy reader: a field well formed but out of range.
	ok := NewPayloadReader([]byte{7, 8})
	want := errors.New("out of range")
	ok.Fail(want)
	if v, err := ok.Uvarint(); v != 0 || err != want || ok.Remaining() != 0 {
		t.Errorf("Uvarint after Fail = %d, %v, %d left", v, err, ok.Remaining())
	}
}

// TestOverlongUvarintRefused: a value has one encoding on the wire, the
// shortest; padding it with continuation bytes is refused, also as a
// string's length or an element count.
func TestOverlongUvarintRefused(t *testing.T) {
	for _, b := range [][]byte{
		{0x80, 0x00},
		{0x81, 0x80, 0x00},
		{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x00},
	} {
		if v, err := NewPayloadReader(b).Uvarint(); err == nil {
			t.Errorf("overlong uvarint %x accepted as %d", b, v)
		}
		if _, err := NewPayloadReader(append(b, 'x')).String(); err == nil {
			t.Errorf("string behind overlong length %x accepted", b)
		}
		if _, err := NewPayloadReader(append(b, 'x')).Count(1); err == nil {
			t.Errorf("overlong count %x accepted", b)
		}
	}
	for _, v := range []uint64{0, 127, 128, 1<<63 - 1, 1<<64 - 1} {
		var p PayloadBuilder
		if got, err := NewPayloadReader(p.Uvarint(v).Bytes()).Uvarint(); err != nil || got != v {
			t.Errorf("canonical uvarint %d read as %d, %v", v, got, err)
		}
	}
}

func TestNegotiate(t *testing.T) {
	cases := []struct {
		clientMax uint64
		ok        bool
	}{
		{0, false},
		{Version - 1, false}, // below the one version: typed rejection
		{Version, true},
		{99, true}, // future client: the server answers with its own version
	}
	for _, c := range cases {
		v, _, ok := Negotiate(c.clientMax, FeatReplication, FeatReplication)
		if ok != c.ok || (ok && v != Version) {
			t.Errorf("Negotiate(max=%d) = %d, %v; want ok=%v", c.clientMax, v, ok, c.ok)
		}
	}
	// Feature bits intersect; unknown and retired bits vanish.
	_, feats, ok := Negotiate(Version, FeatReplication, FeatReplication|1<<1|1<<60)
	if !ok || feats != FeatReplication {
		t.Fatalf("feature intersection = %b, %v", feats, ok)
	}
}

func TestKindCodes(t *testing.T) {
	for _, name := range []string{
		"element", "text", "comment", "processing-instruction",
		"attribute", "document", "number", "string", "boolean",
	} {
		c := KindCode(name)
		if c == 0 {
			t.Fatalf("no code for %q", name)
		}
		if back := KindName(c); back != name {
			t.Fatalf("KindName(KindCode(%q)) = %q", name, back)
		}
	}
	if KindCode("nope") != 0 {
		t.Fatal("unknown kind got a code")
	}
}
