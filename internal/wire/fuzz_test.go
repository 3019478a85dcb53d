package wire

import (
	"bytes"
	"runtime"
	"testing"
)

// walBatch is a WALRecords payload of two records in internal/wal's
// record encoding (that package imports this one, so it is spelt out):
// LSN 7 sets node 3's value, LSN 8 appends <book id="b9"/> under node 1
// as new node 42.
var walBatch = func() []byte {
	var p PayloadBuilder
	p.Byte(1).Uvarint(7).Uvarint(1)
	p.Uvarint(5).Uvarint(3).Uvarint(0).String("").String("v").Uvarint(0).Uvarint(0)
	p.Byte(1).Uvarint(8).Uvarint(1)
	p.Uvarint(2).Uvarint(1).Uvarint(0).String("").String("").Uvarint(1)
	p.Uvarint(0).Uvarint(0).Uvarint(0).String("book").String("").Uvarint(1).String("id").String("b9")
	p.Uvarint(1).Uvarint(42)
	return p.Bytes()
}()

// seedFrames is one plausible frame per opcode, plus the ChunkNeed whose
// count times the 32-byte hash size wraps to its empty remainder.
func seedFrames() []Frame {
	pb := func() *PayloadBuilder { return new(PayloadBuilder) }
	hash := bytes.Repeat([]byte{0xab}, 32)
	return []Frame{
		{ID: 1, Op: OpPing},
		{ID: 2, Op: OpListDocs},
		{ID: 3, Op: OpLoad, Payload: pb().String("lib").String("<lib/>").Bytes()},
		{ID: 4, Op: OpQuery, Payload: pb().String("lib").String("//book").Uvarint(1).String("k").String("v").Uvarint(7).Uvarint(5000).Bytes()},
		{ID: 5, Op: OpUpdate, Payload: pb().String("lib").String("<xupdate:modifications/>").Bytes()},
		{ID: 6, Op: OpExplain, Payload: pb().String("lib").String("//book[1]").Bytes()},
		{ID: 7, Op: OpBeginRead, Payload: pb().String("lib").Bytes()},
		{ID: 8, Op: OpEndRead, Payload: pb().String("lib").Bytes()},
		{ID: 9, Op: OpHello, Payload: pb().Uvarint(Version).Uvarint(FeatReplication).Bytes()},
		{ID: 10, Op: OpSubscribeWAL, Payload: pb().String("lib").Uvarint(SubscribeNone).Bytes()},
		{Op: OpWALRecords, Payload: walBatch},
		{Op: OpFollowerAck, Payload: pb().Uvarint(42).Bytes()},
		{ID: 14, Op: OpDocStatus, Payload: pb().String("lib").Bytes()},
		{Op: OpSnapManifest, Payload: []byte(`{"pageBits":4}`)},
		{Op: OpChunkNeed, Payload: pb().Uvarint(1).Raw(hash).Bytes()},
		{Op: OpChunkNeed, Payload: pb().Uvarint(1 << 59).Bytes()},
		{Op: OpChunkData, Payload: pb().Byte(1).Uvarint(1).Raw(hash).Uvarint(3).Raw([]byte("abc")).Bytes()},
		{ID: 4, Op: StatusOK, Payload: pb().Uvarint(1).Byte(KindElement).String("v").String("<a>v</a>").Bytes()},
		{ID: 4, Op: CodeQuery, Payload: pb().String("syntax error").Bytes()},
	}
}

// FuzzFrameDecode: arbitrary bytes through ReadFrame under a frame
// limit, then every PayloadReader method in an order the input picks.
// Nothing panics, ReadFrame allocates no more than the limit, a reader
// never hands out more than the payload holds or accepts a count the
// payload cannot back, its first error sticks, and an accepted frame
// written back is the bytes it was read from.
func FuzzFrameDecode(f *testing.F) {
	for i, fr := range seedFrames() {
		var buf bytes.Buffer
		if err := WriteFrame(&buf, fr); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes(), uint16(1<<12), []byte{byte(i), 1, 0, 2, 4, 3})
	}
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0, 0, 0, 0, 0, 1}, uint16(64), []byte{0})
	f.Fuzz(func(t *testing.T, data []byte, limit uint16, order []byte) {
		max := uint32(limit) + 9 // 0 would mean the 64 MiB default
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		fr, err := ReadFrame(bytes.NewReader(data), max)
		runtime.ReadMemStats(&after)
		// The body is the one allocation; the allowance covers the reader
		// and the fuzz worker's own background allocation.
		if got, bound := after.TotalAlloc-before.TotalAlloc, uint64(max)+1<<16; got > bound {
			t.Fatalf("ReadFrame under limit %d allocated %d bytes", max, got)
		}
		if err != nil {
			return
		}
		if uint32(len(fr.Payload))+9 > max {
			t.Fatalf("accepted a %d-byte payload under limit %d", len(fr.Payload), max)
		}
		var back bytes.Buffer
		if err := WriteFrame(&back, fr); err != nil {
			t.Fatal(err)
		}
		if n := back.Len(); n > len(data) || !bytes.Equal(back.Bytes(), data[:n]) {
			t.Fatalf("frame does not round-trip:\n in  %x\n out %x", data, back.Bytes())
		}

		r := NewPayloadReader(fr.Payload)
		for _, sel := range order {
			left, failed := r.Remaining(), r.Err()
			switch sel % 6 {
			case 0:
				r.Uvarint()
			case 1:
				if s, err := r.String(); err == nil && len(s) > left {
					t.Fatalf("String returned %d bytes of %d remaining", len(s), left)
				}
			case 2:
				r.Byte()
			case 3:
				if rest := r.Rest(); len(rest) != left || r.Remaining() != 0 {
					t.Fatalf("Rest returned %d bytes of %d, %d left behind", len(rest), left, r.Remaining())
				}
			case 4:
				min := 1 + int(sel/6)
				if n, err := r.Count(min); err == nil && n > uint64(r.Remaining()/min) {
					t.Fatalf("Count(%d) accepted %d with %d bytes behind it", min, n, r.Remaining())
				}
			case 5:
				n := int(sel / 6)
				b := r.Next(n)
				if refuse := failed != nil || n > left; refuse && (b != nil || r.Err() == nil) || !refuse && (len(b) != n || r.Err() != nil) {
					t.Fatalf("Next(%d) returned %d bytes of %d, error %v", n, len(b), left, r.Err())
				}
			}
			if now := r.Remaining(); now < 0 || now > left {
				t.Fatalf("Remaining went %d -> %d", left, now)
			}
			if failed != nil && (r.Err() != failed || r.Remaining() != 0) {
				t.Fatalf("reader failed with %v, now %v with %d bytes left", failed, r.Err(), r.Remaining())
			}
		}
	})
}
