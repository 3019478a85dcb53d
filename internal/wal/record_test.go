package wal

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"hash/crc32"
	"os"
	"reflect"
	"strings"
	"testing"

	"mxq/internal/shred"
	"mxq/internal/wire"
	"mxq/internal/xenc"
)

// sampleRecords holds one op of every kind, between them setting every
// Op field, with a fragment of several nodes and attributes, new ids, a
// negative child index and the no-node target — in the form DecodeRecord
// returns, where an empty slice or fragment is present, not nil.
func sampleRecords() []*Record {
	recs := rawSamples()
	for _, rec := range recs {
		rec.Ops = append([]Op{}, rec.Ops...)
		for i := range rec.Ops {
			op := &rec.Ops[i]
			if op.Frag == nil {
				op.Frag = &shred.Tree{}
			}
			op.Frag.Nodes = append([]shred.Node{}, op.Frag.Nodes...)
			for j := range op.Frag.Nodes {
				op.Frag.Nodes[j].Attrs = append([]shred.Attr{}, op.Frag.Nodes[j].Attrs...)
			}
			op.NewIDs = append([]xenc.NodeID{}, op.NewIDs...)
		}
	}
	return recs
}

func rawSamples() []*Record {
	book := &shred.Tree{Nodes: []shred.Node{
		{Kind: xenc.KindElem, Size: 2, Name: "book", Attrs: []shred.Attr{{Name: "id", Value: "b9"}, {Name: "lang", Value: "en"}}},
		{Kind: xenc.KindElem, Level: 1, Size: 1, Name: "title"},
		{Kind: xenc.KindText, Level: 2, Value: "hello"},
	}}
	return []*Record{
		{LSN: 7, Ops: []Op{{Kind: OpSetValue, Target: 3, Value: "v"}}},
		{LSN: 8, Ops: []Op{{Kind: OpAppendChild, Target: 1, Frag: book, NewIDs: []xenc.NodeID{42, 43, 44}}}},
		{LSN: 9, Ops: []Op{
			{Kind: OpInsertBefore, Target: 42, Frag: &shred.Tree{Nodes: []shred.Node{{Kind: xenc.KindComment, Value: "c"}}}, NewIDs: []xenc.NodeID{45}},
			{Kind: OpInsertAfter, Target: 42, Frag: &shred.Tree{Nodes: []shred.Node{{Kind: xenc.KindPI, Name: "pi", Value: "x"}}}, NewIDs: []xenc.NodeID{46}},
			{Kind: OpInsertChildAt, Target: 1, Child: -1, Frag: book, NewIDs: []xenc.NodeID{47, 48, 49}},
			{Kind: OpDelete, Target: 45},
			{Kind: OpRename, Target: 42, Name: "tome"},
			{Kind: OpSetAttr, Target: 42, Name: "id", Value: "b10"},
			{Kind: OpRemoveAttr, Target: 42, Name: "lang"},
			{Kind: OpSetValue, Target: xenc.NoNode, Child: 1 << 30, Name: "every", Value: "field"},
		}},
		{LSN: 1 << 40},
	}
}

func encodeBatch(recs []*Record) []byte {
	var p wire.PayloadBuilder
	for _, rec := range recs {
		rec.Encode(&p)
	}
	return p.Bytes()
}

// decodeBatch decodes a WALRecords payload: records, concatenated.
func decodeBatch(b []byte) ([]*Record, error) {
	var recs []*Record
	for r := wire.NewPayloadReader(b); r.Remaining() > 0; {
		rec, err := DecodeRecord(r)
		if err != nil {
			return nil, err
		}
		recs = append(recs, rec)
	}
	return recs, nil
}

// TestOpsRoundTrip: every op kind and field comes back equal, through a
// log (append, replay) and through a batch (encode, decode), and the
// batch's bytes are the segment payloads, concatenated.
func TestOpsRoundTrip(t *testing.T) {
	in := sampleRecords()
	out, err := decodeBatch(encodeBatch(in))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(out, in) {
		t.Fatalf("batch round trip:\n in  %+v\n out %+v", in, out)
	}

	l, path := openTemp(t)
	defer l.Close()
	for _, rec := range in[:3] {
		if _, err := l.Append(rec.Ops); err != nil {
			t.Fatal(err)
		}
	}
	var replayed []*Record
	if err := l.Replay(0, func(r *Record) error { replayed = append(replayed, r); return nil }); err != nil {
		t.Fatal(err)
	}
	var segment, payloads []byte
	segment, _ = os.ReadFile(segFiles(t, path)[0])
	for i, rec := range replayed {
		if rec.LSN != uint64(i+1) || !reflect.DeepEqual(rec.Ops, in[i].Ops) {
			t.Fatalf("replayed record %d = %+v, appended %+v", i, rec, in[i])
		}
		n := binary.LittleEndian.Uint32(segment)
		payloads, segment = append(payloads, segment[8:8+n]...), segment[8+n:]
	}
	if want := encodeBatch(replayed); !bytes.Equal(payloads, want) {
		t.Fatalf("segment payloads %x, batch %x", payloads, want)
	}
}

// gobRecord is the shape a record had when the log wrote it with
// encoding/gob, which this package no longer reads.
type gobRecord struct {
	LSN uint64
	Ops []struct {
		Kind   uint8
		Target int32
		Value  string
	}
}

func gobPayload(t testing.TB) []byte {
	var buf bytes.Buffer
	rec := gobRecord{LSN: 1}
	rec.Ops = append(rec.Ops, struct {
		Kind   uint8
		Target int32
		Value  string
	}{uint8(OpSetValue), 3, "v"})
	if err := gob.NewEncoder(&buf).Encode(rec); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestGobRecordRefused: a segment written before the log had its own
// encoding holds checksummed gob payloads. Open refuses it by name and
// leaves it as it was, instead of taking the record for a torn tail and
// truncating it away.
func TestGobRecordRefused(t *testing.T) {
	l, path := openTemp(t)
	l.Append([]Op{{Kind: OpDelete, Target: 1}})
	l.Close()
	payload := gobPayload(t)
	frame := binary.LittleEndian.AppendUint32(nil, uint32(len(payload)))
	frame = binary.LittleEndian.AppendUint32(frame, crc32.ChecksumIEEE(payload))
	seg := segFiles(t, path)[0]
	f, err := os.OpenFile(seg, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.Write(append(frame, payload...))
	f.Close()
	before, _ := os.ReadFile(seg)

	if _, err := Open(path, Options{NoSync: true}); err == nil || !strings.Contains(err.Error(), "unsupported WAL record format") {
		t.Fatalf("Open of a gob-era segment: %v", err)
	}
	if after, _ := os.ReadFile(seg); !bytes.Equal(after, before) {
		t.Fatalf("refused segment changed: %d bytes, was %d", len(after), len(before))
	}
	if _, err := DecodeRecord(wire.NewPayloadReader(payload)); err == nil || !strings.Contains(err.Error(), "unsupported WAL record format") {
		t.Fatalf("decoding a gob-era payload: %v", err)
	}
}

// TestOversizedRecordRefused: a record whose encoding one frame could not
// carry to a follower is refused, on the commit path and the follower's
// alike, before a byte of it is written.
func TestOversizedRecordRefused(t *testing.T) {
	l, _ := openTemp(t)
	defer l.Close()
	if _, err := l.Append([]Op{{Kind: OpSetValue, Target: 1, Value: "small"}}); err != nil {
		t.Fatal(err)
	}
	before := l.Segments()
	huge := []Op{{Kind: OpSetValue, Target: 1, Value: strings.Repeat("x", maxRecord)}}
	if _, err := l.Append(huge); err == nil || !strings.Contains(err.Error(), "one frame carries") {
		t.Fatalf("Append of an oversized record: %v", err)
	}
	if err := l.AppendRecord(&Record{LSN: 2, Ops: huge}); err == nil || !strings.Contains(err.Error(), "one frame carries") {
		t.Fatalf("AppendRecord of an oversized record: %v", err)
	}
	if got := l.Segments(); !reflect.DeepEqual(got, before) || l.LastLSN() != 1 {
		t.Fatalf("refused appends left %+v at LSN %d, was %+v at 1", got, l.LastLSN(), before)
	}
	if lsn, err := l.Append(nil); err != nil || lsn != 2 {
		t.Fatalf("append after the refusals: %d, %v", lsn, err)
	}
}

// malformedRecords are records the decoder refuses: a fragment whose
// levels jump from 0 to 5, one whose root claims 7 descendants it does
// not have, and an op kind past OpRemoveAttr.
func malformedRecords() []*Record {
	elem := func(level int16, size int32) shred.Node {
		return shred.Node{Kind: xenc.KindElem, Name: "e", Level: level, Size: size}
	}
	return []*Record{
		{LSN: 1, Ops: []Op{{Kind: OpAppendChild, Target: 1, Frag: &shred.Tree{Nodes: []shred.Node{elem(0, 1), elem(5, 0)}}, NewIDs: []xenc.NodeID{9, 10}}}},
		{LSN: 1, Ops: []Op{{Kind: OpAppendChild, Target: 1, Frag: &shred.Tree{Nodes: []shred.Node{elem(0, 7)}}, NewIDs: []xenc.NodeID{9}}}},
		{LSN: 1, Ops: []Op{{Kind: OpRemoveAttr + 1, Target: 1}}},
	}
}

// TestMalformedFragmentRefused: a store trusts an op's fragment — its
// levels index the insert's parent stack, its sizes become the size
// column — so a record from a peer or a segment whose fragment the
// shredder could not have made does not decode. Decoded, the first of
// these panicked a follower inside its apply section, after the record
// reached its WAL; the second left a size the invariants refuse.
func TestMalformedFragmentRefused(t *testing.T) {
	for i, rec := range malformedRecords() {
		if _, err := decodeBatch(encodeBatch([]*Record{rec})); err == nil {
			t.Errorf("malformed record %d decoded: %+v", i, rec.Ops)
		}
	}
}
