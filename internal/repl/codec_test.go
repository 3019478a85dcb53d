package repl

import (
	"bytes"
	"path/filepath"
	"testing"

	"mxq/internal/chunkstore"
	"mxq/internal/shred"
	"mxq/internal/wal"
	"mxq/internal/xenc"
)

// TestRecordCodec: records read back from the log, batched by the sender
// and decoded by the follower arrive with every field intact, a fragment
// with attributes and the NewIDs the primary assigned included.
func TestRecordCodec(t *testing.T) {
	log, err := wal.Open(filepath.Join(t.TempDir(), "d.wal"), wal.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer log.Close()
	in := []*wal.Record{
		{LSN: 1, Ops: []wal.Op{{Kind: wal.OpSetValue, Target: 3, Value: "v"}}},
		{LSN: 2, Ops: []wal.Op{{Kind: wal.OpAppendChild, Target: 1,
			Frag: &shred.Tree{Nodes: []shred.Node{{Kind: xenc.KindElem, Name: "book",
				Attrs: []shred.Attr{{Name: "id", Value: "b9"}}}}},
			NewIDs: []xenc.NodeID{42}}}},
	}
	for _, rec := range in {
		if err := log.AppendRecord(rec); err != nil {
			t.Fatal(err)
		}
	}
	r, err := log.NewReader(0)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	var held []byte
	b, err := nextBatch(r, &held)
	if err != nil {
		t.Fatal(err)
	}
	out, err := decodeBatch(b)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 2 || out[0].LSN != 1 || out[0].Ops[0].Target != 3 || out[0].Ops[0].Value != "v" ||
		out[1].Ops[0].Frag.Nodes[0].Name != "book" || len(out[1].Ops[0].Frag.Nodes[0].Attrs) != 1 ||
		out[1].Ops[0].Frag.Nodes[0].Attrs[0].Value != "b9" || out[1].Ops[0].NewIDs[0] != 42 {
		t.Fatalf("round trip = %+v", out)
	}
}

// TestChunkBatchRefusesNonCanonical: a ChunkData payload is accepted
// only as encodeChunkBatch writes it. A size varint padded with a
// continuation byte, a last flag other than 0 or 1 and a byte after the
// last chunk are each refused.
func TestChunkBatchRefusesNonCanonical(t *testing.T) {
	h := chunkstore.Hash{0xab}
	good := encodeChunkBatch(true, []chunkstore.Hash{h}, [][]byte{[]byte("abc")})
	last, hs, bodies, err := decodeChunkBatch(good)
	if err != nil || !last || len(hs) != 1 || hs[0] != h || string(bodies[0]) != "abc" {
		t.Fatalf("decodeChunkBatch(%x) = %v, %x, %q, %v", good, last, hs, bodies, err)
	}
	overlong := append(append([]byte{1, 1}, h[:]...), 0x83, 0x00) // size 3 in two bytes
	for name, payload := range map[string][]byte{
		"overlong size varint": append(overlong, "abc"...),
		"last flag 2":          append([]byte{2}, good[1:]...),
		"stray byte":           append(good[:len(good):len(good)], 0),
	} {
		if _, _, _, err := decodeChunkBatch(payload); err == nil {
			t.Errorf("%s: %x accepted", name, payload)
		}
	}
}

// FuzzChunkBatch: no ChunkData payload panics decodeChunkBatch, and one
// it accepts re-encodes to the same bytes.
func FuzzChunkBatch(f *testing.F) {
	f.Add(encodeChunkBatch(true, nil, nil))
	f.Add(encodeChunkBatch(false, []chunkstore.Hash{{1}, {2}}, [][]byte{[]byte("abc"), nil}))
	f.Fuzz(func(t *testing.T, payload []byte) {
		last, hs, bodies, err := decodeChunkBatch(payload)
		if err != nil {
			return
		}
		if again := encodeChunkBatch(last, hs, bodies); !bytes.Equal(again, payload) {
			t.Fatalf("accepted batch re-encodes differently:\n in  %x\n out %x", payload, again)
		}
	})
}
