package repl

import (
	"path/filepath"
	"testing"

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
