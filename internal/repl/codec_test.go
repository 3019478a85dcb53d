package repl

import (
	"testing"

	"mxq/internal/wal"
	"mxq/internal/xenc"
)

func TestRecordCodec(t *testing.T) {
	in := []*wal.Record{
		{LSN: 7, Ops: []wal.Op{{Kind: wal.OpSetValue, Target: 3, Value: "v"}}},
		{LSN: 8, Ops: []wal.Op{{Kind: wal.OpAppendChild, Target: 1,
			Frag:   []wal.FragNode{{Kind: 1, Name: "book", Attrs: []string{"id", "b9"}}},
			NewIDs: []xenc.NodeID{42}}}},
	}
	b, err := encodeRecords(in)
	if err != nil {
		t.Fatal(err)
	}
	out, err := decodeRecords(b)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 2 || out[0].LSN != 7 || out[1].Ops[0].Frag[0].Name != "book" || out[1].Ops[0].NewIDs[0] != 42 {
		t.Fatalf("round trip = %+v", out)
	}
}
