package wal_test

import (
	"bytes"
	"runtime"
	"testing"

	"mxq/internal/core"
	"mxq/internal/shred"
	"mxq/internal/wal"
	"mxq/internal/wire"
)

// FuzzRecordDecode: arbitrary bytes as a WALRecords payload. No input
// panics the decoder, what it allocates is bounded by the input length,
// a payload it accepts whole re-encodes to the same bytes, and its ops
// replay into a small store without a panic, leaving the store's
// invariants whole (an op may fail: its target need not exist).
func FuzzRecordDecode(f *testing.F) {
	recs := wal.SampleRecords()
	for _, rec := range recs {
		for i := range rec.Ops { // one record of each op kind
			f.Add(wal.EncodeBatch([]*wal.Record{{LSN: rec.LSN, Ops: rec.Ops[i : i+1]}}))
		}
	}
	f.Add(wal.EncodeBatch(recs))
	var huge wire.PayloadBuilder
	f.Add(huge.Byte(wal.RecordFormat).Uvarint(1).Uvarint(1 << 40).Bytes())
	f.Add(wal.GobPayload(f))
	for _, rec := range wal.MalformedRecords() {
		f.Add(wal.EncodeBatch([]*wal.Record{rec}))
	}
	tree, err := shred.ParseString(`<r><a x="1">t<b/></a><!--c--><?p i?>u<d><e/></d></r>`, shred.Options{})
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		recs, err := wal.DecodeBatch(data)
		runtime.ReadMemStats(&after)
		// An op costs under 12 B a byte of its least encoding, a node or
		// an attribute under 16; the rest covers the fuzz worker's own
		// background allocation.
		if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(64*len(data)+1<<16); got > limit {
			t.Fatalf("decoding %d bytes allocated %d (limit %d)", len(data), got, limit)
		}
		if err != nil {
			return
		}
		if !bytes.Equal(wal.EncodeBatch(recs), data) {
			t.Fatalf("accepted payload re-encodes differently:\n in  %x\n out %x", data, wal.EncodeBatch(recs))
		}
		s, err := core.Build(tree, core.Options{PageSize: 8})
		if err != nil {
			t.Fatal(err)
		}
		for _, rec := range recs {
			for _, op := range rec.Ops {
				s.Apply(op)
			}
		}
		if err := s.CheckInvariants(); err != nil {
			t.Fatalf("invariants after replaying %+v: %v", recs, err)
		}
	})
}
