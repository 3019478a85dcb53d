package mxq

import (
	"bytes"
	"fmt"
	"testing"

	"mxq/internal/wal"
	"mxq/internal/xmark"
	"mxq/internal/xpath"
)

// TestCheckpointIncrementalSavings pins the incremental-checkpoint
// acceptance number: on an XMark SF 0.1 document, the checkpoint after
// ≤1% churn writes at least 10x fewer bytes than the initial full
// checkpoint (content-addressed dedupe re-references every chunk the
// churn did not dirty), and recovery from the incremental image is
// bit-identical to the live document it captured.
func TestCheckpointIncrementalSavings(t *testing.T) {
	var buf bytes.Buffer
	if _, err := xmark.NewGenerator(0.1, 42).WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	db, err := Open(Options{Dir: dir, NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	doc, err := db.LoadXML("site", &buf)
	if err != nil {
		t.Fatal(err)
	}
	if err := doc.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	full := doc.Stats().CkptBytesWritten
	if full == 0 {
		t.Fatal("full checkpoint wrote no bytes")
	}

	// Churn at most 1% of the document's live nodes. The targets are
	// contiguous in document order (a hot region of items, not one node
	// per item across the whole document), so the dirtied pages — the
	// unit a chunk covers — track the churn volume.
	txn := doc.Begin()
	ns, err := xpath.MustParse(`/site/regions//item//text()`).Select(txn.inner)
	if err != nil || len(ns) == 0 {
		t.Fatalf("selecting churn targets: %v (%d nodes)", err, len(ns))
	}
	churn := txn.inner.LiveNodes() / 100
	if churn > len(ns) {
		churn = len(ns)
	}
	if churn == 0 {
		t.Fatal("document too small to churn under 1%")
	}
	for i := 0; i < churn; i++ {
		op := wal.Op{Kind: wal.OpSetValue, Target: txn.inner.NodeOf(ns[i].Pre), Value: fmt.Sprintf("churn-%d", i)}
		if _, err := txn.inner.Apply(op); err != nil {
			t.Fatal(err)
		}
	}
	if err := txn.Commit(); err != nil {
		t.Fatal(err)
	}

	if err := doc.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	st := doc.Stats()
	incr := st.CkptBytesWritten - full
	if incr == 0 {
		t.Fatal("incremental checkpoint wrote no bytes — the churn never reached disk")
	}
	if full < 10*incr {
		t.Fatalf("incremental checkpoint after %d-node churn wrote %d bytes, full wrote %d: less than the 10x floor",
			churn, incr, full)
	}
	if st.CkptDedupeRatio <= 0 {
		t.Fatalf("dedupe ratio %v not reported despite chunk reuse", st.CkptDedupeRatio)
	}
	t.Logf("full %d bytes, incremental %d bytes (%.1fx), dedupe %.1f%%",
		full, incr, float64(full)/float64(incr), 100*st.CkptDedupeRatio)

	// Recovery from the incremental image must reproduce the document
	// bit-identically.
	oracle, err := doc.XML()
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db2, err := Open(Options{Dir: dir, NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	doc2, err := db2.OpenDocument("site")
	if err != nil {
		t.Fatalf("document did not recover: %v", err)
	}
	got, err := doc2.XML()
	if err != nil {
		t.Fatal(err)
	}
	if got != oracle {
		t.Fatal("recovered document differs from the checkpointed one")
	}
}
