// Recovery: demonstrate the durability leg of the transaction protocol —
// committed transactions survive a crash because commit writes a single
// WAL record before applying changes, and recovery replays the segmented
// log over the best available checkpoint image (Section 3.2).
//
// Checkpoints are *online*: the image is pinned at a (version, LSN) pair
// inside the commit critical section and streamed outside any lock, so
// commits keep landing while it writes; completion is the atomic rename
// of the LSN-stamped image file into place — the newest image on disk is
// the current checkpoint — and only WAL segments wholly below the pinned
// LSN are pruned. With Options.CheckpointEvery a background goroutine
// does this automatically once the WAL tail grows past the policy.
//
// Checkpoints are also *incremental*: column chunks are written to a
// content-addressed chunk store and the image is just a list of chunk
// hashes, so a checkpoint after a small change re-references the
// unchanged chunks and writes only the dirtied ones (O(churn) I/O).
// Stats exposes the written/reused counters, printed below.
//
// Run with: go run ./examples/recovery
package main

import (
	"fmt"
	"log"
	"os"
	"strings"
)

import "mxq"

func main() {
	dir, err := os.MkdirTemp("", "mxq-recovery-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	fmt.Println("durability directory:", dir)

	// Session 1: load, checkpoint, commit updates into the WAL. The
	// policy also auto-checkpoints in the background once 64 records
	// accumulate (not reached here — the explicit call below shows the
	// manual path).
	db, err := mxq.Open(mxq.Options{
		Dir:             dir,
		CheckpointEvery: mxq.CheckpointPolicy{Records: 64},
	})
	if err != nil {
		log.Fatal(err)
	}
	// A few thousand accounts so the columns span many pages — the unit
	// a content-addressed chunk covers. Small appends then dirty only
	// the tail pages, which is what makes the second checkpoint cheap.
	var ledger strings.Builder
	ledger.WriteString(`<ledger>`)
	for i := 0; i < 4000; i++ {
		fmt.Fprintf(&ledger, `<account id="a%d"><balance>%d</balance></account>`, i, 100+i)
	}
	ledger.WriteString(`</ledger>`)
	doc, err := db.LoadXMLString("ledger", ledger.String())
	if err != nil {
		log.Fatal(err)
	}
	if err := doc.Checkpoint(); err != nil {
		log.Fatal(err)
	}
	full := doc.Stats()
	fmt.Printf("online checkpoint written (image naming %d content-addressed chunks, %d bytes)\n",
		full.CkptChunksWritten, full.CkptBytesWritten)

	for i := 1; i <= 3; i++ {
		_, err := doc.Update(fmt.Sprintf(`<xupdate:modifications version="1.0" xmlns:xupdate="http://www.xmldb.org/xupdate">
		  <xupdate:append select="/ledger">
		    <entry seq="%d"><amount>%d</amount></entry>
		  </xupdate:append>
		</xupdate:modifications>`, i, i*10))
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("committed entry %d (one WAL record; concurrent commits would share the fsync)\n", i)
	}
	st := doc.Stats()
	fmt.Printf("wal tail: %d bytes, %d records beyond the checkpoint\n", st.WALBytes, st.WALRecords)

	// A second checkpoint after three small appends is incremental: most
	// chunks are unchanged, so the store already has them and only the
	// dirtied ones are written.
	if err := doc.Checkpoint(); err != nil {
		log.Fatal(err)
	}
	st = doc.Stats()
	fmt.Printf("incremental checkpoint: %d chunks written, %d reused (%d bytes, dedupe %.0f%%)\n",
		st.CkptChunksWritten-full.CkptChunksWritten, st.CkptChunksReused-full.CkptChunksReused,
		st.CkptBytesWritten-full.CkptBytesWritten, 100*st.CkptDedupeRatio)

	// One more committed entry lands only in the WAL, so recovery below
	// exercises both legs: incremental image + replay of its tail.
	if _, err := doc.Update(`<xupdate:modifications version="1.0" xmlns:xupdate="http://www.xmldb.org/xupdate">
	  <xupdate:append select="/ledger">
	    <entry seq="4"><amount>40</amount></entry>
	  </xupdate:append>
	</xupdate:modifications>`); err != nil {
		log.Fatal(err)
	}
	fmt.Println("committed entry 4 (WAL only — after the incremental checkpoint)")

	// Capture the committed pre-crash state through a point-in-time
	// snapshot handle; the deferred Close returns its chunk references
	// once we are done comparing (the snapshot-handle contract: always
	// pair Snapshot with Close).
	snap := doc.Snapshot()
	defer snap.Close()
	want, err := snap.XML()
	if err != nil {
		log.Fatal(err)
	}

	// Simulate a crash: walk away without another checkpoint. Entry 4
	// exists only in the WAL segments.
	db.Close()
	fmt.Println("\n-- crash --")

	// Session 2: recovery = newest checkpoint image (the chunks it
	// names) + WAL replay, on the document's first OpenDocument.
	db2, err := mxq.Open(mxq.Options{Dir: dir})
	if err != nil {
		log.Fatal(err)
	}
	defer db2.Close()
	doc2, err := db2.OpenDocument("ledger")
	if err != nil {
		log.Fatal(err)
	}
	got, err := doc2.XML()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("recovered document: %d bytes of XML\n", len(got))
	if got == want {
		fmt.Println("\nrecovered state matches the pre-crash committed state: ok")
	} else {
		log.Fatalf("MISMATCH:\nwant %s\ngot  %s", want, got)
	}
	n, _ := doc2.QueryValue(`count(/ledger/entry)`)
	fmt.Printf("entries after recovery: %s of 4\n", n)
}
