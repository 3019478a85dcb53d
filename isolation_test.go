package mxq

import (
	"strings"
	"testing"
)

// TestTxIsSnapshotIsolatedNotSerializable pins the documented isolation
// level of write transactions: snapshot isolation, not serializability.
// A transaction selects against the version it began on, and page locks
// cover only what it writes, so two transactions that each read what the
// other writes both commit (write skew): afterwards a = b = 1, a result
// no serial order gives. If the isolation level changes — say, commit
// starts validating what a transaction read — this test must change with
// it, together with the docs of Document.Begin, Tx and package tx.
func TestTxIsSnapshotIsolatedNotSerializable(t *testing.T) {
	db, err := Open(Options{PageSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	// The filler puts a and b on different pages, so neither write takes
	// a lock the other holds.
	doc, err := db.LoadXMLString("skew", "<r><a>0</a>"+strings.Repeat("<f/>", 30)+"<b>0</b></r>")
	if err != nil {
		t.Fatal(err)
	}
	update := func(sel string) string {
		return `<xupdate:modifications version="1.0" xmlns:xupdate="http://www.xmldb.org/xupdate">
		  <xupdate:update select="` + sel + `">1</xupdate:update>
		</xupdate:modifications>`
	}
	t1, t2 := doc.Begin(), doc.Begin()
	if _, err := t1.Update(update("/r/b[../a='0']")); err != nil {
		t.Fatal(err)
	}
	if _, err := t2.Update(update("/r/a[../b='0']")); err != nil {
		t.Fatal(err)
	}
	if err := t1.Commit(); err != nil {
		t.Fatalf("first commit: %v", err)
	}
	if err := t2.Commit(); err != nil {
		t.Fatalf("second commit: %v (a serializable commit would refuse it; the documented level does not)", err)
	}
	a, err := doc.QueryValue("/r/a")
	if err != nil {
		t.Fatal(err)
	}
	b, err := doc.QueryValue("/r/b")
	if err != nil {
		t.Fatal(err)
	}
	if a != "1" || b != "1" {
		t.Fatalf("a = %q, b = %q; write skew leaves both 1", a, b)
	}
}
