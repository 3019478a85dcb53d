package mxq

import (
	"fmt"
	"strings"
	"testing"
)

const snapDoc = `<lib><shelf id="s1"><book genre="sf">A</book><book genre="hist">B</book></shelf></lib>`

func loadSnapDoc(t *testing.T) *Document {
	t.Helper()
	db, err := Open(Options{PageSize: 16})
	if err != nil {
		t.Fatal(err)
	}
	doc, err := db.LoadXMLString("lib", snapDoc)
	if err != nil {
		t.Fatal(err)
	}
	return doc
}

// TestStatsBuildsNoSnapshot: Stats reads the current committed version
// — its commit count and shape — and builds nothing: polling it through
// a write-only phase allocates nothing.
func TestStatsBuildsNoSnapshot(t *testing.T) {
	doc := loadSnapDoc(t)
	nodes := doc.Stats().LiveNodes
	for i := 1; i <= 3; i++ {
		appendBook(t, doc, "C")
		st := doc.Stats()
		if st.Commits != uint64(i) || st.Commits != doc.Version() || st.LiveNodes != nodes+2*i {
			t.Fatalf("after commit %d: Stats = %d commits, %d live nodes, version %d; want %d, %d and %d",
				i, st.Commits, st.LiveNodes, doc.Version(), i, nodes+2*i, i)
		}
	}
	if allocs := testing.AllocsPerRun(100, func() { doc.Stats() }); allocs != 0 {
		t.Fatalf("Stats allocated %.0f times a call, want 0", allocs)
	}
}

// TestSnapshotHandleLifecycle covers the public contract end to end: a
// snapshot observes its version across commits, Close is idempotent,
// and use after Close fails with ErrSnapshotClosed.
func TestSnapshotHandleLifecycle(t *testing.T) {
	doc := loadSnapDoc(t)

	snap := doc.Snapshot()
	if snap.Version() != 0 {
		t.Fatalf("fresh snapshot at version %d, want 0", snap.Version())
	}
	before, err := snap.XML()
	if err != nil {
		t.Fatal(err)
	}

	if _, err := doc.Update(`<xupdate:modifications version="1.0" xmlns:xupdate="http://www.xmldb.org/xupdate">
	  <xupdate:append select="/lib/shelf"><book>C</book></xupdate:append>
	</xupdate:modifications>`); err != nil {
		t.Fatal(err)
	}

	// The snapshot still sees 2 books; the document sees 3.
	if n, err := snap.QueryValue(`count(//book)`); err != nil || n != "2" {
		t.Fatalf("snapshot sees %s books (err %v), want 2", n, err)
	}
	if n, err := doc.QueryValue(`count(//book)`); err != nil || n != "3" {
		t.Fatalf("document sees %s books (err %v), want 3", n, err)
	}
	if got, _ := snap.XML(); got != before {
		t.Fatalf("snapshot drifted across a commit:\nbefore: %s\nafter:  %s", before, got)
	}
	if v, err := snap.QueryValue(`/lib/shelf/book[1]/text()`); err != nil || v != "A" {
		t.Fatalf("snapshot QueryValue = %q, %v", v, err)
	}

	snap.Close()
	snap.Close() // idempotent
	if _, err := snap.Query(`//book`); err != ErrSnapshotClosed {
		t.Fatalf("query on closed snapshot: %v, want ErrSnapshotClosed", err)
	}
	if err := snap.SerializeTo(&strings.Builder{}, ""); err != ErrSnapshotClosed {
		t.Fatalf("serialize on closed snapshot: %v, want ErrSnapshotClosed", err)
	}

	// The document is unaffected by the handle's lifecycle.
	if n, _ := doc.QueryValue(`count(//book)`); n != "3" {
		t.Fatalf("document sees %s books after snapshot close, want 3", n)
	}
	if err := doc.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestAbortedProgramsLeaveNoNames: an XUpdate program that appends new
// element and attribute names and then fails is aborted, and its names
// never reach the document's pool — not in Stats, not in the checkpoint
// image, not after a reopen. Only a commit adds a name.
func TestAbortedProgramsLeaveNoNames(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(Options{Dir: dir, NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	doc, err := db.LoadXMLString("lib", libDoc)
	if err != nil {
		t.Fatal(err)
	}
	names := doc.Stats().Names
	want, _ := doc.XML()
	for i := range 1000 {
		_, err := doc.Update(wrapMods(fmt.Sprintf(`<xupdate:append select="/lib/shelf"><leak%d a%d="v"/></xupdate:append>`, i, i) +
			`<xupdate:update select="1+1">x</xupdate:update>`))
		if err == nil {
			t.Fatalf("program %d committed, want it to fail on its second op", i)
		}
	}
	if st := doc.Stats(); st.Names != names || st.Aborts != 1000 {
		t.Fatalf("after 1000 failed programs: %d names, %d aborts; want %d names, 1000 aborts", st.Names, st.Aborts, names)
	}
	if err := doc.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if n := doc.Stats().Names; n != names {
		t.Fatalf("after Checkpoint: %d names, want %d", n, names)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db, err = Open(Options{Dir: dir, NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	doc, err = db.OpenDocument("lib")
	if err != nil {
		t.Fatal(err)
	}
	if n := doc.Stats().Names; n != names {
		t.Fatalf("after reopen: %d names, want %d", n, names)
	}
	if got, _ := doc.XML(); got != want {
		t.Fatalf("reopened document differs:\nwant %s\ngot  %s", want, got)
	}
	// A committed program still adds its names.
	if _, err := doc.Update(wrapMods(`<xupdate:append select="/lib/shelf"><kept k="v"/></xupdate:append>`)); err != nil {
		t.Fatal(err)
	}
	if n := doc.Stats().Names; n != names+2 {
		t.Fatalf("after a commit adding 2 names: %d names, want %d", n, names+2)
	}
}

// TestSnapshotSharesQueryCache: handles taken at the same version read
// the one committed version the query path reads, not a copy per
// handle.
func TestSnapshotSharesQueryCache(t *testing.T) {
	doc := loadSnapDoc(t)
	a := doc.Snapshot()
	b := doc.Snapshot()
	defer a.Close()
	defer b.Close()
	if a.Version() != b.Version() || a.rv.View() != b.rv.View() {
		t.Fatalf("same-version handles read different versions: %d vs %d", a.Version(), b.Version())
	}
	ax, _ := a.XML()
	bx, _ := b.XML()
	if ax != bx {
		t.Fatal("two same-version handles disagree")
	}
}
