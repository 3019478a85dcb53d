package tx

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"mxq/internal/core"
	"mxq/internal/wal"
	"mxq/internal/xenc"
)

// commitMixed commits n transactions against m, drawn from rng: value
// updates of a book's text, appends of a book to a shelf, and deletes of
// a book while more than a few are left.
func commitMixed(t *testing.T, m *Manager, rng *rand.Rand, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		txn := m.Begin()
		books := findBooks(t, txn)
		book := books[rng.Intn(len(books))]
		var op wal.Op
		switch k := rng.Intn(4); {
		case k == 0 && len(books) > 4:
			op = wal.Op{Kind: wal.OpDelete, Target: txn.NodeOf(book)}
		case k <= 1:
			op = wal.Op{Kind: wal.OpAppendChild, Target: txn.NodeOf(txn.ParentPre(book)), Frag: frag(t, fmt.Sprintf("<book>n%d</book>", i))}
		default:
			op = wal.Op{Kind: wal.OpSetValue, Target: txn.NodeOf(xenc.SkipFree(txn, book+1)), Value: fmt.Sprintf("v%d", i)}
		}
		if _, err := txn.Apply(op); err != nil {
			t.Fatal(err)
		}
		if err := txn.Commit(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestHeldVersionReadsTheSameAfterCommits: a version leased before 200
// mixed text and structural commits serializes byte-identical after
// them and names the same chunks — no commit wrote a chunk it holds.
func TestHeldVersionReadsTheSameAfterCommits(t *testing.T) {
	m := NewManager(buildStore(t, raceDoc(8, 6), 16), nil)
	rng := rand.New(rand.NewSource(51))
	commitMixed(t, m, rng, 5)
	held := m.AcquireRead()
	defer held.Close()
	store := held.View().(*core.Store)
	xml := viewXML(t, store)
	man, _ := store.BuildManifest()

	commitMixed(t, m, rng, 200)
	if m.Version() != 205 {
		t.Fatalf("version %d after 205 commits", m.Version())
	}
	if got := viewXML(t, store); got != xml {
		t.Fatalf("held version drifted across 200 commits:\nbefore: %s\nafter:  %s", xml, got)
	}
	after, _ := store.BuildManifest()
	for _, l := range [][2][]string{{man.Pages, after.Pages}, {man.Nodes, after.Nodes}, {man.Names, after.Names}} {
		if !slices.Equal(l[0], l[1]) {
			t.Fatal("held version names other chunks after 200 commits")
		}
	}
	if got := viewXML(t, current(m)); got == xml {
		t.Fatal("200 commits left the current version as the held one")
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestAcquireReadAllocatesOnlyTheHandle: a read view is one atomic load
// and the handle, however many commits landed since the last one.
func TestAcquireReadAllocatesOnlyTheHandle(t *testing.T) {
	m := NewManager(buildStore(t, doc, 16), nil)
	if n := testing.AllocsPerRun(100, func() { m.AcquireRead().Close() }); n > 1 {
		t.Fatalf("AcquireRead().Close() allocated %.0f times, want at most 1 (the handle)", n)
	}
	setBook(t, m, 0, "after-a-commit")
	if n := testing.AllocsPerRun(1, func() { m.AcquireRead().Close() }); n > 1 {
		t.Fatalf("the first AcquireRead after a commit allocated %.0f times, want at most 1", n)
	}
}

// TestBeginReadPinRaceOnOneVersion forks, reads and pins each published
// version from many goroutines while a writer commits. Run with -race:
// Begin stamps the version it forks, the only write any of them makes to
// a published store.
func TestBeginReadPinRaceOnOneVersion(t *testing.T) {
	m := NewManager(buildStore(t, raceDoc(6, 4), 16), nil)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				switch g % 3 {
				case 0:
					txn := m.Begin()
					if countBooks(txn) == 0 {
						t.Error("an image holds no book")
					}
					txn.Abort()
				case 1:
					rv := m.AcquireRead()
					if countBooks(rv.View()) == 0 {
						t.Error("a version holds no book")
					}
					rv.Close()
				default:
					s, _ := m.PinCheckpoint()
					if err := s.CheckInvariants(); err != nil {
						t.Error(err)
					}
				}
			}
		}()
	}
	commitMixed(t, m, rand.New(rand.NewSource(52)), 60)
	close(stop)
	wg.Wait()
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// countBooks counts v's book elements.
func countBooks(v xenc.DocView) int {
	id, _ := v.Names().Lookup("book")
	n := 0
	for p := xenc.SkipFree(v, 0); p < v.Len(); p = xenc.SkipFree(v, p+1) {
		if v.Kind(p) == xenc.KindElem && v.Name(p) == id {
			n++
		}
	}
	return n
}

// TestFailedReplicatedRecordPublishesNothing: a replicated record whose
// second op targets a missing id fails whole — the log does not take it
// and no reader sees its first op.
func TestFailedReplicatedRecordPublishesNothing(t *testing.T) {
	log := openTestWAL(t)
	m := NewManager(buildStore(t, doc, 16), log)
	before := viewXML(t, current(m))
	shelf := current(m).NodeOf(findElem(t, current(m), "shelf"))
	rec := &wal.Record{LSN: 1, Ops: []wal.Op{
		{Kind: wal.OpAppendChild, Target: shelf, Frag: frag(t, "<book>D</book>")},
		{Kind: wal.OpSetValue, Target: 999, Value: "x"},
	}}
	if err := m.ApplyReplicated(rec); err == nil {
		t.Fatal("a record with a missing target applied")
	}
	if log.LastLSN() != 0 || m.Version() != 0 || m.AppliedLSN() != 0 {
		t.Fatalf("failed record moved the log to LSN %d, the version to %d, applied to %d", log.LastLSN(), m.Version(), m.AppliedLSN())
	}
	if got := viewXML(t, current(m)); got != before {
		t.Fatalf("a reader sees part of a failed record:\n%s\nwas\n%s", got, before)
	}
}

// TestRacedCommitFailsWhole: a commit that cannot be replayed onto a
// moved version — a commit since its Begin deleted its target, whose
// freed ids the replay's own append would take — reports ErrConflict,
// logs nothing and publishes nothing.
func TestRacedCommitFailsWhole(t *testing.T) {
	log := openTestWAL(t)
	m := NewManager(buildStore(t, doc, 16), log)
	late := m.Begin()
	early := m.Begin()
	book := findElem(t, early, "book")
	if _, err := early.Apply(wal.Op{Kind: wal.OpDelete, Target: early.NodeOf(book)}); err != nil {
		t.Fatal(err)
	}
	if err := early.Commit(); err != nil {
		t.Fatal(err)
	}
	before := viewXML(t, current(m))
	// The delete's page locks went with its commit, so the late writer
	// takes them and only the replay can see the book is gone.
	shelf := late.NodeOf(late.ParentPre(book))
	if _, err := late.Apply(wal.Op{Kind: wal.OpAppendChild, Target: shelf, Frag: frag(t, "<book>E</book>")}); err != nil {
		t.Fatal(err)
	}
	if _, err := late.Apply(wal.Op{Kind: wal.OpSetValue, Target: late.NodeOf(book + 1), Value: "gone"}); err != nil {
		t.Fatal(err)
	}
	if err := late.Commit(); !errors.Is(err, ErrConflict) {
		t.Fatalf("commit onto a version without its target = %v, want ErrConflict", err)
	}
	if log.LastLSN() != 1 || m.Version() != 1 {
		t.Fatalf("failed commit left the log at LSN %d, the version at %d; want 1 and 1", log.LastLSN(), m.Version())
	}
	if got := viewXML(t, current(m)); got != before {
		t.Fatalf("a reader sees part of a failed commit:\n%s\nwas\n%s", got, before)
	}
}

// TestRacedCommitOntoReusedIDFails: a commit that raced one which
// deleted its target and, in the same commit, appended a node that took
// the freed ids reports ErrConflict and writes nothing. Node ids carry
// no generation, so a replay would find the old id live and write onto
// the new node.
func TestRacedCommitOntoReusedIDFails(t *testing.T) {
	m := NewManager(buildStore(t, doc, 16), nil)
	late := m.Begin()
	early := m.Begin()
	book := findElem(t, early, "book")
	shelf := early.NodeOf(early.ParentPre(book))
	text := late.NodeOf(book + 1)
	if _, err := early.Apply(wal.Op{Kind: wal.OpDelete, Target: early.NodeOf(book)}); err != nil {
		t.Fatal(err)
	}
	ids, err := early.Apply(wal.Op{Kind: wal.OpAppendChild, Target: shelf, Frag: frag(t, "<book>new</book>")})
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Contains(ids, text) {
		t.Fatalf("the new book took ids %v, not the freed text id %d: the race is not set up", ids, text)
	}
	if err := early.Commit(); err != nil {
		t.Fatal(err)
	}
	before := viewXML(t, current(m))
	if _, err := late.Apply(wal.Op{Kind: wal.OpSetValue, Target: text, Value: "late"}); err != nil {
		t.Fatal(err)
	}
	if err := late.Commit(); !errors.Is(err, ErrConflict) {
		t.Fatalf("commit onto an id a raced commit freed and reused = %v, want ErrConflict", err)
	}
	if got := viewXML(t, current(m)); got != before || m.Version() != 1 {
		t.Fatalf("a failed commit wrote the new book (version %d):\n%s\nwas\n%s", m.Version(), got, before)
	}
}
