package tx

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"mxq/internal/chunkstore"
	"mxq/internal/core"
	"mxq/internal/serialize"
	"mxq/internal/shred"
	"mxq/internal/wal"
	"mxq/internal/xenc"
	"mxq/internal/xpath"
)

func buildStore(t *testing.T, doc string, ps int) *core.Store {
	t.Helper()
	tr, err := shred.Parse(strings.NewReader(doc), shred.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s, err := core.Build(tr, core.Options{PageSize: ps, FillFactor: 0.75})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func frag(t *testing.T, s string) *shred.Tree {
	t.Helper()
	tr, err := shred.ParseFragment(s, shred.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func findElem(t *testing.T, v xenc.DocView, name string) xenc.Pre {
	t.Helper()
	ns, err := xpath.MustParse("//" + name).Select(v)
	if err != nil {
		t.Fatal(err)
	}
	if len(ns) == 0 {
		t.Fatalf("element %q not found", name)
	}
	return ns[0].Pre
}

const doc = `<lib><shelf id="s1"><book>A</book><book>B</book></shelf><shelf id="s2"><book>C</book></shelf></lib>`

func TestCommitMakesChangesVisible(t *testing.T) {
	s := buildStore(t, doc, 16)
	m := NewManager(s, nil)
	tx := m.Begin()
	shelf := findElem(t, tx, "shelf")
	if _, err := tx.Apply(wal.Op{Kind: wal.OpAppendChild, Target: tx.NodeOf(shelf), Frag: frag(t, `<book>D</book>`)}); err != nil {
		t.Fatal(err)
	}
	// Uncommitted: invisible to readers.
	readCurrent(m, func(v xenc.DocView) error {
		if n, _ := xpath.MustParse(`//book`).Select(v); len(n) != 3 {
			t.Fatalf("uncommitted change visible: %d books", len(n))
		}
		return nil
	})
	// Visible inside the transaction (read your writes).
	if n, _ := xpath.MustParse(`//book`).Select(tx); len(n) != 4 {
		t.Fatalf("tx does not see its own write: %d books", len(n))
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	readCurrent(m, func(v xenc.DocView) error {
		if n, _ := xpath.MustParse(`//book`).Select(v); len(n) != 4 {
			t.Fatalf("committed change lost: %d books", len(n))
		}
		return nil
	})
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if st := m.Stats(); st.Commits != 1 || st.Aborts != 0 {
		t.Fatalf("stats = %d/%d", st.Commits, st.Aborts)
	}
}

func TestAbortDiscardsChanges(t *testing.T) {
	s := buildStore(t, doc, 16)
	m := NewManager(s, nil)
	tx := m.Begin()
	shelf := findElem(t, tx, "shelf")
	if _, err := tx.Apply(wal.Op{Kind: wal.OpAppendChild, Target: tx.NodeOf(shelf), Frag: frag(t, `<book>D</book>`)}); err != nil {
		t.Fatal(err)
	}
	tx.Abort()
	readCurrent(m, func(v xenc.DocView) error {
		if n, _ := xpath.MustParse(`//book`).Select(v); len(n) != 3 {
			t.Fatalf("aborted change visible: %d books", len(n))
		}
		return nil
	})
	if err := tx.Commit(); !errors.Is(err, ErrDone) {
		t.Fatalf("commit after abort = %v, want ErrDone", err)
	}
}

func TestEmptyCommitIsNoOp(t *testing.T) {
	s := buildStore(t, doc, 16)
	m := NewManager(s, nil)
	tx := m.Begin()
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if v := m.Version(); v != 0 {
		t.Fatalf("version = %d after empty commit", v)
	}
}

func TestPageConflictAborts(t *testing.T) {
	s := buildStore(t, doc, 16) // one page: everything conflicts
	m := NewManager(s, nil)
	t1 := m.Begin()
	t2 := m.Begin()
	shelf1 := findElem(t, t1, "shelf")
	if _, err := t1.Apply(wal.Op{Kind: wal.OpAppendChild, Target: t1.NodeOf(shelf1), Frag: frag(t, `<book>X</book>`)}); err != nil {
		t.Fatal(err)
	}
	shelf2 := findElem(t, t2, "shelf")
	if _, err := t2.Apply(wal.Op{Kind: wal.OpAppendChild, Target: t2.NodeOf(shelf2), Frag: frag(t, `<book>Y</book>`)}); !errors.Is(err, ErrConflict) {
		t.Fatalf("expected conflict, got %v", err)
	}
	// t2 is poisoned; only abort works.
	if err := t2.Commit(); !errors.Is(err, ErrConflict) {
		t.Fatalf("poisoned commit = %v", err)
	}
	if err := t1.Commit(); err != nil {
		t.Fatal(err)
	}
	if st := m.Stats(); st.Commits != 1 || st.Aborts != 1 {
		t.Fatalf("stats = %d/%d", st.Commits, st.Aborts)
	}
}

// TestDisjointPagesCommitConcurrently is the commutativity claim: two
// writers under different logical pages (but sharing the root as
// ancestor) both commit; the root's size absorbs both delta increments.
func TestDisjointPagesCommitConcurrently(t *testing.T) {
	// Small pages so the two shelves land on different pages.
	big := `<lib><shelf id="s1">` + strings.Repeat(`<book>A</book>`, 10) +
		`</shelf><shelf id="s2">` + strings.Repeat(`<book>C</book>`, 10) + `</shelf></lib>`
	s := buildStore(t, big, 16)
	m := NewManager(s, nil)
	rootSize := s.Size(s.Root())

	t1 := m.Begin()
	t2 := m.Begin()
	s1 := mustSelect(t, t1, `//shelf[@id="s1"]`)
	s2 := mustSelect(t, t2, `//shelf[@id="s2"]`)
	if t1.clone.PhysPage(s1) == t2.clone.PhysPage(s2) {
		t.Skip("layout put both shelves on one page; enlarge the document")
	}
	if _, err := t1.Apply(wal.Op{Kind: wal.OpAppendChild, Target: t1.NodeOf(s1), Frag: frag(t, `<book>X</book>`)}); err != nil {
		t.Fatal(err)
	}
	if _, err := t2.Apply(wal.Op{Kind: wal.OpAppendChild, Target: t2.NodeOf(s2), Frag: frag(t, `<book>Y</book>`)}); err != nil {
		t.Fatalf("disjoint writers conflicted: %v", err)
	}
	if err := t1.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := t2.Commit(); err != nil {
		t.Fatal(err)
	}
	s = current(m)
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if got := s.Size(s.Root()); got != rootSize+4 {
		t.Fatalf("root size = %d, want %d (two delta increments of 2)", got, rootSize+4)
	}
	if n, _ := xpath.MustParse(`//book`).Select(s); len(n) != 22 {
		t.Fatalf("books = %d, want 22", len(n))
	}
}

func mustSelect(t *testing.T, v xenc.DocView, q string) xenc.Pre {
	t.Helper()
	ns, err := xpath.MustParse(q).Select(v)
	if err != nil || len(ns) == 0 {
		t.Fatalf("select %s: %v (%d results)", q, err, len(ns))
	}
	return ns[0].Pre
}

func TestConcurrentWritersStress(t *testing.T) {
	shelves := 8
	var sb strings.Builder
	sb.WriteString(`<lib>`)
	for i := 0; i < shelves; i++ {
		fmt.Fprintf(&sb, `<shelf id="s%d">%s</shelf>`, i, strings.Repeat(`<book>B</book>`, 12))
	}
	sb.WriteString(`</lib>`)
	s := buildStore(t, sb.String(), 16)
	m := NewManager(s, nil)

	var wg sync.WaitGroup
	var mu sync.Mutex
	committed := 0
	for w := 0; w < shelves; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for try := 0; try < 40; try++ {
				tx := m.Begin()
				ns, err := xpath.MustParse(fmt.Sprintf(`//shelf[@id="s%d"]`, w)).Select(tx)
				if err != nil || len(ns) == 0 {
					tx.Abort()
					continue
				}
				if _, err := tx.Apply(wal.Op{Kind: wal.OpAppendChild, Target: tx.NodeOf(ns[0].Pre), Frag: frag(t, `<book>N</book>`)}); err != nil {
					tx.Abort()
					continue
				}
				if err := tx.Commit(); err == nil {
					mu.Lock()
					committed++
					mu.Unlock()
				}
			}
		}(w)
	}
	wg.Wait()
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	books := 0
	readCurrent(m, func(v xenc.DocView) error {
		n, _ := xpath.MustParse(`//book`).Select(v)
		books = len(n)
		return nil
	})
	if books != shelves*12+committed {
		t.Fatalf("books = %d, want %d + %d committed", books, shelves*12, committed)
	}
	if committed == 0 {
		t.Fatal("no transaction ever committed")
	}
}

// image is a checkpoint held in memory: the manifest and chunks a
// pinned snapshot saved, and the LSN the pin covers.
type image struct {
	man *core.ChunkManifest
	cs  *chunkstore.Dir
	lsn uint64
}

// current returns m's current committed version: the store a handed-in
// one stops being at the first commit.
func current(m *Manager) *core.Store {
	s, _ := m.PinCheckpoint()
	return s
}

// checkpoint pins m and saves the version into a fresh chunk store.
func checkpoint(t *testing.T, m *Manager) image {
	t.Helper()
	snap, lsn := m.PinCheckpoint()
	cs := chunkstore.NewDir(t.TempDir())
	man, _, err := snap.SaveChunked(cs)
	if err != nil {
		t.Fatal(err)
	}
	return image{man, cs, lsn}
}

// restore loads the image and replays every later record of log (nil:
// none) — what ckpt.Recover does over files.
func (im image) restore(log *wal.Log) (*core.Store, error) {
	store, err := core.LoadChunked(im.man, im.cs)
	if err != nil || log == nil {
		return store, err
	}
	log.EnsureLSN(im.lsn)
	err = log.Replay(im.lsn, func(rec *wal.Record) error { return ApplyOps(store, rec.Ops) })
	return store, err
}

func TestWALRecovery(t *testing.T) {
	dir := t.TempDir()
	logPath := filepath.Join(dir, "doc.wal")
	log, err := wal.Open(logPath, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s := buildStore(t, doc, 16)
	m := NewManager(s, nil)

	// Checkpoint the initial state, then run committed transactions with
	// the WAL attached.
	ck := checkpoint(t, m)
	m = NewManager(s, log)
	for i := 0; i < 5; i++ {
		tx := m.Begin()
		shelf := mustSelect(t, tx, `//shelf[@id="s2"]`)
		if _, err := tx.Apply(wal.Op{Kind: wal.OpAppendChild, Target: tx.NodeOf(shelf), Frag: frag(t, fmt.Sprintf(`<book>R%d</book>`, i))}); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	s = current(m)
	want, err := serialize.String(s, s.Root(), serialize.Options{})
	if err != nil {
		t.Fatal(err)
	}
	log.Close()

	// "Crash": rebuild from checkpoint + WAL only.
	log2, err := wal.Open(logPath, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer log2.Close()
	recovered, err := ck.restore(log2)
	if err != nil {
		t.Fatal(err)
	}
	if err := recovered.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	got, err := serialize.String(recovered, recovered.Root(), serialize.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("recovered document differs:\nwant %s\ngot  %s", want, got)
	}
}

// TestRecoveryAfterCheckpointTruncate reproduces the full durability
// cycle an embedding application drives: commit, checkpoint (which
// truncates the WAL), restart, commit again, restart again. The second
// restart must see the post-checkpoint commit. This is a regression
// test: a truncated log reopened with its LSN counter at zero used to
// hand out LSNs the checkpoint already covered, so the replay of the
// second recovery silently skipped the commit.
func TestRecoveryAfterCheckpointTruncate(t *testing.T) {
	dir := t.TempDir()
	logPath := filepath.Join(dir, "doc.wal")
	log, err := wal.Open(logPath, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s := buildStore(t, doc, 16)
	m := NewManager(s, log)

	commitBook := func(m *Manager, name string) {
		t.Helper()
		tx := m.Begin()
		shelf := mustSelect(t, tx, `//shelf[@id="s1"]`)
		if _, err := tx.Apply(wal.Op{Kind: wal.OpAppendChild, Target: tx.NodeOf(shelf), Frag: frag(t, `<book>`+name+`</book>`)}); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}

	// Session 1: commit, checkpoint, prune the now-redundant WAL records.
	commitBook(m, "before-ckpt")
	ck := checkpoint(t, m)
	if err := log.Prune(ck.lsn); err != nil {
		t.Fatal(err)
	}
	log.Close()

	// Session 2: recover, commit one more book.
	log2, err := wal.Open(logPath, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s2, err := ck.restore(log2)
	if err != nil {
		t.Fatal(err)
	}
	commitBook(NewManager(s2, log2), "after-ckpt")
	log2.Close()

	// Session 3: the post-checkpoint commit must survive.
	log3, err := wal.Open(logPath, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer log3.Close()
	s3, err := ck.restore(log3)
	if err != nil {
		t.Fatal(err)
	}
	if n, _ := xpath.MustParse(`//book[text()="after-ckpt"]`).Select(s3); len(n) != 1 {
		t.Fatalf("post-checkpoint commit lost on recovery: found %d matching books", len(n))
	}
}

func TestRecoveryWithTornTail(t *testing.T) {
	dir := t.TempDir()
	logPath := filepath.Join(dir, "doc.wal")
	log, err := wal.Open(logPath, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s := buildStore(t, doc, 16)
	m := NewManager(s, nil)
	ck := checkpoint(t, m)
	m = NewManager(s, log)
	for i := 0; i < 3; i++ {
		tx := m.Begin()
		shelf := mustSelect(t, tx, `//shelf[@id="s1"]`)
		if _, err := tx.Apply(wal.Op{Kind: wal.OpAppendChild, Target: tx.NodeOf(shelf), Frag: frag(t, `<book>T</book>`)}); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	log.Close()

	// Corrupt the tail of the active segment: append garbage simulating
	// a crash mid-append.
	segs, err := filepath.Glob(logPath + ".*")
	if err != nil || len(segs) == 0 {
		t.Fatalf("no wal segments: %v", err)
	}
	f, err := os.OpenFile(segs[len(segs)-1], os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte{42, 1, 0, 0, 99})
	f.Close()

	log2, err := wal.Open(logPath, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer log2.Close()
	if log2.LastLSN() != 3 {
		t.Fatalf("LastLSN = %d, want 3 (torn tail dropped)", log2.LastLSN())
	}
	recovered, err := ck.restore(log2)
	if err != nil {
		t.Fatal(err)
	}
	if n, _ := xpath.MustParse(`//book[text()="T"]`).Select(recovered); len(n) != 3 {
		t.Fatalf("recovered inserts = %d, want 3", len(n))
	}
}

func TestCheckpointTruncatesRecoveryWork(t *testing.T) {
	dir := t.TempDir()
	log, err := wal.Open(filepath.Join(dir, "doc.wal"), wal.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer log.Close()
	s := buildStore(t, doc, 16)
	m := NewManager(s, log)
	for i := 0; i < 4; i++ {
		tx := m.Begin()
		shelf := mustSelect(t, tx, `//shelf[@id="s1"]`)
		tx.Apply(wal.Op{Kind: wal.OpAppendChild, Target: tx.NodeOf(shelf), Frag: frag(t, `<book>K</book>`)})
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	ck := checkpoint(t, m)
	// Recovery from this checkpoint replays nothing (LSNs all covered).
	recovered, err := ck.restore(log)
	if err != nil {
		t.Fatal(err)
	}
	if n, _ := xpath.MustParse(`//book[text()="K"]`).Select(recovered); len(n) != 4 {
		t.Fatalf("checkpointed books = %d, want 4", len(n))
	}
}

func TestXUpdateThroughTransaction(t *testing.T) {
	s := buildStore(t, doc, 16)
	m := NewManager(s, nil)
	tx := m.Begin()
	// The Tx implements xupdate.Target; drive it with value + structure ops.
	shelf := mustSelect(t, tx, `//shelf[@id="s1"]`)
	if _, err := tx.Apply(wal.Op{Kind: wal.OpSetAttr, Target: tx.NodeOf(shelf), Name: "label", Value: "fiction"}); err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Apply(wal.Op{Kind: wal.OpRename, Target: tx.NodeOf(shelf), Name: "case"}); err != nil {
		t.Fatal(err)
	}
	book := mustSelect(t, tx, `//case/book[1]`)
	if _, err := tx.Apply(wal.Op{Kind: wal.OpDelete, Target: tx.NodeOf(book)}); err != nil {
		t.Fatal(err)
	}
	txt := mustSelect(t, tx, `//case/book[1]/text()`)
	if _, err := tx.Apply(wal.Op{Kind: wal.OpSetValue, Target: tx.NodeOf(txt), Value: "B2"}); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	s = current(m)
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if n, _ := xpath.MustParse(`//case[@label="fiction"]/book[text()="B2"]`).Select(s); len(n) != 1 {
		t.Fatalf("combined tx ops not applied: %v", n)
	}
}

func TestInsertBeforeAndChildAtThroughTx(t *testing.T) {
	s := buildStore(t, doc, 16)
	m := NewManager(s, nil)
	tx := m.Begin()
	book := mustSelect(t, tx, `//book[text()="B"]`)
	if _, err := tx.Apply(wal.Op{Kind: wal.OpInsertBefore, Target: tx.NodeOf(book), Frag: frag(t, `<book>A2</book>`)}); err != nil {
		t.Fatal(err)
	}
	bookC := mustSelect(t, tx, `//book[text()="C"]`)
	if _, err := tx.Apply(wal.Op{Kind: wal.OpInsertAfter, Target: tx.NodeOf(bookC), Frag: frag(t, `<book>D</book>`)}); err != nil {
		t.Fatal(err)
	}
	shelf := mustSelect(t, tx, `//shelf[@id="s1"]`)
	if _, err := tx.Apply(wal.Op{Kind: wal.OpInsertChildAt, Target: tx.NodeOf(shelf), Frag: frag(t, `<book>A0</book>`)}); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	s = current(m)
	got, _ := serialize.String(s, s.Root(), serialize.Options{})
	want := `<lib><shelf id="s1"><book>A0</book><book>A</book><book>A2</book><book>B</book></shelf><shelf id="s2"><book>C</book><book>D</book></shelf></lib>`
	if got != want {
		t.Fatalf("document = %s\nwant %s", got, want)
	}
}

// TestCommitRacingCheckpointSurvivesPrune is the regression test for the
// lost-commit window in the legacy checkpoint path: the old flow wrote
// the image under the lock but truncated the *whole* WAL afterwards, so
// a commit landing between the image capture and the truncate vanished
// from both the image and the log. The fixed contract: Checkpoint
// returns the LSN its image covers, captured atomically with the image,
// and the caller prunes only records <= that LSN.
func TestCommitRacingCheckpointSurvivesPrune(t *testing.T) {
	dir := t.TempDir()
	log, err := wal.Open(filepath.Join(dir, "doc.wal"), wal.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer log.Close()
	s := buildStore(t, doc, 16)
	m := NewManager(s, log)

	commitBook := func(name string) {
		t.Helper()
		txn := m.Begin()
		shelf := mustSelect(t, txn, `//shelf[@id="s1"]`)
		if _, err := txn.Apply(wal.Op{Kind: wal.OpAppendChild, Target: txn.NodeOf(shelf), Frag: frag(t, `<book>`+name+`</book>`)}); err != nil {
			t.Fatal(err)
		}
		if err := txn.Commit(); err != nil {
			t.Fatal(err)
		}
	}

	commitBook("covered")
	ck := checkpoint(t, m)
	// The racing commit: lands after the image was captured, before the
	// caller gets around to discarding the covered WAL records.
	commitBook("racing")
	if err := log.Prune(ck.lsn); err != nil {
		t.Fatal(err)
	}

	recovered, err := ck.restore(log)
	if err != nil {
		t.Fatal(err)
	}
	if n, _ := xpath.MustParse(`//book[text()="racing"]`).Select(recovered); len(n) != 1 {
		t.Fatalf("commit racing the checkpoint was dropped by recovery (found %d)", len(n))
	}
	if n, _ := xpath.MustParse(`//book[text()="covered"]`).Select(recovered); len(n) != 1 {
		t.Fatalf("checkpoint-covered commit lost (found %d)", len(n))
	}
}

// TestPinCheckpointCapturesConsistentPair: the (snapshot, LSN) pair from
// PinCheckpoint must agree — every commit with LSN <= the pinned LSN is
// in the image, every later one is not — even with commits racing the
// pin. Recovery from the pinned image plus the log must equal the final
// base state.
func TestPinCheckpointCapturesConsistentPair(t *testing.T) {
	dir := t.TempDir()
	log, err := wal.Open(filepath.Join(dir, "doc.wal"), wal.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer log.Close()
	s := buildStore(t, doc, 16)
	m := NewManager(s, log)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			txn := m.Begin()
			shelf := mustSelect(t, txn, `//shelf[@id="s2"]`)
			if _, err := txn.Apply(wal.Op{Kind: wal.OpAppendChild, Target: txn.NodeOf(shelf), Frag: frag(t, fmt.Sprintf(`<book>P%d</book>`, i))}); err != nil {
				t.Error(err)
				return
			}
			if err := txn.Commit(); err != nil {
				t.Error(err)
				return
			}
		}
	}()

	// Pin and stream several checkpoints while the committer runs.
	for i := 0; i < 5; i++ {
		recovered, err := checkpoint(t, m).restore(log)
		if err != nil {
			t.Fatal(err)
		}
		// The recovered store must hold exactly the books of every commit
		// the log has seen up to its replay point; comparing against the
		// live base is racy, so check internal consistency instead: all
		// LSNs <= lsn are in the image (no book duplicated after replay),
		// and invariants hold.
		if err := recovered.CheckInvariants(); err != nil {
			t.Fatalf("pin %d: %v", i, err)
		}
		books, _ := xpath.MustParse(`//book`).Select(recovered)
		seen := map[string]int{}
		for _, n := range books {
			seen[xpath.StringValue(recovered, n)]++
		}
		for name, count := range seen {
			if count > 1 {
				t.Fatalf("pin %d: book %q appears %d times — image and LSN disagree", i, name, count)
			}
		}
	}
	close(stop)
	wg.Wait()
}

// TestCommitGroupDurability: with a sync'd log, every commit must be
// durable when Commit returns, and concurrent committers must not issue
// more fsyncs than commits (the group-commit door may batch them).
func TestCommitGroupDurability(t *testing.T) {
	dir := t.TempDir()
	log, err := wal.Open(filepath.Join(dir, "doc.wal"), wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer log.Close()
	s := buildStore(t, doc, 16)
	m := NewManager(s, log)

	const committers = 8
	var wg sync.WaitGroup
	for c := 0; c < committers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < 4; i++ {
				for {
					txn := m.Begin()
					shelf := mustSelect(t, txn, `//shelf[@id="s2"]`)
					if _, err := txn.Apply(wal.Op{Kind: wal.OpAppendChild, Target: txn.NodeOf(shelf), Frag: frag(t, fmt.Sprintf(`<book>G%d-%d</book>`, c, i))}); err != nil {
						txn.Abort()
						continue // page conflict with a sibling committer: retry
					}
					if err := txn.Commit(); err != nil {
						if errors.Is(err, ErrConflict) {
							continue
						}
						t.Error(err)
						return
					}
					break
				}
			}
		}(c)
	}
	wg.Wait()
	if log.DurableLSN() != log.LastLSN() {
		t.Fatalf("durable %d != appended %d after all commits returned", log.DurableLSN(), log.LastLSN())
	}
	if log.SyncCount() > committers*4 {
		t.Fatalf("%d fsyncs for %d commits", log.SyncCount(), committers*4)
	}
}
