package tx

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"mxq/internal/serialize"
	"mxq/internal/wal"
	"mxq/internal/xenc"
)

func viewXML(t *testing.T, v xenc.DocView) string {
	t.Helper()
	var b strings.Builder
	if err := serialize.Document(&b, v, serialize.Options{}); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// readCurrent runs fn against a lease on the current committed version,
// the way every reader outside this package does.
func readCurrent(m *Manager, fn func(v xenc.DocView) error) error {
	rv := m.AcquireRead()
	defer rv.Close()
	return fn(rv.View())
}

// setBook updates the text of the idx-th book to val in one committed
// transaction.
func setBook(t *testing.T, m *Manager, idx int, val string) {
	t.Helper()
	txn := m.Begin()
	books := findBooks(t, txn)
	text := xenc.SkipFree(txn, books[idx]+1) // the text child is the next used tuple
	if _, err := txn.Apply(wal.Op{Kind: wal.OpSetValue, Target: txn.NodeOf(text), Value: val}); err != nil {
		t.Fatal(err)
	}
	if err := txn.Commit(); err != nil {
		t.Fatal(err)
	}
}

func findBooks(t *testing.T, v xenc.DocView) []xenc.Pre {
	t.Helper()
	nameID, ok := v.Names().Lookup("book")
	if !ok {
		t.Fatal("no book name interned")
	}
	var out []xenc.Pre
	for p := xenc.SkipFree(v, 0); p < v.Len(); p = xenc.SkipFree(v, p+1) {
		if v.Kind(p) == xenc.KindElem && v.Name(p) == nameID {
			out = append(out, p)
		}
	}
	return out
}

// TestAcquireReadCachesPerVersion: repeated reads at an unchanged
// version must reuse the identical snapshot (no per-query O(pages)
// cost), and the first read after a commit must get a fresh one.
func TestAcquireReadCachesPerVersion(t *testing.T) {
	s := buildStore(t, doc, 16)
	m := NewManager(s, nil)

	rv1 := m.AcquireRead()
	rv2 := m.AcquireRead()
	if rv1.View() != rv2.View() {
		t.Fatal("two reads at the same version got different snapshots")
	}
	if rv1.Version() != 0 || rv2.Version() != 0 {
		t.Fatalf("fresh document read at version %d/%d, want 0", rv1.Version(), rv2.Version())
	}
	rv1.Close()
	rv2.Close()

	setBook(t, m, 0, "A2")
	rv3 := m.AcquireRead()
	if rv3.Version() != 1 {
		t.Fatalf("post-commit read at version %d, want 1", rv3.Version())
	}
	if rv3.View() == rv1.View() {
		t.Fatal("post-commit read reused the pre-commit snapshot")
	}
	rv4 := m.AcquireRead()
	if rv4.View() != rv3.View() {
		t.Fatal("second post-commit read did not reuse the cached snapshot")
	}
	rv3.Close()
	rv4.Close()
}

// TestAcquireReadIsolation: an open read view must keep observing its
// version while commits land, and Close must be idempotent.
func TestAcquireReadIsolation(t *testing.T) {
	s := buildStore(t, doc, 16)
	m := NewManager(s, nil)

	rv := m.AcquireRead()
	before := viewXML(t, rv.View())

	for i := 0; i < 5; i++ {
		setBook(t, m, i%3, fmt.Sprintf("v%d", i))
	}
	if got := viewXML(t, rv.View()); got != before {
		t.Fatalf("open read view drifted across commits:\nbefore: %s\nafter:  %s", before, got)
	}
	rv.Close()
	rv.Close() // idempotent

	latest := m.AcquireRead()
	defer latest.Close()
	if got := viewXML(t, latest.View()); !strings.Contains(got, "v4") {
		t.Fatalf("latest view missing last committed value: %s", got)
	}
}

// TestAcquireReadConcurrentWithCommits hammers the read path from many
// goroutines while a writer commits, checking that every acquired view
// is internally consistent (its XML matches what its version's commit
// produced) and versions are monotonic per reader. Run with -race.
func TestAcquireReadConcurrentWithCommits(t *testing.T) {
	s := buildStore(t, doc, 16)
	m := NewManager(s, nil)

	const commits = 40
	// byVersion[v] = the document XML after commit v (filled by the
	// writer before the commit becomes visible).
	byVersion := make([]string, commits+1)
	rv0 := m.AcquireRead()
	byVersion[0] = viewXML(t, rv0.View())
	rv0.Close()
	var mu sync.Mutex

	done := make(chan struct{})
	var wg sync.WaitGroup
	errs := make(chan error, 16)

	for r := 0; r < 8; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			last := uint64(0)
			for {
				select {
				case <-done:
					return
				default:
				}
				rv := m.AcquireRead()
				v := rv.Version()
				if v < last {
					errs <- fmt.Errorf("version went backwards: %d after %d", v, last)
					rv.Close()
					return
				}
				last = v
				var b strings.Builder
				if err := serialize.Document(&b, rv.View(), serialize.Options{}); err != nil {
					errs <- err
					rv.Close()
					return
				}
				mu.Lock()
				want := byVersion[v]
				mu.Unlock()
				if got := b.String(); got != want {
					errs <- fmt.Errorf("version %d: view does not match committed state\ngot:  %s\nwant: %s", v, got, want)
					rv.Close()
					return
				}
				rv.Close()
			}
		}()
	}

	for i := 1; i <= commits; i++ {
		txn := m.Begin()
		books := findBooks(t, txn)
		if _, err := txn.Apply(wal.Op{Kind: wal.OpSetValue, Target: txn.NodeOf(books[i%3] + 1), Value: fmt.Sprintf("c%d", i)}); err != nil {
			t.Fatal(err)
		}
		mu.Lock()
		byVersion[i] = viewXML(t, txn)
		mu.Unlock()
		if err := txn.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	close(done)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if got := m.Version(); got != commits {
		t.Fatalf("version %d after %d commits", got, commits)
	}
}

// TestWriteOnlyPhaseUnpinsCache: after readers go quiet, a commit must
// drop the cache's reference to the superseded snapshot on its own —
// a long write-only phase may neither pin the old version in memory
// nor pay copy-on-write for it on every commit while no reader will
// ever lease it again.
func TestWriteOnlyPhaseUnpinsCache(t *testing.T) {
	s := buildStore(t, doc, 16)
	m := NewManager(s, nil)
	total := s.DirtyPages()

	rv := m.AcquireRead()
	rv.Close()
	if got := s.DirtyPages(); got != 0 {
		t.Fatalf("base owns %d pages while the cache slot holds the snapshot", got)
	}
	// One commit, no reader afterwards: the superseded snapshot's last
	// reference (the cache slot's) must be dropped by the commit itself.
	setBook(t, m, 0, "only-writers-now")
	if got := s.DirtyPages(); got != total {
		t.Fatalf("base owns %d/%d pages after a commit in a write-only phase", got, total)
	}
	// An open lease must survive the invalidation, though.
	rv2 := m.AcquireRead()
	setBook(t, m, 1, "still-leased")
	before := viewXML(t, rv2.View())
	setBook(t, m, 2, "still-leased-2")
	if got := viewXML(t, rv2.View()); got != before {
		t.Fatal("open lease drifted after commit-side cache invalidation")
	}
	rv2.Close()
}

// TestReadSnapLifecycle drives the share → copy-on-commit → release
// cycle several times and checks the base store's chunk ownership at
// each stage: a live cached snapshot shares every chunk (base owns 0),
// a commit privately materializes only the pages it writes, and
// superseded snapshots hand their references back when their last
// reader closes instead of taxing the base forever.
func TestReadSnapLifecycle(t *testing.T) {
	s := buildStore(t, doc, 16)
	m := NewManager(s, nil)

	if got := s.DirtyPages(); got == 0 {
		t.Fatal("fresh store owns no pages")
	}
	var prev *ReadView
	var prevXML string
	for i := 0; i < 5; i++ {
		rv := m.AcquireRead()
		if got := s.DirtyPages(); got != 0 {
			t.Fatalf("cycle %d: base owns %d pages while the cached snapshot is live, want 0", i, got)
		}
		if prev != nil {
			// The superseded snapshot's view must stay intact until closed.
			if got := viewXML(t, prev.View()); got != prevXML {
				t.Fatalf("cycle %d: superseded view drifted:\nat acquire: %s\nnow:        %s", i, prevXML, got)
			}
			prev.Close()
		}
		prevXML = viewXML(t, rv.View())
		setBook(t, m, i%3, fmt.Sprintf("w%d", i))
		// The commit copied the pages it wrote; everything else is still
		// shared with rv's snapshot, so ownership stays O(pages dirtied).
		owned := s.DirtyPages()
		if owned == 0 {
			t.Fatalf("cycle %d: commit materialized no private pages", i)
		}
		if owned > 4 {
			t.Fatalf("cycle %d: commit materialized %d pages for a 1-node update", i, owned)
		}
		prev = rv
	}
	prev.Close()
}
