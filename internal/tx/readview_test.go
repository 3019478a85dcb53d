package tx

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"mxq/internal/core"
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
// version must read the identical store (no per-query O(pages) cost),
// and the first read after a commit the version it installed.
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
		t.Fatal("second post-commit read did not read the same version")
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

// TestWriteOnlyPhaseUnpinsCache: once its readers are gone, a
// superseded version is garbage — nothing in the manager pins it across
// a write-only phase, and the chunks the next versions share do not pin
// its directories either.
func TestWriteOnlyPhaseUnpinsCache(t *testing.T) {
	m := NewManager(buildStore(t, doc, 16), nil)
	collected := make(chan struct{})
	func() {
		rv := m.AcquireRead()
		defer rv.Close()
		runtime.SetFinalizer(rv.View().(*core.Store), func(*core.Store) { close(collected) })
	}()
	setBook(t, m, 0, "only-writers-now")
	setBook(t, m, 1, "still-only-writers")
	deadline := time.After(10 * time.Second)
	for {
		runtime.GC()
		select {
		case <-collected:
			return
		case <-deadline:
			t.Fatal("version 0 was never collected after its reader closed")
		case <-time.After(10 * time.Millisecond):
		}
	}
}
