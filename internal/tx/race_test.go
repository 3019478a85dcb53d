package tx

import (
	"fmt"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"mxq/internal/staircase"
	"mxq/internal/wal"
	"mxq/internal/xenc"
)

// invariantChecker is implemented by *core.Store; leased views
// are stores underneath, so tests can run the O(N) structural check on
// them.
type invariantChecker interface {
	CheckInvariants() error
}

// raceDoc builds a library spanning many logical pages: shelves shelves
// with booksPerShelf books each, plus a counter element tracking the
// total book count.
func raceDoc(shelves, booksPerShelf int) string {
	var b strings.Builder
	b.WriteString("<lib><counter>")
	b.WriteString(strconv.Itoa(shelves * booksPerShelf))
	b.WriteString("</counter>")
	for s := 0; s < shelves; s++ {
		fmt.Fprintf(&b, `<shelf id="s%d">`, s)
		for i := 0; i < booksPerShelf; i++ {
			b.WriteString("<book>x</book>")
		}
		b.WriteString("</shelf>")
	}
	b.WriteString("</lib>")
	return b.String()
}

// TestConcurrentSnapshotReadersDuringCommit runs reader goroutines that
// traverse axes via staircase over lock-free copy-on-write snapshots
// while a writer commits page-COW updates. Every snapshot must be
// internally consistent — the book count observed by a descendant scan
// must match the counter value written in the same transaction, and the
// full pre/size/level invariant check must pass — i.e. no reader ever
// observes a torn page. Run with -race.
func TestConcurrentSnapshotReadersDuringCommit(t *testing.T) {
	const (
		shelves       = 12
		booksPerShelf = 3
		commits       = 60
		readers       = 3
	)
	if testing.Short() {
		t.Skip("concurrency soak test; run without -short")
	}
	s := buildStore(t, raceDoc(shelves, booksPerShelf), 64)
	m := NewManager(s, nil)

	bookName, ok := s.Names().Lookup("book")
	if !ok {
		t.Fatal("book name not interned")
	}
	counterName, ok := s.Names().Lookup("counter")
	if !ok {
		t.Fatal("counter name not interned")
	}

	// The counter's text node, addressed by immutable NodeID so the
	// writer can find it whatever the current page layout is.
	counterElem := findElem(t, s, "counter")
	counterTextID := s.NodeOf(counterElem + 1)

	done := make(chan struct{})
	var snapshotsChecked atomic.Int64
	var wg sync.WaitGroup

	// checkSnapshot asserts one snapshot is consistent.
	checkSnapshot := func(v xenc.DocView) error {
		root := v.Root()
		all := staircase.EvalAxis(v, []xenc.Pre{root}, staircase.AxisDescendantOrSelf, staircase.AnyNode())
		if len(all) != v.LiveNodes() {
			return fmt.Errorf("descendant-or-self found %d nodes, LiveNodes says %d", len(all), v.LiveNodes())
		}
		if int(v.Size(root)) != v.LiveNodes()-1 {
			return fmt.Errorf("root size %d, want %d live descendants", v.Size(root), v.LiveNodes()-1)
		}
		books := staircase.EvalAxis(v, []xenc.Pre{root}, staircase.AxisDescendant, staircase.Element(bookName))
		counters := staircase.EvalAxis(v, []xenc.Pre{root}, staircase.AxisChild, staircase.Element(counterName))
		if len(counters) != 1 {
			return fmt.Errorf("found %d counter elements, want 1", len(counters))
		}
		texts := staircase.EvalAxis(v, counters, staircase.AxisChild, staircase.KindTest(xenc.KindText))
		if len(texts) != 1 {
			return fmt.Errorf("counter has %d text children, want 1", len(texts))
		}
		want, err := strconv.Atoi(v.Value(texts[0]))
		if err != nil {
			return fmt.Errorf("counter value %q: %v", v.Value(texts[0]), err)
		}
		if len(books) != want {
			return fmt.Errorf("torn snapshot: %d books visible, counter says %d", len(books), want)
		}
		if c, isStore := v.(invariantChecker); isStore {
			if err := c.CheckInvariants(); err != nil {
				return fmt.Errorf("invariants: %v", err)
			}
		}
		return nil
	}

	// Lock-free snapshot readers.
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				snap := m.AcquireRead()
				err := checkSnapshot(snap.View())
				snap.Close()
				if err != nil {
					t.Error(err)
					return
				}
				snapshotsChecked.Add(1)
			}
		}()
	}

	// One reader holds a single snapshot across the whole run: it must
	// stay frozen at its creation state no matter how many commits land.
	wg.Add(1)
	go func() {
		defer wg.Done()
		snap := m.AcquireRead()
		defer snap.Close()
		frozen := snap.View()
		base := frozen.LiveNodes()
		for {
			select {
			case <-done:
				return
			default:
			}
			if err := checkSnapshot(frozen); err != nil {
				t.Errorf("held snapshot: %v", err)
				return
			}
			if frozen.LiveNodes() != base {
				t.Errorf("held snapshot changed: %d live nodes, started with %d", frozen.LiveNodes(), base)
				return
			}
		}
	}()

	// A reader of the base itself, under the shared lock, keeps the two
	// hooks that never build a snapshot honest too.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			if err := m.CheckInvariants(); err != nil {
				t.Errorf("base invariants: %v", err)
				return
			}
			if st := m.Stats(); st.LiveNodes < shelves*booksPerShelf {
				t.Errorf("Stats saw %d live nodes, fewer than the %d books loaded", st.LiveNodes, shelves*booksPerShelf)
				return
			}
		}
	}()

	// The writer: each transaction appends one book to a shelf and
	// updates the counter — atomically, or not at all. Every third
	// transaction aborts instead, which must leave no trace. The writer
	// keeps committing (up to a generous cap) until the readers have
	// demonstrably overlapped with it, so the test cannot pass vacuously
	// when the writer outruns reader startup.
	count := shelves * booksPerShelf
	for i := 0; i < commits || (snapshotsChecked.Load() < 20 && i < 100*commits); i++ {
		txn := m.Begin()
		shelf := findElem(t, txn, fmt.Sprintf("shelf[@id=%q]", fmt.Sprintf("s%d", i%shelves)))
		if _, err := txn.Apply(wal.Op{Kind: wal.OpAppendChild, Target: txn.NodeOf(shelf), Frag: frag(t, `<book>y</book>`)}); err != nil {
			t.Fatalf("commit %d: append: %v", i, err)
		}
		if i%3 == 2 {
			txn.Abort()
			continue
		}
		p := txn.PreOf(counterTextID)
		if p == xenc.NoPre {
			t.Fatalf("commit %d: counter text vanished", i)
		}
		count++
		if _, err := txn.Apply(wal.Op{Kind: wal.OpSetValue, Target: txn.NodeOf(p), Value: strconv.Itoa(count)}); err != nil {
			t.Fatalf("commit %d: set counter: %v", i, err)
		}
		if err := txn.Commit(); err != nil {
			t.Fatalf("commit %d: %v", i, err)
		}
	}
	close(done)
	wg.Wait()

	if n := snapshotsChecked.Load(); n == 0 {
		t.Fatal("no snapshots were checked concurrently with commits")
	}
	// Final state: base must reflect exactly the committed books.
	final := m.AcquireRead()
	defer final.Close()
	if err := checkSnapshot(final.View()); err != nil {
		t.Fatalf("final state: %v", err)
	}
}
