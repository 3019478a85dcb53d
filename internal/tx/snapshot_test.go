package tx

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mxq/internal/serialize"
	"mxq/internal/xenc"
)

// TestClosedSnapshotRestoresInPlaceWrites is the lifecycle regression
// test: a long-lived snapshot that outlives several commits pins the
// chunks of its version, and closing it must return every one of them
// to refcount 1 so the base store resumes in-place writes.
func TestClosedSnapshotRestoresInPlaceWrites(t *testing.T) {
	// A document spanning several logical pages, so the commits below
	// dirty a strict subset of the chunks the snapshot pins.
	s := buildStore(t, raceDoc(8, 4), 16)
	m := NewManager(s, nil)
	total := s.DirtyPages() // fresh store: every chunk exclusively owned
	if total < 3 {
		t.Fatalf("test document too small: %d page chunks", total)
	}

	snap := m.AcquireRead()
	if got := s.DirtyPages(); got != 0 {
		t.Fatalf("base owns %d chunks while the snapshot shares everything, want 0", got)
	}
	for i := 0; i < 5; i++ {
		setBook(t, m, i%3, fmt.Sprintf("v%d", i))
	}
	// The commits superseded the snapshot's version, so the cache slot's
	// reference is gone (write-only phase) and the handle is the last
	// sharer. The pages the commits dirtied were privately copied; the
	// rest are still shared with the handle.
	if got := s.DirtyPages(); got >= total {
		t.Fatalf("base owns %d/%d chunks while the handle is open — nothing is pinned", got, total)
	}
	snap.Close()
	if got := s.DirtyPages(); got != total {
		t.Fatalf("base owns %d/%d chunks after the last handle closed; copy-on-write tax not lifted", got, total)
	}
	// And the base really does write in place now: a 1-node commit may
	// not recopy the whole store.
	setBook(t, m, 0, "in-place")
	if got := s.DirtyPages(); got != total {
		t.Fatalf("base owns %d/%d chunks after a post-close commit", got, total)
	}
}

// TestSnapshotDoubleClose: Close must be idempotent — the second call
// must not release a reference some other sharer still owns.
func TestSnapshotDoubleClose(t *testing.T) {
	s := buildStore(t, doc, 16)
	m := NewManager(s, nil)
	total := s.DirtyPages()

	a := m.AcquireRead()
	b := m.AcquireRead()
	if a.View() != b.View() {
		t.Fatal("two handles at the same version did not share one snapshot")
	}
	a.Close()
	a.Close() // idempotent: must not steal b's (or the cache slot's) reference
	noop := func(xenc.DocView) error { return nil }
	if errA, errB := a.WithView(noop), b.WithView(noop); errA != ErrSnapshotClosed || errB != nil {
		t.Fatalf("reads after a's Close report a=%v b=%v, want ErrSnapshotClosed and nil", errA, errB)
	}
	before := viewXML(t, b.View())
	setBook(t, m, 0, "after-double-close")
	if got := viewXML(t, b.View()); got != before {
		t.Fatal("surviving handle drifted after sibling double-close")
	}
	b.Close()
	setBook(t, m, 1, "drain") // supersede + invalidate the cached version
	if got := s.DirtyPages(); got != total {
		t.Fatalf("base owns %d/%d chunks after all handles closed", got, total)
	}
}

// TestSnapshotCloseRacesCommit closes handles from one goroutine while
// commits land in another (run under -race): refcount handoff must stay
// exact, and when everything quiesces the base must own every chunk.
func TestSnapshotCloseRacesCommit(t *testing.T) {
	s := buildStore(t, doc, 16)
	m := NewManager(s, nil)
	total := s.DirtyPages()

	const commits = 60
	snaps := make(chan *ReadView, 8)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for snap := range snaps {
			snap.Close()
		}
	}()
	for i := 0; i < commits; i++ {
		snaps <- m.AcquireRead()
		setBook(t, m, i%3, fmt.Sprintf("c%d", i))
	}
	close(snaps)
	wg.Wait()

	// One more commit invalidates the cache slot of the final version;
	// with every handle closed, nothing shares the base's chunks.
	setBook(t, m, 0, "quiesce")
	if got := s.DirtyPages(); got != total {
		t.Fatalf("base owns %d/%d chunks after all racing handles closed", got, total)
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestSnapshotReadRacesClose: a read through WithView racing Close on
// the same handle must either observe the live view to completion or
// fail with ErrSnapshotClosed — never have the snapshot released out
// from under it mid-read. Run under -race.
func TestSnapshotReadRacesClose(t *testing.T) {
	s := buildStore(t, doc, 16)
	m := NewManager(s, nil)
	total := s.DirtyPages()

	for i := 0; i < 100; i++ {
		snap := m.AcquireRead()
		var wg sync.WaitGroup
		wg.Add(2)
		go func() {
			defer wg.Done()
			err := snap.WithView(func(v xenc.DocView) error {
				var b strings.Builder
				return serialize.Document(&b, v, serialize.Options{})
			})
			if err != nil && err != ErrSnapshotClosed {
				t.Errorf("iteration %d: WithView: %v", i, err)
			}
		}()
		go func() {
			defer wg.Done()
			snap.Close()
		}()
		wg.Wait()
		if err := snap.WithView(func(xenc.DocView) error { return nil }); err != ErrSnapshotClosed {
			t.Fatalf("iteration %d: read after Close: %v, want ErrSnapshotClosed", i, err)
		}
	}
	setBook(t, m, 0, "quiesce") // invalidate the cached version
	if got := s.DirtyPages(); got != total {
		t.Fatalf("base owns %d/%d chunks after racing reads and closes", got, total)
	}
}

// TestSnapshotOutlivesManager: a handle must stay readable after the
// manager that issued it is gone — the snapshot owns references to its
// chunks, not to the manager.
func TestSnapshotOutlivesManager(t *testing.T) {
	s := buildStore(t, doc, 16)
	var snap *ReadView
	var want string
	func() {
		m := NewManager(s, nil)
		snap = m.AcquireRead()
		want = viewXML(t, snap.View())
		setBook(t, m, 0, "mutated-before-manager-died")
	}()
	runtime.GC()
	runtime.GC()
	if got := viewXML(t, snap.View()); got != want {
		t.Fatalf("snapshot drifted after its manager was dropped:\nwant: %s\ngot:  %s", want, got)
	}
	snap.Close()
}

// TestRacingFirstReadersBuildInParallel proves the epoch-based slow
// path: two first-readers arriving after a commit must both be inside
// snapshot construction at the same time — neither serialized behind a
// manager-wide reader lock — and both must come away with a consistent
// view of the current version. Run under -race.
func TestRacingFirstReadersBuildInParallel(t *testing.T) {
	s := buildStore(t, doc, 16)
	m := NewManager(s, nil)
	total := s.DirtyPages()

	const racers = 3
	var entered atomic.Int32
	var maxConcurrent atomic.Int32
	proceed := make(chan struct{})
	var once sync.Once
	m.snapBuildHook = func() {
		n := entered.Add(1)
		for {
			old := maxConcurrent.Load()
			if n <= old || maxConcurrent.CompareAndSwap(old, n) {
				break
			}
		}
		if n >= 2 {
			once.Do(func() { close(proceed) })
		}
		// Block until a second builder is in flight, proving the builds
		// overlap. The timeout keeps a regression (builders serialized
		// again) from deadlocking the suite; it fails the test below
		// via maxConcurrent instead.
		select {
		case <-proceed:
		case <-time.After(10 * time.Second):
		}
		entered.Add(-1)
	}

	setBook(t, m, 0, "stale-the-cache") // every racer must take the slow path

	want := m.Version()
	views := make([]*ReadView, racers)
	var wg sync.WaitGroup
	for i := 0; i < racers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			views[i] = m.AcquireRead()
		}(i)
	}
	wg.Wait()

	if got := maxConcurrent.Load(); got < 2 {
		t.Fatalf("at most %d snapshot build(s) ran concurrently; first readers are serialized again", got)
	}
	var xml string
	for i, rv := range views {
		if rv.Version() != want {
			t.Fatalf("racer %d acquired version %d, want %d", i, rv.Version(), want)
		}
		got := viewXML(t, rv.View())
		if xml == "" {
			xml = got
		} else if got != xml {
			t.Fatalf("racer %d saw a different document at the same version", i)
		}
		rv.Close()
	}
	// Losing builds must have been released on the spot: after the cache
	// moves on, the base owns every chunk again.
	m.snapBuildHook = nil
	setBook(t, m, 1, "drain")
	if got := s.DirtyPages(); got != total {
		t.Fatalf("base owns %d/%d chunks after the race; a losing build leaked its references", got, total)
	}
}
