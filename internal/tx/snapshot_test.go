package tx

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"

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

// TestFirstReadersAfterCommitShareOneBuild: first readers that race in
// after a commit must all lease the new version through one shared
// snapshot, and the manager must build that snapshot once, not once per
// racer — the race allocates less than one and a half builds. Run under
// -race.
func TestFirstReadersAfterCommitShareOneBuild(t *testing.T) {
	s := buildStore(t, "<lib>"+strings.Repeat("<book>t</book>", 4000)+"</lib>", 8)
	m := NewManager(s, nil)
	total := s.DirtyPages()
	allocated := func(fn func()) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		fn()
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	var first *ReadView
	oneBuild := allocated(func() { first = m.AcquireRead() }) // the cache slot is empty
	first.Close()

	const racers = 8
	for round := 0; round < 20; round++ {
		setBook(t, m, round, fmt.Sprintf("r%d", round)) // every racer finds the cache stale
		want := m.Version()
		views := make([]*ReadView, racers)
		start := make(chan struct{})
		var ready, done sync.WaitGroup
		for i := range views {
			ready.Add(1)
			done.Add(1)
			go func() {
				defer done.Done()
				ready.Done()
				<-start
				views[i] = m.AcquireRead()
			}()
		}
		ready.Wait()
		raced := allocated(func() {
			close(start)
			done.Wait()
		})
		if 2*raced >= 3*oneBuild {
			t.Fatalf("round %d: %d racing first readers allocated %d B, one build allocates %d B", round, racers, raced, oneBuild)
		}
		for i, rv := range views {
			if rv.Version() != want || rv.View() != views[0].View() {
				t.Fatalf("round %d: racer %d leased version %d, want %d through one shared snapshot", round, i, rv.Version(), want)
			}
		}
		for _, rv := range views {
			rv.Close()
		}
	}
	// With every lease closed, the commit below drops the cache slot's
	// reference too, and the base owns every chunk again.
	setBook(t, m, 0, "drain")
	if got := s.DirtyPages(); got != total {
		t.Fatalf("base owns %d/%d chunks after the races; a build leaked its references", got, total)
	}
}
