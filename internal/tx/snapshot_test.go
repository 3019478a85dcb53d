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

// TestSnapshotDoubleClose: Close must be idempotent and close only its
// own handle, not a sibling at the same version.
func TestSnapshotDoubleClose(t *testing.T) {
	s := buildStore(t, doc, 16)
	m := NewManager(s, nil)

	a := m.AcquireRead()
	b := m.AcquireRead()
	if a.View() != b.View() {
		t.Fatal("two handles at the same version read different versions")
	}
	a.Close()
	a.Close() // idempotent
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
}

// TestSnapshotCloseRacesCommit closes handles from one goroutine while
// commits land in another (run under -race): no version a handle read
// is written, the handed-in store included.
func TestSnapshotCloseRacesCommit(t *testing.T) {
	s := buildStore(t, doc, 16)
	m := NewManager(s, nil)
	built := viewXML(t, s)

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

	if got := viewXML(t, s); got != built {
		t.Fatalf("version 0 was written:\nbuilt: %s\nnow:   %s", built, got)
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestSnapshotReadRacesClose: a read through WithView racing Close on
// the same handle must either observe the live view to completion or
// fail with ErrSnapshotClosed. Run under -race.
func TestSnapshotReadRacesClose(t *testing.T) {
	m := NewManager(buildStore(t, doc, 16), nil)

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
}

// TestSnapshotOutlivesManager: a handle must stay readable after the
// manager that issued it is gone — the view holds its version, not the
// manager.
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
// after a commit must all read the one version the commit installed —
// the store a checkpoint pins — with nothing built per racer. Run under
// -race.
func TestFirstReadersAfterCommitShareOneBuild(t *testing.T) {
	m := NewManager(buildStore(t, "<lib>"+strings.Repeat("<book>t</book>", 4000)+"</lib>", 8), nil)
	const racers = 8
	for round := 0; round < 20; round++ {
		setBook(t, m, round, fmt.Sprintf("r%d", round))
		want, _ := m.PinCheckpoint()
		views := make([]*ReadView, racers)
		start := make(chan struct{})
		var done sync.WaitGroup
		for i := range views {
			done.Add(1)
			go func() {
				defer done.Done()
				<-start
				views[i] = m.AcquireRead()
			}()
		}
		close(start)
		done.Wait()
		for i, rv := range views {
			if rv.Version() != m.Version() || rv.View() != xenc.DocView(want) {
				t.Fatalf("round %d: racer %d read version %d, want %d, the one installed", round, i, rv.Version(), m.Version())
			}
			rv.Close()
		}
	}
}
