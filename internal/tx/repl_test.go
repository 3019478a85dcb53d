package tx

import (
	"errors"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"mxq/internal/shred"
	"mxq/internal/wal"
	"mxq/internal/wire"
	"mxq/internal/xenc"
)

func openTestWAL(t *testing.T) *wal.Log {
	t.Helper()
	l, err := wal.Open(filepath.Join(t.TempDir(), "doc.wal"), wal.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	return l
}

// commitSetValue commits one SetValue on the first book and returns the
// commit's LSN.
func commitSetValue(t *testing.T, m *Manager, val string) uint64 {
	t.Helper()
	tx := m.Begin()
	if _, err := tx.Apply(wal.Op{Kind: wal.OpSetValue, Target: tx.NodeOf(findElem(t, tx, "book") + 1), Value: val}); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	return tx.CommitLSN()
}

// TestOversizedRecordFailsCommit: a commit whose WAL record one frame
// could not carry to a follower fails, and leaves the log and the
// committed store as they were.
func TestOversizedRecordFailsCommit(t *testing.T) {
	log := openTestWAL(t)
	m := NewManager(buildStore(t, doc, 16), log)
	var before string
	readCurrent(m, func(v xenc.DocView) error { before = viewXML(t, v); return nil })
	txn := m.Begin()
	huge := &shred.Tree{Nodes: []shred.Node{{Kind: xenc.KindText, Value: strings.Repeat("x", wire.MaxFrame)}}}
	if _, err := txn.Apply(wal.Op{Kind: wal.OpAppendChild, Target: txn.NodeOf(findElem(t, txn, "shelf")), Frag: huge}); err != nil {
		t.Fatal(err)
	}
	if err := txn.Commit(); err == nil || !strings.Contains(err.Error(), "one frame carries") {
		t.Fatalf("commit of an oversized record: %v", err)
	}
	readCurrent(m, func(v xenc.DocView) error {
		if got := viewXML(t, v); got != before {
			t.Errorf("refused commit changed the store:\n%s\nwas\n%s", got, before)
		}
		return nil
	})
	if segs := log.Segments(); log.LastLSN() != 0 || segs[len(segs)-1].Size != 0 {
		t.Fatalf("refused commit left the log at LSN %d, %+v", log.LastLSN(), segs)
	}
	if lsn := commitSetValue(t, m, "v"); lsn != 1 {
		t.Fatalf("next commit got LSN %d, want 1", lsn)
	}
}

func TestCommitAdvancesApplied(t *testing.T) {
	m := NewManager(buildStore(t, doc, 16), openTestWAL(t))
	if m.AppliedLSN() != 0 {
		t.Fatalf("fresh manager applied = %d", m.AppliedLSN())
	}
	lsn := commitSetValue(t, m, "X")
	if lsn != 1 || m.AppliedLSN() != 1 {
		t.Fatalf("after commit: lsn=%d applied=%d", lsn, m.AppliedLSN())
	}
	// Already-applied LSNs never wait, and 0 is "any version".
	if err := m.WaitApplied(1, 0); err != nil {
		t.Fatal(err)
	}
	if err := m.WaitApplied(0, 0); err != nil {
		t.Fatal(err)
	}
	// A future LSN with no timeout is an immediate typed failure.
	if err := m.WaitApplied(2, 0); !errors.Is(err, ErrStale) {
		t.Fatalf("WaitApplied(future, 0) = %v", err)
	}
}

func TestWaitAppliedParksAndWakes(t *testing.T) {
	m := NewManager(buildStore(t, doc, 16), openTestWAL(t))
	done := make(chan error, 1)
	go func() { done <- m.WaitApplied(1, 5*time.Second) }()
	time.Sleep(10 * time.Millisecond) // let the waiter park
	commitSetValue(t, m, "X")
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("waiter never woke")
	}
	// And the timeout path is ErrStale, not a hang.
	if err := m.WaitApplied(99, 20*time.Millisecond); !errors.Is(err, ErrStale) {
		t.Fatalf("timeout = %v", err)
	}
}

// TestApplyReplicated drives a follower manager from a primary's WAL
// records: the stores converge, the follower's local log reproduces the
// primary's numbering, and gaps are refused.
func TestApplyReplicated(t *testing.T) {
	primaryLog := openTestWAL(t)
	primary := NewManager(buildStore(t, doc, 16), primaryLog)
	follower := NewManager(buildStore(t, doc, 16), openTestWAL(t))

	commitSetValue(t, primary, "AA")
	tx := primary.Begin()
	shelf := findElem(t, tx, "shelf")
	if _, err := tx.Apply(wal.Op{Kind: wal.OpAppendChild, Target: tx.NodeOf(shelf), Frag: frag(t, "<book>D</book>")}); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}

	var recs []*wal.Record
	if err := primaryLog.Replay(0, func(rec *wal.Record) error {
		c := *rec
		recs = append(recs, &c)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 {
		t.Fatalf("primary wrote %d records", len(recs))
	}

	// Applying out of order is refused before anything mutates.
	if err := follower.ApplyReplicated(recs[1]); err == nil {
		t.Fatal("gap accepted")
	}
	for _, rec := range recs {
		if err := follower.ApplyReplicated(rec); err != nil {
			t.Fatal(err)
		}
	}
	if follower.AppliedLSN() != 2 {
		t.Fatalf("follower applied = %d", follower.AppliedLSN())
	}

	for _, m := range []*Manager{primary, follower} {
		rv := m.AcquireRead()
		v := rv.View()
		b := findElem(t, v, "book")
		if got := v.Value(b + 1); got != "AA" {
			t.Fatalf("book value = %q", got)
		}
		count := 0
		for p := xenc.Pre(0); p < v.Len(); p++ {
			if v.Kind(p) == xenc.KindElem && v.Names().Name(v.Name(p)) == "book" {
				count++
			}
		}
		rv.Close()
		if count != 4 {
			t.Fatalf("book count = %d", count)
		}
	}
}

// TestManagerAppliedStartsAtLogTail: a recovered (or bootstrapped)
// replica must not report itself behind the records its store already
// contains.
func TestManagerAppliedStartsAtLogTail(t *testing.T) {
	l := openTestWAL(t)
	m := NewManager(buildStore(t, doc, 16), l)
	commitSetValue(t, m, "X")
	commitSetValue(t, m, "Y")
	m2 := NewManager(buildStore(t, doc, 16), l)
	if got := m2.AppliedLSN(); got != 2 {
		t.Fatalf("recovered applied = %d, want 2", got)
	}
}
