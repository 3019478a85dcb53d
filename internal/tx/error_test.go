package tx

import (
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"mxq/internal/core"
	"mxq/internal/vfs"
	"mxq/internal/wal"
	"mxq/internal/xenc"
)

func TestOpsAfterDoneFail(t *testing.T) {
	s := buildStore(t, doc, 16)
	m := NewManager(s, nil)
	txn := m.Begin()
	txn.Abort()
	if _, err := txn.Apply(wal.Op{Kind: wal.OpAppendChild, Target: 0, Frag: frag(t, `<x/>`)}); !errors.Is(err, ErrDone) {
		t.Fatalf("append after abort = %v", err)
	}
	if _, err := txn.Apply(wal.Op{Kind: wal.OpDelete, Target: 1}); !errors.Is(err, ErrDone) {
		t.Fatalf("delete after abort = %v", err)
	}
	if _, err := txn.Apply(wal.Op{Kind: wal.OpSetValue, Target: 1, Value: "x"}); !errors.Is(err, ErrDone) {
		t.Fatalf("setvalue after abort = %v", err)
	}
	if _, err := txn.Apply(wal.Op{Kind: wal.OpInsertBefore, Target: 1, Frag: frag(t, `<x/>`)}); !errors.Is(err, ErrDone) {
		t.Fatalf("insert after abort = %v", err)
	}
	txn.Abort() // double abort is a no-op
}

func TestStoreErrorsPropagateWithoutPoisoning(t *testing.T) {
	s := buildStore(t, doc, 16)
	m := NewManager(s, nil)
	txn := m.Begin()
	// Illegal op: delete the root.
	if _, err := txn.Apply(wal.Op{Kind: wal.OpDelete, Target: txn.NodeOf(txn.Root())}); err == nil {
		t.Fatal("root delete accepted")
	}
	// The tx is still usable (store-level errors are not conflicts).
	shelf := mustSelect(t, txn, `//shelf[@id="s1"]`)
	if _, err := txn.Apply(wal.Op{Kind: wal.OpAppendChild, Target: txn.NodeOf(shelf), Frag: frag(t, `<book>X</book>`)}); err != nil {
		t.Fatalf("tx unusable after store error: %v", err)
	}
	if err := txn.Commit(); err != nil {
		t.Fatal(err)
	}
}

func TestRecoverWithoutLog(t *testing.T) {
	s := buildStore(t, doc, 16)
	m := NewManager(s, nil)
	got, err := checkpoint(t, m).restore(nil)
	if err != nil {
		t.Fatal(err)
	}
	if got.LiveNodes() != s.LiveNodes() {
		t.Fatalf("nodes = %d, want %d", got.LiveNodes(), s.LiveNodes())
	}
}

func TestApplyOpsErrors(t *testing.T) {
	s := buildStore(t, doc, 16)
	// Unknown kind.
	if err := ApplyOps(s, []wal.Op{{Kind: 99, Target: 0}}); err == nil {
		t.Fatal("unknown op kind accepted")
	}
	// Missing target.
	if err := ApplyOps(s, []wal.Op{{Kind: wal.OpDelete, Target: 9999}}); err == nil {
		t.Fatal("missing target accepted")
	}
	// Insert-before without an anchor.
	if err := ApplyOps(s, []wal.Op{{Kind: wal.OpInsertBefore, Target: xenc.NoNode}}); err == nil {
		t.Fatal("anchorless insert accepted")
	}
}

func TestApplyOpsIDMapping(t *testing.T) {
	s := buildStore(t, doc, 16)
	// An op list that renames a node created earlier in the same list,
	// using a transaction-local id that must be remapped.
	fr := frag(t, `<book>New</book>`)
	shelfID := s.NodeOf(mustSelectStore(t, s, `//shelf[@id="s1"]`))
	ops := []wal.Op{
		{Kind: wal.OpAppendChild, Target: shelfID, Frag: fr, NewIDs: []xenc.NodeID{7777, 7778}},
		{Kind: wal.OpRename, Target: 7777, Name: "tome"},
	}
	if err := ApplyOps(s, ops); err != nil {
		t.Fatal(err)
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	found := false
	for p := xenc.SkipFree(s, 0); p < s.Len(); p = xenc.SkipFree(s, p+1) {
		if s.Kind(p) == xenc.KindElem && s.Names().Name(s.Name(p)) == "tome" {
			found = true
		}
	}
	if !found {
		t.Fatal("remapped rename did not reach the new node")
	}
}

func mustSelectStore(t *testing.T, s *core.Store, q string) xenc.Pre {
	t.Helper()
	return mustSelect(t, s, q)
}

func TestLockReleaseOnAbort(t *testing.T) {
	s := buildStore(t, doc, 16)
	m := NewManager(s, nil)
	t1 := m.Begin()
	shelf := mustSelect(t, t1, `//shelf[@id="s1"]`)
	if _, err := t1.Apply(wal.Op{Kind: wal.OpAppendChild, Target: t1.NodeOf(shelf), Frag: frag(t, `<x/>`)}); err != nil {
		t.Fatal(err)
	}
	t1.Abort()
	// The pages must be free again.
	t2 := m.Begin()
	shelf2 := mustSelect(t, t2, `//shelf[@id="s1"]`)
	if _, err := t2.Apply(wal.Op{Kind: wal.OpAppendChild, Target: t2.NodeOf(shelf2), Frag: frag(t, `<y/>`)}); err != nil {
		t.Fatalf("locks leaked after abort: %v", err)
	}
	if err := t2.Commit(); err != nil {
		t.Fatal(err)
	}
}

// panickyFS is the operating system's file system whose writes panic
// once armed.
type panickyFS struct {
	vfs.FS
	armed *bool
}

func (fs panickyFS) OpenFile(name string, flag int, perm os.FileMode) (vfs.File, error) {
	f, err := fs.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return panickyFile{f, fs.armed}, nil
}

type panickyFile struct {
	vfs.File
	armed *bool
}

func (f panickyFile) Write(p []byte) (int, error) {
	if *f.armed {
		panic("write exploded")
	}
	return f.File.Write(p)
}

// TestPanicInsideCommitIsFatal: a panic while the commit holds the
// publishers' mutex (here in the WAL append) may leave a record logged
// that no version holds, so it ends the process even under a recover,
// instead of serving on without it. The test runs the commit in a child process.
func TestPanicInsideCommitIsFatal(t *testing.T) {
	if os.Getenv("MXQ_TX_PANIC_CHILD") == "1" {
		armed := false
		log, err := wal.Open(filepath.Join(t.TempDir(), "doc.wal"), wal.Options{NoSync: true, FS: panickyFS{vfs.OS, &armed}})
		if err != nil {
			t.Fatal(err)
		}
		m := NewManager(buildStore(t, doc, 16), log)
		txn := m.Begin()
		if _, err := txn.Apply(wal.Op{Kind: wal.OpAppendChild, Target: txn.NodeOf(mustSelect(t, txn, `//shelf[@id="s1"]`)), Frag: frag(t, `<x/>`)}); err != nil {
			t.Fatal(err)
		}
		armed = true
		func() {
			defer func() { recover() }()
			txn.Commit()
		}()
		t.Fatal("the process outlived a panic inside the commit")
	}
	cmd := exec.Command(os.Args[0], "-test.run=^TestPanicInsideCommitIsFatal$")
	cmd.Env = append(os.Environ(), "MXQ_TX_PANIC_CHILD=1")
	out, err := cmd.CombinedOutput()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 2 || !strings.Contains(string(out), "write exploded [inside a commit]") {
		t.Fatalf("child = %v, output:\n%s\nwant exit status 2 and the panic reported", err, out)
	}
}

func TestVersionCounts(t *testing.T) {
	s := buildStore(t, doc, 16)
	m := NewManager(s, nil)
	if m.Version() != 0 {
		t.Fatal("fresh manager has nonzero version")
	}
	txn := m.Begin()
	shelf := mustSelect(t, txn, `//shelf[@id="s1"]`)
	txn.Apply(wal.Op{Kind: wal.OpAppendChild, Target: txn.NodeOf(shelf), Frag: frag(t, `<x/>`)})
	txn.Commit()
	if m.Version() != 1 {
		t.Fatalf("version = %d", m.Version())
	}
}
