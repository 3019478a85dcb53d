package core

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"mxq/internal/serialize"
	"mxq/internal/shred"
	"mxq/internal/xenc"
)

// TestSnapshotNamesStayPrivate: a snapshot's append, rename and set-attr
// to names its base lacks go to a copy of the pool. The snapshot stays
// consistent, the base's pool and document are unchanged, and every name
// the pool already held keeps its id in the copy.
func TestSnapshotNamesStayPrivate(t *testing.T) {
	s := mustBuild(t, `<lib><shelf id="s1"><book genre="sf">A</book></shelf></lib>`, Options{PageSize: 16, FillFactor: 0.75})
	before := snapshotXML(t, s)
	base := s.Names()
	names := base.Len()

	snap := s.Snapshot()
	root := snap.Root()
	// An already-pooled name borrows: nothing is copied yet.
	if err := snap.Rename(root, "book"); err != nil {
		t.Fatal(err)
	}
	if snap.Names() != base {
		t.Fatal("a rename to a pooled name copied the pool")
	}
	if _, err := snap.AppendChild(root, fragTree(t, `<new-elem new-attr="v">x</new-elem>`)); err != nil {
		t.Fatal(err)
	}
	if err := snap.Rename(root, "new-root"); err != nil {
		t.Fatal(err)
	}
	if err := snap.SetAttr(root, "new-set", "w"); err != nil {
		t.Fatal(err)
	}
	if snap.Names() == base {
		t.Fatal("the snapshot interned new names into its base's pool")
	}
	if err := snap.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if want := `<new-root new-set="w"><shelf id="s1"><book genre="sf">A</book></shelf><new-elem new-attr="v">x</new-elem></new-root>`; snapshotXML(t, snap) != want {
		t.Fatalf("snapshot reads %s, want %s", snapshotXML(t, snap), want)
	}
	for id, n := range base.Table() {
		if got, ok := snap.Names().Lookup(n); !ok || got != int32(id) {
			t.Fatalf("pooled name %q has id %d (%v) in the copy, %d in the base", n, got, ok, id)
		}
	}
	if s.Names() != base || base.Len() != names {
		t.Fatalf("base pool holds %d names after the snapshot's writes, want %d", base.Len(), names)
	}
	if got := snapshotXML(t, s); got != before {
		t.Fatalf("base changed:\nbefore: %s\nafter:  %s", before, got)
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestSnapshotCopiesPoolWhileBaseInterns races a base that interns new
// names with a snapshot that copies the pool and interns its own (run
// under -race): each side ends with only its own new names, and the
// names both held keep their ids.
func TestSnapshotCopiesPoolWhileBaseInterns(t *testing.T) {
	s := mustBuild(t, itemsDoc(40), Options{PageSize: 16, FillFactor: 0.75})
	shared := s.Names().Table()
	snap := s.Snapshot()
	const n = 200
	var wg sync.WaitGroup
	for _, side := range []struct {
		st     *Store
		prefix string
	}{{s, "base"}, {snap, "snap"}} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range n {
				if err := side.st.SetAttr(side.st.Root(), fmt.Sprintf("%s%d", side.prefix, i), "v"); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	for _, side := range []struct {
		st          *Store
		own, others string
	}{{s, "base", "snap"}, {snap, "snap", "base"}} {
		if err := side.st.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		pool := side.st.Names()
		for id, name := range shared {
			if got, ok := pool.Lookup(name); !ok || got != int32(id) {
				t.Fatalf("%s: shared name %q has id %d (%v), want %d", side.own, name, got, ok, id)
			}
		}
		for i := range n {
			if _, ok := pool.Lookup(fmt.Sprintf("%s%d", side.own, i)); !ok {
				t.Fatalf("%s: its own name %s%d is missing", side.own, side.own, i)
			}
		}
		if side.st == snap {
			continue // the copy may hold base names interned before it
		}
		for i := range n {
			if _, ok := pool.Lookup(fmt.Sprintf("%s%d", side.others, i)); ok {
				t.Fatalf("%s: holds %s%d", side.own, side.others, i)
			}
		}
	}
	if got := len(snap.Attrs(snap.Root())); got != n {
		t.Fatalf("snapshot root has %d attributes, want %d", got, n)
	}
}

func fragTree(t *testing.T, xml string) *shred.Tree {
	t.Helper()
	tr, err := shred.ParseFragment(xml, shred.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func snapshotXML(t *testing.T, v xenc.DocView) string {
	t.Helper()
	var b strings.Builder
	if err := serialize.Document(&b, v, serialize.Options{}); err != nil {
		t.Fatal(err)
	}
	return b.String()
}
