package core

import (
	"strings"
	"testing"

	"mxq/internal/serialize"
	"mxq/internal/shred"
	"mxq/internal/xenc"
)

func buildDictStore(t *testing.T, xml string) *Store {
	t.Helper()
	tr, err := shred.Parse(strings.NewReader(xml), shred.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s, err := Build(tr, Options{PageSize: 16, FillFactor: 0.75})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestCompactDictionariesDropsAbortLeaks plays the aborted-transaction
// scenario at the store level: a snapshot interns names into the shared
// pool, then is released without ever reaching the base. Compaction must
// drop exactly the leaked names while the document's observable state —
// including a pre-existing snapshot — stays intact.
func TestCompactDictionariesDropsAbortLeaks(t *testing.T) {
	s := buildDictStore(t, `<lib><shelf id="s1"><book genre="sf">A</book></shelf></lib>`)
	before := snapshotXML(t, s)
	namesBefore := s.Names().Len()

	// Simulated aborted transaction: rename, new elements, new attribute
	// names — all interned into the shared pool through the clone.
	clone := s.Snapshot()
	root := clone.Root()
	if _, err := clone.AppendChild(root, fragTree(t, `<leaked-elem leaked-attr="leaked-val">x</leaked-elem>`)); err != nil {
		t.Fatal(err)
	}
	if err := clone.Rename(root, "leaked-rename"); err != nil {
		t.Fatal(err)
	}
	clone.Release()

	namesLeaked := s.Names().Len()
	if namesLeaked <= namesBefore {
		t.Fatalf("abort did not leak: names %d->%d", namesBefore, namesLeaked)
	}

	// A snapshot taken before compaction must keep reading the old pools.
	held := s.Snapshot()
	heldXML := snapshotXML(t, held)

	if nd := s.CompactDictionaries(); nd != namesLeaked-namesBefore {
		t.Fatalf("dropped %d names, want %d", nd, namesLeaked-namesBefore)
	}
	if names := s.Names().Len(); names != namesBefore {
		t.Fatalf("post-compaction name pool size %d, want %d", names, namesBefore)
	}
	if got := snapshotXML(t, s); got != before {
		t.Fatalf("document changed across compaction:\nbefore: %s\nafter:  %s", before, got)
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatalf("invariants after compaction: %v", err)
	}
	// Attribute lookups must still resolve through the rewritten table.
	bookName, ok := s.Names().Lookup("book")
	if !ok {
		t.Fatal("book name dropped by compaction")
	}
	var bookPre xenc.Pre = xenc.NoPre
	for p := xenc.SkipFree(s, 0); p < s.Len(); p = xenc.SkipFree(s, p+1) {
		if s.Kind(p) == xenc.KindElem && s.Name(p) == bookName {
			bookPre = p
			break
		}
	}
	if bookPre == xenc.NoPre {
		t.Fatal("book element not found after compaction")
	}
	genre, ok := s.Names().Lookup("genre")
	if !ok {
		t.Fatal("genre attribute name dropped")
	}
	if v, ok := s.AttrValue(bookPre, genre); !ok || v != "sf" {
		t.Fatalf("genre attribute = %q, %v after compaction, want \"sf\", true", v, ok)
	}

	// The held snapshot is undisturbed and still self-consistent.
	if got := snapshotXML(t, held); got != heldXML {
		t.Fatalf("held snapshot changed across compaction:\nbefore: %s\nafter:  %s", heldXML, got)
	}
	held.Release()

	// Idempotence: with no new leaks a second pass drops nothing.
	if nd := s.CompactDictionaries(); nd != 0 {
		t.Fatalf("second compaction dropped %d names, want 0", nd)
	}
}

// TestCompactDictionariesRemapsAcrossPages forces an id shift that
// touches every named tuple: the first interned name leaks, so every
// kept id moves down and every page holding elements must be rewritten.
func TestCompactDictionariesRemapsAcrossPages(t *testing.T) {
	// Intern a victim name first by building, renaming away, and only
	// then filling the document — easier: build a doc whose root name
	// becomes garbage after a rename on the base itself.
	s := buildDictStore(t, `<zzz-first><a x="1">t</a><b x="2">u</b><c>v</c></zzz-first>`)
	if err := s.Rename(s.Root(), "renamed-root"); err != nil {
		t.Fatal(err)
	}
	before := snapshotXML(t, s)
	if s.CompactDictionaries() == 0 {
		t.Fatal("rename left no leaked name to drop")
	}
	if got := snapshotXML(t, s); got != before {
		t.Fatalf("document changed across remap:\nbefore: %s\nafter:  %s", before, got)
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatalf("invariants after remap: %v", err)
	}
	// All attribute values must still resolve.
	x, ok := s.Names().Lookup("x")
	if !ok {
		t.Fatal("attribute name x dropped")
	}
	found := 0
	for p := xenc.SkipFree(s, 0); p < s.Len(); p = xenc.SkipFree(s, p+1) {
		if v, ok := s.AttrValue(p, x); ok {
			found++
			if v != "1" && v != "2" {
				t.Fatalf("attribute value %q after remap", v)
			}
		}
	}
	if found != 2 {
		t.Fatalf("found %d x attributes after remap, want 2", found)
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
