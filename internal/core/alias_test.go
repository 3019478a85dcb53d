package core

import (
	"bytes"
	"testing"
	"unsafe"

	"mxq/internal/shred"
	"mxq/internal/xenc"
	"mxq/internal/xmark"
)

// The tokenizer hands out substrings of the text it parses; a store must
// own every string it keeps, or one Load frame stays reachable for the
// life of the document. After Build no page text, attribute value or
// name points into the document, and a page's texts are one allocation
// sliced per tuple; after an insert, none points into the fragment's
// source either.
func TestStoreDoesNotAliasParsedText(t *testing.T) {
	var buf bytes.Buffer
	if _, err := xmark.NewGenerator(0.005, 3).WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	doc := buf.String()
	tree, err := shred.ParseString(doc, shred.Options{})
	if err != nil {
		t.Fatal(err)
	}
	aliasing := 0
	for _, n := range tree.Nodes {
		if within(n.Value, doc) {
			aliasing++
		}
	}
	if aliasing == 0 {
		t.Fatal("no tree value is a substring of the document: nothing is being tested")
	}
	s, err := Build(tree, Options{PageSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	for pi, p := range s.pages {
		var end *byte // where the previous non-empty text of the page ended
		for _, text := range p.text {
			if text == "" {
				continue
			}
			if start := unsafe.StringData(text); end != nil && start != end {
				t.Fatalf("page %d: text %q does not follow its predecessor in memory: not one allocation", pi, text)
			}
			end = (*byte)(unsafe.Add(unsafe.Pointer(unsafe.StringData(text)), len(text)))
		}
	}
	assertOwnsStrings(t, s, doc)

	frag := `<note lang="a fresh attribute value">a fresh text value</note>`
	fragTree, err := shred.ParseFragment(frag, shred.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.AppendChild(s.Root(), fragTree); err != nil {
		t.Fatal(err)
	}
	assertOwnsStrings(t, s, doc)
	assertOwnsStrings(t, s, frag)
}

func assertOwnsStrings(t *testing.T, s *Store, src string) {
	t.Helper()
	for pi, p := range s.pages {
		for _, text := range p.text {
			if within(text, src) {
				t.Fatalf("page %d: text %q points into the parsed text", pi, text)
			}
		}
	}
	for id := xenc.NodeID(0); id < s.nodeLen; id++ {
		for _, r := range s.attrRefs(id) {
			if within(r.val, src) {
				t.Fatalf("node %d: attribute value %q points into the parsed text", id, r.val)
			}
		}
	}
	for _, name := range s.qn.NamesList() {
		if within(name, src) {
			t.Fatalf("name %q points into the parsed text", name)
		}
	}
}

// within reports whether s's bytes lie inside src's.
func within(s, src string) bool {
	if s == "" {
		return false
	}
	at := uintptr(unsafe.Pointer(unsafe.StringData(s)))
	lo := uintptr(unsafe.Pointer(unsafe.StringData(src)))
	return at >= lo && at < lo+uintptr(len(src))
}
