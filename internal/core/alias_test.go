package core

import (
	"bytes"
	"fmt"
	"testing"
	"unsafe"

	"mxq/internal/shred"
	"mxq/internal/xenc"
	"mxq/internal/xmark"
)

// The tokenizer hands out substrings of the text it parses; a store must
// own every string it keeps, or one Load frame stays reachable for the
// life of the document. After Build, and after BuildXML, which keeps the
// document's substrings until its last pass, no page text, attribute
// value or name points into the document, and a page's texts are one
// allocation sliced per tuple, as a node chunk's attribute values are;
// after an insert, none points into the fragment's source either.
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
	built, err := Build(tree, Options{PageSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	streamed, err := BuildXML(doc, Options{PageSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []*Store{built, streamed} {
		for pi, p := range s.pages {
			assertOneBlock(t, fmt.Sprintf("page %d", pi), p.text)
		}
		for ci, c := range s.nodes {
			var vals []string
			for _, refs := range c.attrs {
				for _, r := range refs {
					vals = append(vals, r.val)
				}
			}
			assertOneBlock(t, fmt.Sprintf("node chunk %d", ci), vals)
		}
		assertOwnsStrings(t, s, doc)
	}
	s := streamed

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

// assertOneBlock checks that the non-empty strings follow one another in
// memory: one allocation, sliced.
func assertOneBlock(t *testing.T, what string, strs []string) {
	t.Helper()
	var end *byte // where the previous non-empty string ended
	for _, str := range strs {
		if str == "" {
			continue
		}
		if start := unsafe.StringData(str); end != nil && start != end {
			t.Fatalf("%s: %q does not follow its predecessor in memory: not one allocation", what, str)
		}
		end = (*byte)(unsafe.Add(unsafe.Pointer(unsafe.StringData(str)), len(str)))
	}
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
