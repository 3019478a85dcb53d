package serialize

import (
	"strings"
	"testing"

	"mxq/internal/core"
	"mxq/internal/rostore"
	"mxq/internal/shred"
	"mxq/internal/xenc"
)

func roView(t *testing.T, doc string) xenc.DocView {
	t.Helper()
	tr, err := shred.Parse(strings.NewReader(doc), shred.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s, err := rostore.Build(tr)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestRoundTripCompact(t *testing.T) {
	docs := []string{
		`<a><b><c><d/><e/></c></b><f><g/><h><i/><j/></h></f></a>`,
		`<r id="1"><p>hello</p><q x="y">txt<s/></q></r>`,
		`<r><!--note--><?pi body?><p>t</p></r>`,
		`<r>a&amp;b &lt;tag&gt;</r>`,
		`<r a="it&quot;s &lt;ok&gt;"/>`,
		// A parser turns a literal CR into LF; only &#13; survives.
		`<r>a&#13;b</r>`,
		`<r x="a&#13;b"/>`,
	}
	for _, doc := range docs {
		v := roView(t, doc)
		got, err := String(v, v.Root(), Options{})
		if err != nil {
			t.Fatal(err)
		}
		// Re-shred the output; the trees must be identical.
		tr2, err := shred.Parse(strings.NewReader(got), shred.Options{})
		if err != nil {
			t.Fatalf("reparse of %q: %v", got, err)
		}
		v2, err := rostore.Build(tr2)
		if err != nil {
			t.Fatal(err)
		}
		got2, err := String(v2, v2.Root(), Options{})
		if err != nil {
			t.Fatal(err)
		}
		if got != got2 {
			t.Errorf("round trip unstable:\n1: %s\n2: %s", got, got2)
		}
	}
}

func TestExactOutput(t *testing.T) {
	v := roView(t, `<r id="1"><p>hello</p><empty/></r>`)
	got, err := String(v, v.Root(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := `<r id="1"><p>hello</p><empty/></r>`
	if got != want {
		t.Errorf("serialized = %q, want %q", got, want)
	}
}

func TestSubtreeSerialization(t *testing.T) {
	v := roView(t, `<r><p a="1">x</p><q/></r>`)
	got, err := String(v, 1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got != `<p a="1">x</p>` {
		t.Errorf("subtree = %q", got)
	}
}

func TestSerializePagedStoreWithHoles(t *testing.T) {
	tr, err := shred.Parse(strings.NewReader(`<r><a>1</a><b>2</b><c>3</c></r>`), shred.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s, err := core.Build(tr, core.Options{PageSize: 8, FillFactor: 0.6})
	if err != nil {
		t.Fatal(err)
	}
	// Delete b to punch a hole.
	var b xenc.Pre = -1
	for p := xenc.SkipFree(s, 0); p < s.Len(); p = xenc.SkipFree(s, p+1) {
		if s.Kind(p) == xenc.KindElem && s.Names().Name(s.Name(p)) == "b" {
			b = p
		}
	}
	if err := s.Delete(b); err != nil {
		t.Fatal(err)
	}
	got, err := String(s, s.Root(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got != `<r><a>1</a><c>3</c></r>` {
		t.Errorf("serialized after delete = %q", got)
	}
}

func TestIndented(t *testing.T) {
	v := roView(t, `<r><p><q/></p></r>`)
	got, err := String(v, v.Root(), Options{Indent: "  "})
	if err != nil {
		t.Fatal(err)
	}
	want := "<r>\n  <p>\n    <q/>\n  </p>\n</r>\n"
	if got != want {
		t.Errorf("indented = %q, want %q", got, want)
	}
}

func TestTextEscaping(t *testing.T) {
	v := roView(t, `<r>a&amp;b</r>`)
	got, err := String(v, v.Root(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got != `<r>a&amp;b</r>` {
		t.Errorf("escaped = %q", got)
	}
}

func TestErrorOnUnusedTuple(t *testing.T) {
	tr, _ := shred.Parse(strings.NewReader(`<r/>`), shred.Options{})
	s, _ := core.Build(tr, core.Options{PageSize: 8, FillFactor: 0.5})
	if _, err := String(s, 5, Options{}); err == nil {
		t.Fatal("serializing an unused tuple succeeded")
	}
}
