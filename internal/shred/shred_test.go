package shred

import (
	"runtime"
	"strings"
	"testing"

	"mxq/internal/xenc"
)

// paperDoc is the example document of Figure 2.
const paperDoc = `<a><b><c><d></d><e></e></c></b><f><g></g><h><i></i><j></j></h></f></a>`

func TestParsePaperExample(t *testing.T) {
	tr, err := Parse(strings.NewReader(paperDoc), Options{})
	if err != nil {
		t.Fatal(err)
	}
	names := []string{"a", "b", "c", "d", "e", "f", "g", "h", "i", "j"}
	sizes := []int32{9, 3, 2, 0, 0, 4, 0, 2, 0, 0}
	levels := []int16{0, 1, 2, 3, 3, 1, 2, 2, 3, 3}
	if len(tr.Nodes) != len(names) {
		t.Fatalf("node count = %d, want %d", len(tr.Nodes), len(names))
	}
	for i, n := range tr.Nodes {
		if n.Name != names[i] || n.Size != sizes[i] || n.Level != levels[i] {
			t.Errorf("node %d = {%s size=%d level=%d}, want {%s size=%d level=%d}",
				i, n.Name, n.Size, n.Level, names[i], sizes[i], levels[i])
		}
	}
}

func TestParseTextAndAttrs(t *testing.T) {
	tr, err := Parse(strings.NewReader(`<r id="1" x="y"><p>hi</p><!--c--><?pi data?></r>`), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Nodes) != 5 {
		t.Fatalf("node count = %d, want 5", len(tr.Nodes))
	}
	r := tr.Nodes[0]
	if len(r.Attrs) != 2 || r.Attrs[0] != (Attr{"id", "1"}) || r.Attrs[1] != (Attr{"x", "y"}) {
		t.Fatalf("attrs = %v", r.Attrs)
	}
	if tr.Nodes[2].Kind != xenc.KindText || tr.Nodes[2].Value != "hi" {
		t.Fatalf("text node = %+v", tr.Nodes[2])
	}
	if tr.Nodes[3].Kind != xenc.KindComment || tr.Nodes[3].Value != "c" {
		t.Fatalf("comment node = %+v", tr.Nodes[3])
	}
	if tr.Nodes[4].Kind != xenc.KindPI || tr.Nodes[4].Name != "pi" || tr.Nodes[4].Value != "data" {
		t.Fatalf("pi node = %+v", tr.Nodes[4])
	}
	if r.Size != 4 {
		t.Fatalf("root size = %d, want 4", r.Size)
	}
}

func TestWhitespaceStripping(t *testing.T) {
	doc := "<r>\n  <a>x</a>\n  <b/>\n</r>"
	tr, err := Parse(strings.NewReader(doc), Options{})
	if err != nil {
		t.Fatal(err)
	}
	// r, a, text(x), b — the indentation text must be gone.
	if len(tr.Nodes) != 4 {
		t.Fatalf("node count = %d, want 4: %+v", len(tr.Nodes), tr.Nodes)
	}
	tr, err = Parse(strings.NewReader(doc), Options{PreserveWhitespace: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Nodes) != 7 {
		t.Fatalf("preserved node count = %d, want 7", len(tr.Nodes))
	}
}

func TestEntityCoalescing(t *testing.T) {
	tr, err := Parse(strings.NewReader(`<r>a&amp;b</r>`), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Nodes) != 2 {
		t.Fatalf("node count = %d, want 2 (text must coalesce)", len(tr.Nodes))
	}
	if tr.Nodes[1].Value != "a&b" {
		t.Fatalf("text = %q, want \"a&b\"", tr.Nodes[1].Value)
	}
}

func TestParseRejectsMalformed(t *testing.T) {
	for _, doc := range []string{
		`<a><b></a></b>`,
		`<a>`,
		`plain text`,
		`<a/><b/>`, // two roots
	} {
		if _, err := Parse(strings.NewReader(doc), Options{}); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", doc)
		}
	}
}

// treeRoots returns the indices of the level-0 nodes.
func treeRoots(t *Tree) []int {
	var out []int
	for i := 0; i < len(t.Nodes); i += int(t.Nodes[i].Size) + 1 {
		out = append(out, i)
	}
	return out
}

func TestParseFragmentForest(t *testing.T) {
	tr, err := ParseFragment(`<k><l/><m/></k><n/>`, Options{})
	if err != nil {
		t.Fatal(err)
	}
	roots := treeRoots(tr)
	if len(roots) != 2 || roots[0] != 0 || roots[1] != 3 {
		t.Fatalf("roots = %v, want [0 3]", roots)
	}
	if tr.Nodes[0].Size != 2 {
		t.Fatalf("k size = %d, want 2", tr.Nodes[0].Size)
	}
}

func TestBuilder(t *testing.T) {
	tr := NewBuilder().
		Start("r", Attr{"id", "1"}).
		Elem("name", "iron kettle").
		Start("sub").Text("t").Comment("c").End().
		PI("tgt", "body").
		End().
		Tree()
	if len(tr.Nodes) != 7 {
		t.Fatalf("node count = %d, want 7", len(tr.Nodes))
	}
	if tr.Nodes[0].Size != 6 {
		t.Fatalf("root size = %d, want 6", tr.Nodes[0].Size)
	}
	if tr.Nodes[3].Name != "sub" || tr.Nodes[3].Size != 2 || tr.Nodes[3].Level != 1 {
		t.Fatalf("sub = %+v", tr.Nodes[3])
	}
}

func TestBuilderPanicsOnOpenElement(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic with open element")
		}
	}()
	NewBuilder().Start("a").Tree()
}

// Size/level invariants on any parse result: sizes partition the tree,
// levels follow a stack discipline.
func TestParseInvariants(t *testing.T) {
	docs := []string{
		paperDoc,
		`<r><a><b><c><d>deep</d></c></b></a><e/><f><g/><h/></f></r>`,
		`<x>t1<y>t2</y>t3<!--c--><z><w a="b"/></z></x>`,
	}
	for _, doc := range docs {
		tr, err := Parse(strings.NewReader(doc), Options{})
		if err != nil {
			t.Fatal(err)
		}
		checkTreeInvariants(t, tr)
	}
}

// TestTreeCheck: Check accepts what the shredder and the Builder make,
// an empty tree included, and refuses each shape they cannot make.
func TestTreeCheck(t *testing.T) {
	good := []*Tree{
		{},
		NewBuilder().Start("r", Attr{"id", "1"}).Elem("a", "t").Comment("c").PI("p", "i").End().Text("tail").Tree(),
	}
	for _, src := range []string{paperDoc, `<x>t1<y>t2</y>t3<!--c--><z><w a="b"/></z></x>`} {
		tr, err := ParseFragment(src, Options{PreserveWhitespace: true})
		if err != nil {
			t.Fatal(err)
		}
		good = append(good, tr)
	}
	for i, tr := range good {
		if err := tr.Check(); err != nil {
			t.Errorf("good tree %d refused: %v", i, err)
		}
	}
	elem := func(level int16, size int32) Node {
		return Node{Kind: xenc.KindElem, Name: "e", Level: level, Size: size}
	}
	bad := map[string][]Node{
		"level rises by five":  {elem(0, 1), elem(5, 0)},
		"first level not 0":    {elem(1, 0)},
		"negative level":       {elem(0, 0), elem(-1, 0)},
		"size past the tree":   {elem(0, 7)},
		"size short of it":     {elem(0, 1), elem(1, 1), elem(2, 0)},
		"size of a leaf":       {elem(0, 0), elem(0, 2)},
		"attribute kind":       {{Kind: xenc.KindAttr, Name: "a"}},
		"unknown kind":         {{Kind: 9}},
		"text with attributes": {{Kind: xenc.KindText, Attrs: []Attr{{"a", "v"}}}},
		"text with a child":    {{Kind: xenc.KindText, Size: 1}, {Kind: xenc.KindText, Level: 1}},
	}
	for name, nodes := range bad {
		if err := (&Tree{Nodes: nodes}).Check(); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func checkTreeInvariants(t *testing.T, tr *Tree) {
	t.Helper()
	for i, n := range tr.Nodes {
		end := i + int(n.Size)
		if end >= len(tr.Nodes)+1 {
			t.Fatalf("node %d size %d overruns tree", i, n.Size)
		}
		// Every node in (i, i+size] must be deeper than n; the node after
		// the region (if any) must not be.
		for j := i + 1; j <= end; j++ {
			if tr.Nodes[j].Level <= n.Level {
				t.Fatalf("node %d (level %d) inside region of %d (level %d)", j, tr.Nodes[j].Level, i, n.Level)
			}
		}
		if end+1 < len(tr.Nodes) && tr.Nodes[end+1].Level > n.Level {
			t.Fatalf("region of node %d too small", i)
		}
	}
}

// Nesting past xenc.MaxLevel once wrapped the int16 depth count and
// panicked core.Build; it is a parse error, for documents and fragments.
func TestParseRefusesDeepNesting(t *testing.T) {
	deep := strings.Repeat("<a>", 40000) + strings.Repeat("</a>", 40000)
	if _, err := Parse(strings.NewReader(deep), Options{}); err == nil || !strings.HasPrefix(err.Error(), "shred: ") {
		t.Fatalf("Parse of 40000 nested elements: error %v, want a shred: error", err)
	}
	if _, err := ParseFragment(deep, Options{}); err == nil {
		t.Fatal("ParseFragment of 40000 nested elements succeeded")
	}
	ok := strings.Repeat("<a>", xenc.MaxLevel) + "x" + strings.Repeat("</a>", xenc.MaxLevel)
	tr, err := ParseString(ok, Options{})
	if err != nil {
		t.Fatalf("%d nested elements: %v", xenc.MaxLevel, err)
	}
	if last := tr.Nodes[len(tr.Nodes)-1]; last.Level != xenc.MaxLevel || last.Value != "x" {
		t.Fatalf("innermost node = %+v, want the text at level %d", last, xenc.MaxLevel)
	}
}

// Boundary white space is stripped per run of character data, and it is
// XML's S (space, tab, CR, LF), not Unicode's White_Space.
func TestBoundaryWhitespace(t *testing.T) {
	for _, c := range []struct {
		doc  string
		text []string // the text nodes under <a>
	}{
		{"<a>&#160;</a>", []string{"\u00a0"}},
		{"<a>&#8195;</a>", []string{"\u2003"}},
		{"<a>\u2003</a>", []string{"\u2003"}},
		{"<a>x<![CDATA[ ]]>y</a>", []string{"x y"}},
		{"<a> <![CDATA[x]]> </a>", []string{" x "}},
		{"<a> </a>", nil},
		{"<a> \t\r\n<![CDATA[ ]]></a>", nil},
		{"<a>x&#32;y</a>", []string{"x y"}},
		{"<a> <b/> x <b/> </a>", []string{" x "}},
	} {
		tr, err := ParseString(c.doc, Options{})
		if err != nil {
			t.Fatalf("%q: %v", c.doc, err)
		}
		var got []string
		for _, n := range tr.Nodes {
			if n.Kind == xenc.KindText {
				got = append(got, n.Value)
			}
		}
		if strings.Join(got, "|") != strings.Join(c.text, "|") || len(got) != len(c.text) {
			t.Errorf("%q: text nodes %q, want %q", c.doc, got, c.text)
		}
	}
}

// A run of n adjacent CDATA sections is joined in one growing buffer:
// allocated bytes stay linear in n (they were quadratic while each
// section was appended to the previous node's string).
func TestAdjacentCDATAAllocatesLinearly(t *testing.T) {
	const n = 50000
	doc := "<a>" + strings.Repeat("<![CDATA[xy]]>", n) + "</a>"
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	tr, err := ParseString(doc, Options{})
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Nodes) != 2 || len(tr.Nodes[1].Value) != 2*n {
		t.Fatalf("%d nodes, want a and one text of %d bytes", len(tr.Nodes), 2*n)
	}
	if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(16*len(doc)); got > limit {
		t.Fatalf("allocated %d bytes for a %d-byte document, limit %d", got, len(doc), limit)
	}
}
