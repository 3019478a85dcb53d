package shred

import (
	"bytes"
	"encoding/xml"
	"fmt"
	"io"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"unicode/utf8"

	"mxq/internal/xenc"
	"mxq/internal/xmark"
)

// oracleParse is the shredder as it ran on encoding/xml until the
// Tokenizer replaced it, kept as the differential oracle. It differs
// from that body in the two boundary-whitespace fixes only: a run of
// adjacent character data and CDATA sections is stripped (and emitted)
// as a whole, not token by token, and white space means XML's S, not
// Unicode's.
func oracleParse(r io.Reader, opts Options, document bool) (*Tree, error) {
	dec := xml.NewDecoder(r)
	t := &Tree{}
	var stack []int // indices of open elements
	var depth int16
	var run []byte
	flushText := func() {
		s := string(run)
		run = run[:0]
		if s == "" || !opts.PreserveWhitespace && strings.Trim(s, " \t\r\n") == "" {
			return
		}
		t.Nodes = append(t.Nodes, Node{Kind: xenc.KindText, Value: s, Level: depth})
	}
	for {
		tok, err := dec.Token()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("shred: %w", err)
		}
		switch tk := tok.(type) {
		case xml.StartElement:
			flushText()
			var attrs []Attr
			if len(tk.Attr) > 0 {
				attrs = make([]Attr, 0, len(tk.Attr))
				for _, a := range tk.Attr {
					attrs = append(attrs, Attr{Name: oracleAttrName(a.Name), Value: a.Value})
				}
			}
			t.Nodes = append(t.Nodes, Node{
				Kind:  xenc.KindElem,
				Name:  oracleElemName(tk.Name),
				Level: depth,
				Attrs: attrs,
			})
			stack = append(stack, len(t.Nodes)-1)
			depth++
		case xml.EndElement:
			flushText()
			top := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			depth--
			t.Nodes[top].Size = int32(len(t.Nodes) - 1 - top)
		case xml.CharData:
			run = append(run, tk...)
		case xml.Comment:
			if document && depth == 0 && len(stack) == 0 {
				continue
			}
			flushText()
			t.Nodes = append(t.Nodes, Node{Kind: xenc.KindComment, Value: string(tk), Level: depth})
		case xml.ProcInst:
			if document && depth == 0 && len(stack) == 0 {
				continue
			}
			flushText()
			t.Nodes = append(t.Nodes, Node{
				Kind:  xenc.KindPI,
				Name:  tk.Target,
				Value: string(tk.Inst),
				Level: depth,
			})
		case xml.Directive:
			// DOCTYPE and friends carry no tree content; skip.
		}
	}
	flushText()
	if len(stack) != 0 {
		return nil, fmt.Errorf("shred: %d unclosed elements", len(stack))
	}
	return t, nil
}

func oracleElemName(n xml.Name) string {
	if n.Space == "" {
		return n.Local
	}
	return "{" + n.Space + "}" + n.Local
}

func oracleAttrName(n xml.Name) string {
	if n.Space == "" || n.Space == "xmlns" {
		return n.Local
	}
	return "{" + n.Space + "}" + n.Local
}

// oracleDocument is Parse over the oracle.
func oracleDocument(doc string, opts Options) (*Tree, error) {
	t, err := oracleParse(strings.NewReader(doc), opts, true)
	if err != nil {
		return nil, err
	}
	roots := treeRoots(t)
	if len(roots) != 1 || t.Nodes[roots[0]].Kind != xenc.KindElem {
		return nil, fmt.Errorf("shred: document must have exactly one root element, got %d roots", len(roots))
	}
	return t, nil
}

// sameTrees fails the test unless the tokenizer-backed shredder and the
// oracle agree on src — accepted by both with equal trees or refused by
// both — as a document and as a fragment, stripping white space or not.
func sameTrees(t testing.TB, src string) {
	t.Helper()
	for _, opts := range []Options{{}, {PreserveWhitespace: true}} {
		got, gotErr := ParseString(src, opts)
		want, wantErr := oracleDocument(src, opts)
		compareTrees(t, fmt.Sprintf("document %+v", opts), src, got, gotErr, want, wantErr)
		got, gotErr = ParseFragment(src, opts)
		want, wantErr = oracleParse(strings.NewReader(src), opts, false)
		compareTrees(t, fmt.Sprintf("fragment %+v", opts), src, got, gotErr, want, wantErr)
	}
}

func compareTrees(t testing.TB, what, src string, got *Tree, gotErr error, want *Tree, wantErr error) {
	t.Helper()
	if len(src) > 200 {
		src = src[:200] + "..."
	}
	if (gotErr == nil) != (wantErr == nil) {
		t.Fatalf("%s %q: tokenizer error %v, encoding/xml error %v", what, src, gotErr, wantErr)
	}
	if gotErr != nil {
		if !strings.HasPrefix(gotErr.Error(), "shred: ") {
			t.Fatalf("%s %q: error %q lacks the shred: prefix", what, src, gotErr)
		}
		return
	}
	if err := got.Check(); err != nil {
		t.Fatalf("%s %q: the shredder's tree fails Check: %v", what, src, err)
	}
	if len(got.Nodes) != len(want.Nodes) {
		t.Fatalf("%s %q: %d nodes, encoding/xml gives %d", what, src, len(got.Nodes), len(want.Nodes))
	}
	for i := range got.Nodes {
		if g, w := got.Nodes[i], want.Nodes[i]; !reflect.DeepEqual(g, w) {
			t.Fatalf("%s %q: node %d is %+v, encoding/xml gives %+v", what, src, i, g, w)
		}
	}
}

func xmarkDoc(t testing.TB, sf float64, seed uint64) string {
	t.Helper()
	var buf bytes.Buffer
	if _, err := xmark.NewGenerator(sf, seed).WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// differentialSeeds has one input per construct the tokenizer handles,
// accepted and refused.
var differentialSeeds = []string{
	`<a>&lt;&gt;&amp;&apos;&quot;&#65;&#x41;&#x10FFFF;</a>`,
	`<a>&#x110000;</a>`, `<a>&#xD800;</a>`, `<a>&#xFFFE;</a>`, `<a>&#0;</a>`, `<a>&#13;
</a>`,
	`<a>&nbsp;</a>`, `<a>&amp</a>`, `<a>&#;</a>`, `<a>&#x;</a>`, `<a>&#X41;</a>`, `<a>&</a>`, `<a>&;</a>`,
	`<a>&#99999999999999999999999;</a>`, `<a b="&lt;&#10;&#9;"/>`,
	`<a><![CDATA[<x>&amp;]]]]><![CDATA[>]]></a>`, `<a><![CDATA[]]></a>`, `<a><![CDATA[x]]`, `<a><![CDAT[x]]></a>`,
	"<a>x\r\ny\rz\r</a>", "<a b='x\r\ny\rz'/>", "<a><![CDATA[x\r\ny\r]]></a>", "<a\r\n b\r=\r'1'\r/>",
	`<a xmlns="u"><b/><c xmlns=""><d/></c></a>`,
	`<p:a xmlns:p="u" p:x="1" y="2"><p:b/><q:c/></p:a>`, `<u:a><u:b/></u:a>`,
	`<a xmlns:p="u"><b xmlns:p="v"><p:c/></b><p:c/></a>`, `<p:a xmlns:p=""><p:b/></p:a>`,
	`<a xml:lang="en" xmlns:xml="x"/>`, `<xmlns xmlns="u"/>`, `<a xmlns:x="xmlns" x:b="1"/>`,
	`<a:b:c/>`, `<a b:c:d="1"/>`, `<:a/>`, `<a:/>`, `<a :b="1" c:="2"/>`, `<xmlns:a xmlns:xmlns="u"/>`,
	`<p:a xmlns:p="u"></q:a>`, `<p:a xmlns:p="u" xmlns:q="u"></q:a>`,
	`<a><?pi data?><?pi?><?pi   ?><?p:q:r x?></a>`, `<?xml version="1.0" encoding="UTF-8"?><a/>`,
	`<?xml version="1.1"?><a/>`, `<?xml version="1.0" encoding="latin1"?><a/>`, `<?xml version='1.0' encoding='utf-8'?><a/>`,
	`<a><?xml version="2.0"?></a>`, `<?xml versionx="3" version="1.0"?><a/>`, `<?xml version=1.0?><a/>`,
	`<?XML version="9"?><a/>`, `<?1?><a/>`, `<??><a/>`, `<?a`, `<?a ?`,
	`<a><!-- c --><!----><!-- - --></a>`, `<a><!-- a -- b --></a>`, `<a><!-- a ---></a>`, `<a><!--->`, `<a><!-x--></a>`,
	`<!-- top --><a/><!-- tail -->`, "<a><!--\xff\x00--><?p \xff?></a>",
	`<!DOCTYPE a [<!ENTITY e "v"><!ELEMENT a (#PCDATA)><!-- > -->]><a>&e;</a>`,
	`<!DOCTYPE a [<!ENTITY e ">"><!ATTLIST a b CDATA '>'>]><a/>`, `<!DOCTYPE a SYSTEM "a.dtd"><a/>`,
	`<!DOCTYPE a [<!-- "]><a/>-->]><a/>`, `<!><a/>`, `<!"><a/>">`, `<!DOCTYPE a [<`, `<!DOCTYPE a [<!-`, `<!D <!-- x`,
	`x<!DOCTYPE a>y`, `<a>x<!DOCTYPE a>y</a>`,
	"\xef\xbb\xbf<a/>", `<a/><b/>`, `x<a/>`, `<a/>x`, ` <a/> `, `x`, ``, ` `, `<a/><!--c-->x`,
	`<a>`, `<a><b></a>`, `</a>`, `<a></a></a>`, `<a></a >`, `<a></ a>`, `<a></a x>`, `<a`, `<a `, `<a/`, `<a/ >`, `<`, `<a></`,
	`<a b="1" b="2"/>`, `<a b="1"c="2"/>`, `<a b=1/>`, `<a b/>`, `<a b=/>`, `<a b="<"/>`, `<a b="]]>"/>`, `<a b="1`,
	`<a b='"' c="'"/>`, `<a>]]></a>`, `<a>]]&gt;]]</a>`, `<a>]]<b/>></a>`, `<a>></a>`,
	"<a>\xff</a>", "<a>\xed\xa0\x80</a>", "<a>\xef\xbf\xbe</a>", "<a>\xef\xbf\xbd</a>", "<a b='\xc0\x80'/>", "<a>\xf4\x90\x80\x80</a>",
	"<a>\x01</a>", "<a>\x00</a>", "<a b='\x1f'/>", "<a>\t\n</a>", "<a>\x7f</a>", "<a \x01/>",
	"<\u00e9l\u00e9ment \u00e0=\"\u00fc\">\u4e2d\u6587<\u4e2d/></\u00e9l\u00e9ment>", "<a\u0300/>", "<\u0300a/>", "<a\u00b7/>", "<\u00d7/>", "<a\xff/>",
	"<\U00010000/>", `<1a/>`, `<-a/>`, `<.a/>`, `<a.-1/>`, `<_/>`,
	"<a>\u00a0</a>", "<a>\u2003</a>", `<a>&#160;</a>`, `<a> </a>`, `<a>x<![CDATA[ ]]>y</a>`, `<a> <![CDATA[ ]]> </a>`, `<a> <![CDATA[x]]> </a>`,
	`<a>x&#32;y</a>`, `<a>&#32;</a>`, `<a> <!--c--> <b/> </a>`,
}

func TestShredMatchesStdlibSeeds(t *testing.T) {
	for _, src := range differentialSeeds {
		sameTrees(t, src)
	}
}

// TestNameCharsMatchStdlib: a rune of the Basic Multilingual Plane
// starts a name, or continues one, for the tokenizer exactly when it
// does for encoding/xml: both follow Appendix B of XML 1.0.
func TestNameCharsMatchStdlib(t *testing.T) {
	stdlib := func(name string) bool {
		tok, err := xml.NewDecoder(strings.NewReader("<" + name + "/>")).Token()
		se, ok := tok.(xml.StartElement)
		return err == nil && ok && se.Name.Local == name
	}
	for r := rune(utf8.RuneSelf); r <= 0xFFFF; r++ {
		if utf8.ValidRune(r) {
			for _, name := range []string{string(r), "a" + string(r)} {
				if got, want := isName(name), stdlib(name); got != want {
					t.Errorf("%U: isName(%q) = %v, encoding/xml %v", r, name, got, want)
				}
			}
		}
	}
}

// TestShredMatchesStdlibXMark is the tree-equality half of the
// differential test on documents of realistic size.
func TestShredMatchesStdlibXMark(t *testing.T) {
	for _, c := range []struct {
		sf   float64
		seed uint64
	}{{0.01, 1}, {0.01, 2}, {0.01, 3}, {0.1, 1}} {
		if c.sf > 0.05 && testing.Short() {
			continue
		}
		doc := xmarkDoc(t, c.sf, c.seed)
		got, gotErr := ParseString(doc, Options{})
		want, wantErr := oracleDocument(doc, Options{})
		compareTrees(t, fmt.Sprintf("XMark SF %g seed %d", c.sf, c.seed), doc, got, gotErr, want, wantErr)
	}
}

// FuzzShredMatchesStdlib runs arbitrary bytes through the tokenizer-
// backed shredder and through the encoding/xml oracle: same inputs
// accepted, equal trees, no panic, and memory within a constant
// multiple of the input (plus the fixed cost of an empty parse).
func FuzzShredMatchesStdlib(f *testing.F) {
	for _, s := range differentialSeeds {
		f.Add(s)
	}
	f.Add(xmarkDoc(f, 0.002, 1))
	f.Fuzz(func(t *testing.T, src string) {
		sameTrees(t, src)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, _ = ParseFragment(src, Options{PreserveWhitespace: true})
		runtime.ReadMemStats(&after)
		if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(64<<10+256*len(src)); got > limit {
			t.Fatalf("parsing %d bytes allocated %d, limit %d", len(src), got, limit)
		}
	})
}
