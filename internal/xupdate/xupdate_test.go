package xupdate

import (
	"strings"
	"testing"

	"mxq/internal/core"
	"mxq/internal/serialize"
	"mxq/internal/shred"
	"mxq/internal/xpath"
)

const sampleDoc = `<site><people>` +
	`<person id="p0"><name>Ann</name></person>` +
	`<person id="p1"><name>Bob</name><age>30</age></person>` +
	`</people><items><item id="i0"><name>ring</name></item></items></site>`

func buildStore(t *testing.T, doc string) *core.Store {
	t.Helper()
	tr, err := shred.Parse(strings.NewReader(doc), shred.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s, err := core.Build(tr, core.Options{PageSize: 16, FillFactor: 0.75})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func run(t *testing.T, s *core.Store, mods string) Result {
	t.Helper()
	m, err := parseChecked(t, mods)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Execute(s, m)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatalf("invariants after XUpdate: %v", err)
	}
	return res
}

func serializeDoc(t *testing.T, s *core.Store) string {
	t.Helper()
	out, err := serialize.String(s, s.Root(), serialize.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func count(t *testing.T, s *core.Store, q string) int {
	t.Helper()
	ns, err := xpath.MustParse(q).Select(s)
	if err != nil {
		t.Fatal(err)
	}
	return len(ns)
}

const wrap = `<xupdate:modifications version="1.0" xmlns:xupdate="http://www.xmldb.org/xupdate">%s</xupdate:modifications>`

func mods(body string) string {
	return strings.Replace(wrap, "%s", body, 1)
}

func TestRemove(t *testing.T) {
	s := buildStore(t, sampleDoc)
	res := run(t, s, mods(`<xupdate:remove select="/site/people/person[@id='p0']"/>`))
	if res.Ops != 1 || res.Affected != 1 {
		t.Fatalf("result = %+v", res)
	}
	if got := count(t, s, `//person`); got != 1 {
		t.Fatalf("persons = %d, want 1", got)
	}
}

func TestRemoveAllSelected(t *testing.T) {
	s := buildStore(t, sampleDoc)
	res := run(t, s, mods(`<xupdate:remove select="//name"/>`))
	if res.Affected != 3 {
		t.Fatalf("affected = %d, want 3", res.Affected)
	}
	if got := count(t, s, `//name`); got != 0 {
		t.Fatalf("names left = %d", got)
	}
}

func TestRemoveAttribute(t *testing.T) {
	s := buildStore(t, sampleDoc)
	run(t, s, mods(`<xupdate:remove select="//person[@id='p1']/@id"/>`))
	if got := count(t, s, `//person[@id='p1']`); got != 0 {
		t.Fatal("attribute not removed")
	}
	if got := count(t, s, `//person`); got != 2 {
		t.Fatal("element removed instead of attribute")
	}
}

func TestInsertBeforeLiteral(t *testing.T) {
	s := buildStore(t, sampleDoc)
	run(t, s, mods(`<xupdate:insert-before select="//person[@id='p1']"><person id="px"><name>Xen</name></person></xupdate:insert-before>`))
	got := serializeDoc(t, s)
	if !strings.Contains(got, `<person id="px"><name>Xen</name></person><person id="p1">`) {
		t.Fatalf("insert-before misplaced: %s", got)
	}
}

func TestInsertAfterConstructed(t *testing.T) {
	s := buildStore(t, sampleDoc)
	run(t, s, mods(`<xupdate:insert-after select="//person[@id='p1']">`+
		`<xupdate:element name="person"><xupdate:attribute name="id">p2</xupdate:attribute>`+
		`<xupdate:element name="name"><xupdate:text>Cleo</xupdate:text></xupdate:element>`+
		`</xupdate:element></xupdate:insert-after>`))
	got := serializeDoc(t, s)
	if !strings.Contains(got, `</person><person id="p2"><name>Cleo</name></person></people>`) {
		t.Fatalf("constructed insert wrong: %s", got)
	}
}

func TestAppendDefaultLast(t *testing.T) {
	s := buildStore(t, sampleDoc)
	run(t, s, mods(`<xupdate:append select="/site/items"><item id="i1"><name>spoon</name></item></xupdate:append>`))
	if got := count(t, s, `//item`); got != 2 {
		t.Fatalf("items = %d", got)
	}
	got := serializeDoc(t, s)
	if !strings.Contains(got, `</item><item id="i1"><name>spoon</name></item></items>`) {
		t.Fatalf("append not last: %s", got)
	}
}

func TestAppendWithChildPosition(t *testing.T) {
	s := buildStore(t, sampleDoc)
	run(t, s, mods(`<xupdate:append select="/site/people" child="1"><person id="first"/></xupdate:append>`))
	got := serializeDoc(t, s)
	if !strings.Contains(got, `<people><person id="first"/><person id="p0">`) {
		t.Fatalf("child=1 append misplaced: %s", got)
	}
}

func TestAppendAttributeConstructor(t *testing.T) {
	s := buildStore(t, sampleDoc)
	run(t, s, mods(`<xupdate:append select="//item[@id='i0']"><xupdate:attribute name="featured">yes</xupdate:attribute></xupdate:append>`))
	if got := count(t, s, `//item[@featured='yes']`); got != 1 {
		t.Fatal("attribute constructor did not apply to target")
	}
}

func TestUpdateTextAndAttr(t *testing.T) {
	s := buildStore(t, sampleDoc)
	run(t, s, mods(`<xupdate:update select="//person[@id='p0']/name">Anna</xupdate:update>`))
	if got := count(t, s, `//name[text()='Anna']`); got != 1 {
		t.Fatalf("update element content failed: %s", serializeDoc(t, s))
	}
	run(t, s, mods(`<xupdate:update select="//person[@id='p1']/@id">p9</xupdate:update>`))
	if got := count(t, s, `//person[@id='p9']`); got != 1 {
		t.Fatal("update attribute failed")
	}
}

func TestRenameElementAndAttr(t *testing.T) {
	s := buildStore(t, sampleDoc)
	run(t, s, mods(`<xupdate:rename select="//item">product</xupdate:rename>`))
	if got := count(t, s, `//product`); got != 1 {
		t.Fatal("element rename failed")
	}
	run(t, s, mods(`<xupdate:rename select="//product/@id">code</xupdate:rename>`))
	if got := count(t, s, `//product[@code='i0']`); got != 1 {
		t.Fatalf("attribute rename failed: %s", serializeDoc(t, s))
	}
}

func TestMultipleCommandsInOrder(t *testing.T) {
	s := buildStore(t, sampleDoc)
	res := run(t, s, mods(
		`<xupdate:remove select="//person[@id='p0']"/>`+
			`<xupdate:append select="/site/people"><person id="p2"/></xupdate:append>`+
			`<xupdate:rename select="//person[@id='p2']">member</xupdate:rename>`))
	if res.Ops != 3 {
		t.Fatalf("ops = %d", res.Ops)
	}
	if got := count(t, s, `//member`); got != 1 {
		t.Fatal("pipeline failed")
	}
}

func TestEmptySelectionIsNoOp(t *testing.T) {
	s := buildStore(t, sampleDoc)
	res := run(t, s, mods(`<xupdate:remove select="//ghost"/>`))
	if res.Ops != 1 || res.Affected != 0 {
		t.Fatalf("result = %+v", res)
	}
}

func TestCommentAndPIConstructors(t *testing.T) {
	s := buildStore(t, sampleDoc)
	run(t, s, mods(`<xupdate:append select="/site">`+
		`<xupdate:comment>generated</xupdate:comment>`+
		`<xupdate:processing-instruction name="audit">v=1</xupdate:processing-instruction>`+
		`</xupdate:append>`))
	if got := count(t, s, `//comment()`); got != 1 {
		t.Fatal("comment constructor failed")
	}
	if got := count(t, s, `//processing-instruction("audit")`); got != 1 {
		t.Fatal("pi constructor failed")
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		`<no-mods/>`,
		mods(`<xupdate:remove/>`),
		mods(`<xupdate:insert-before select="//x"/>`),
		mods(`<xupdate:rename select="//x"/>`),
		mods(`<xupdate:append select="//x" child="0"><y/></xupdate:append>`),
		mods(`<xupdate:frobnicate select="//x"/>`),
		mods(`<xupdate:remove select="//x["/>`),
		mods(`<xupdate:insert-after select="//x"><xupdate:element/></xupdate:insert-after>`),
	}
	for _, b := range bad {
		if _, err := parseChecked(t, b); err == nil {
			t.Errorf("ParseString(%q) succeeded, want error", b)
		}
	}
}

// TestInsertRefusesAttributeConstructor: insert-before and insert-after
// place siblings, so a top-level attribute constructor has no place in
// them. Alone it used to reach the store as a nil fragment and panic;
// beside an element it was dropped without a word.
func TestInsertRefusesAttributeConstructor(t *testing.T) {
	const attr = `<xupdate:attribute name="a">v</xupdate:attribute>`
	for _, cmd := range []string{"insert-before", "insert-after"} {
		for _, content := range []string{attr, `<c/>` + attr, attr + `<c/>`} {
			body := `<xupdate:` + cmd + ` select="//person[1]">` + content + `</xupdate:` + cmd + `>`
			_, err := parseChecked(t, mods(body))
			if err == nil || !strings.Contains(err.Error(), cmd+" cannot insert an attribute constructor") {
				t.Errorf("%s: error %v, want the attribute constructor refused by name", body, err)
			}
		}
	}
	// Inside a constructed element an attribute constructor is the
	// element's own, and stays legal.
	s := buildStore(t, sampleDoc)
	run(t, s, mods(`<xupdate:insert-after select="//person[1]"><xupdate:element name="c">`+attr+`</xupdate:element></xupdate:insert-after>`))
	if got := count(t, s, `//c[@a='v']`); got != 1 {
		t.Fatalf("constructed element with an attribute: %s", serializeDoc(t, s))
	}
}

func TestExecErrors(t *testing.T) {
	s := buildStore(t, sampleDoc)
	// Structural insert targeting an attribute is an execution error.
	m, err := parseChecked(t, mods(`<xupdate:insert-before select="//person/@id"><x/></xupdate:insert-before>`))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Execute(s, m); err == nil {
		t.Fatal("insert before attribute succeeded")
	}
	// Removing the document root fails.
	m, err = parseChecked(t, mods(`<xupdate:remove select="/site"/>`))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Execute(s, m); err == nil {
		t.Fatal("removing the root succeeded")
	}
}

// TestRemoveParentAndChild: when a command selects both a node and its
// descendant, deleting the parent first must make the child a silent
// no-op (pinned ids resolve to NoPre).
func TestRemoveParentAndChild(t *testing.T) {
	s := buildStore(t, sampleDoc)
	res := run(t, s, mods(`<xupdate:remove select="//person[@id='p1'] | //person[@id='p1']/name"/>`))
	if res.Affected != 1 {
		t.Fatalf("affected = %d, want 1 (child already gone)", res.Affected)
	}
	if got := count(t, s, `//person`); got != 1 {
		t.Fatal("wrong remove count")
	}
}

func TestVariableBinding(t *testing.T) {
	s := buildStore(t, sampleDoc)
	// Bind the id of the first person, then remove by it.
	res := run(t, s, mods(
		`<xupdate:variable name="victim" select="string(/site/people/person[1]/@id)"/>`+
			`<xupdate:remove select="//person[@id = $victim]"/>`))
	if res.Ops != 2 || res.Affected != 1 {
		t.Fatalf("result = %+v", res)
	}
	if got := count(t, s, `//person[@id='p0']`); got != 0 {
		t.Fatal("variable-selected person not removed")
	}
	if got := count(t, s, `//person`); got != 1 {
		t.Fatal("wrong person removed")
	}
}

func TestVariableFromNodeSet(t *testing.T) {
	s := buildStore(t, sampleDoc)
	// A node-set binding collapses to its first string value.
	run(t, s, mods(
		`<xupdate:variable name="n" select="//person/name"/>`+
			`<xupdate:update select="//item/name">$SEE: </xupdate:update>`+
			`<xupdate:append select="//item"><copy-of-name/></xupdate:append>`))
	if got := count(t, s, `//copy-of-name`); got != 1 {
		t.Fatal("commands after variable did not run")
	}
}

func TestVariableParseErrors(t *testing.T) {
	if _, err := parseChecked(t, mods(`<xupdate:variable select="//x"/>`)); err == nil {
		t.Fatal("variable without name accepted")
	}
	if _, err := parseChecked(t, mods(`<xupdate:variable name="v"/>`)); err == nil {
		t.Fatal("variable without select accepted")
	}
}
