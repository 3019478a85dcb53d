package xupdate

import (
	"testing"
)

const fuzzWrap = `<xupdate:modifications version="1.0" xmlns:xupdate="http://www.xmldb.org/xupdate">`

// FuzzXUpdateParse feeds arbitrary byte strings to the XUpdate
// modification-list parser: it must return a parse error or a valid
// *Mods, never panic — whatever the tokenizer and the embedded XPath
// select compiler are handed — and decide and parse as the encoding/xml
// walk it replaced did (parseChecked). A program that parses is then
// executed against a fresh store of sampleDoc: it may fail with an
// error, must not panic, and when it succeeds the store must pass
// CheckInvariants. The seed corpus covers every operation the subset
// implements, namespace variants, fragment content, and malformed
// shapes.
func FuzzXUpdateParse(f *testing.F) {
	seeds := []string{
		// Every operation, well-formed.
		fuzzWrap + `<xupdate:remove select="/site/people/person[@id='p0']"/></xupdate:modifications>`,
		fuzzWrap + `<xupdate:remove select="//person[@id='p1']/@id"/></xupdate:modifications>`,
		fuzzWrap + `<xupdate:insert-before select="//person[@id='p1']"><person id="px"><name>Xen</name></person></xupdate:insert-before></xupdate:modifications>`,
		fuzzWrap + `<xupdate:insert-after select="//name"><x/></xupdate:insert-after></xupdate:modifications>`,
		fuzzWrap + `<xupdate:append select="/site" child="2"><y>text</y></xupdate:append></xupdate:modifications>`,
		fuzzWrap + `<xupdate:append select="/a"><xupdate:element name="e"><xupdate:attribute name="k">v</xupdate:attribute>body</xupdate:element></xupdate:append></xupdate:modifications>`,
		fuzzWrap + `<xupdate:update select="//name">New Name</xupdate:update></xupdate:modifications>`,
		fuzzWrap + `<xupdate:update select="//person/@id">p9</xupdate:update></xupdate:modifications>`,
		fuzzWrap + `<xupdate:rename select="//person">human</xupdate:rename></xupdate:modifications>`,
		fuzzWrap + `<xupdate:variable name="v" select="//name"/><xupdate:value-of select="$v"/></xupdate:modifications>`,
		// Multiple ops, comments, PIs, whitespace.
		fuzzWrap + `
		  <xupdate:remove select="//a"/><!-- c -->
		  <xupdate:append select="/r"><b><!--x--><?pi d?></b></xupdate:append>
		</xupdate:modifications>`,
		// Namespace variants the parser accepts.
		`<modifications><remove select="//a"/></modifications>`,
		`<m:modifications xmlns:m="http://www.xmldb.org/xupdate"><m:remove select="//a"/></m:modifications>`,
		// Malformed: must error, not panic.
		``, `<`, `</xupdate:modifications>`, `<xupdate:remove select="//a"/>`,
		fuzzWrap, // unterminated root
		fuzzWrap + `<xupdate:bogus select="//a"/></xupdate:modifications>`,
		fuzzWrap + `<xupdate:remove/></xupdate:modifications>`,               // missing select
		fuzzWrap + `<xupdate:remove select="///"/></xupdate:modifications>`,  // bad XPath
		fuzzWrap + `<xupdate:remove select="//a["/></xupdate:modifications>`, // unterminated predicate
		fuzzWrap + `<xupdate:update select="//a"><z/></xupdate:update></xupdate:modifications>`,
		fuzzWrap + `<xupdate:modifications/></xupdate:modifications>`, // nested root
		`<notxupdate><remove select="//a"/></notxupdate>`,
		fuzzWrap + `<xupdate:append select="/r" child="notanumber"><b/></xupdate:append></xupdate:modifications>`,
		// Attribute constructors where only siblings go: the first used
		// to panic the executor, the second to drop the attribute.
		fuzzWrap + `<xupdate:insert-before select="//person"><xupdate:attribute name="a">v</xupdate:attribute></xupdate:insert-before></xupdate:modifications>`,
		fuzzWrap + `<xupdate:insert-after select="//name"><c/><xupdate:attribute name="a">v</xupdate:attribute></xupdate:insert-after></xupdate:modifications>`,
	}
	for _, s := range seeds {
		f.Add(s)
	}

	f.Fuzz(func(t *testing.T, src string) {
		if len(src) > 8192 {
			t.Skip()
		}
		mods, err := parseChecked(t, src)
		if err != nil {
			return
		}
		// A successful parse must produce a well-formed op list: every op
		// carries a compiled select, and its content is a tree of a shape
		// the WAL decoder accepts.
		for i, op := range mods.Ops {
			if op.Select == nil {
				t.Fatalf("op %d (%v) parsed without a select expression", i, op.Kind)
			}
			if op.Frag != nil {
				if err := op.Frag.Check(); err != nil {
					t.Fatalf("op %d (%v): content fails Check: %v", i, op.Kind, err)
				}
			}
		}
		s := buildStore(t, sampleDoc)
		if _, err := Execute(s, mods); err != nil {
			return
		}
		if err := s.CheckInvariants(); err != nil {
			t.Fatalf("%q: invariants after a successful execute: %v", src, err)
		}
	})
}
