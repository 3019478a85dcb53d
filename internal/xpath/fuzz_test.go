package xpath

import (
	"fmt"
	"strings"
	"testing"

	"mxq/internal/core"
	"mxq/internal/naive"
	"mxq/internal/rostore"
	"mxq/internal/shred"
	"mxq/internal/xenc"
)

// FuzzXPathParse feeds arbitrary strings to the XPath compiler. Parse
// must either return an error or an expression whose Source round-trips
// and which survives evaluation against a tiny document — it must never
// panic, loop, or index out of range, whatever the lexer and parser are
// handed. The seed corpus covers the grammar: all axes, node tests,
// predicates, functions, operators, literals and variables.
func FuzzXPathParse(f *testing.F) {
	seeds := []string{
		// Paths and axes.
		`/`, `//person`, `/site/people/person/name/text()`,
		`//person/descendant-or-self::person`, `//d/ancestor::*[1]`,
		`//f/preceding-sibling::*[1]`, `//item[1]/preceding::person`,
		`//person[1]/following::item`, `//watch/ancestor-or-self::*`,
		`//increase/parent::bidder`, `./name/..`, `.//watch`,
		`//@id`, `//person/@id`, `child::*/attribute::id`,
		// Node tests.
		`//node()`, `//text()`, `//comment()`,
		`//processing-instruction()`, `//processing-instruction("tgt")`,
		// Predicates and positions.
		`//person[2]`, `//person[position() = 2]`, `//person[last()]`,
		`//person[@id="person0"]`, `//person[not(watches)]`,
		`//open_auction[bidder/increase > 10]`, `(//a)[1]/text()`,
		`//person/name[../income]`, `(1)[2]`, `("x")[1]/b`,
		// Operators.
		`1 + 2 * 3 - 4 div 5 mod 6`, `-1`, `- -1`, `1 < 2 or 3 >= 4 and 5 != 6`,
		`//name | //income`, `//a | 3`, `//person/@id = "person2"`,
		`//person/name = //item/name`, `"a" != "a"`,
		// Functions.
		`count(//person)`, `sum(//income)`, `floor(1.5)`, `ceiling(1.5)`,
		`round(2.5)`, `number("7")`, `string(123)`, `boolean(0)`,
		`concat("a", "-", "b")`, `contains(name, "gold")`,
		`starts-with(name(), "open_a")`, `substring("hello", 2, 3)`,
		`substring-before("a-b", "-")`, `substring-after("a-b", "-")`,
		`normalize-space("  x   y ")`, `string-length()`, `translate("abc","ab","x")`,
		`local-name()`, `true()`, `false()`, `not(true())`, `position()`,
		// Variables, literals, whitespace.
		`$who`, `//person[@id = $who]/name`, `'single'`, `"double"`,
		`  //a  [  1  ]  `, `3.14159`, `.5`, `5.`,
		// Malformed shapes that must error cleanly.
		`//person]`, `!`, `, `, `(`, `)`, `[`, `]`, `@`, `::`, `//`, `///`,
		`"unterminated`, `'unterminated`, `1 +`, `foo(`, `$`, `//a[`,
		`processing-instruction(`, `a//`, `..a`, `. .`, `1e`, `0x10`,
	}
	for _, s := range seeds {
		f.Add(s)
	}

	doc := buildFuzzDoc(f)
	f.Fuzz(func(t *testing.T, src string) {
		// Nesting is bounded by maxDepth (TestParseBoundsDepth), so the
		// cap only keeps each input cheap to lex, parse and evaluate.
		if len(src) > 4096 {
			t.Skip()
		}
		expr, err := Parse(src)
		if err != nil {
			return
		}
		if got := expr.Source(); got != src {
			t.Fatalf("Source() = %q, want %q", got, src)
		}
		// A successfully compiled expression must also evaluate without
		// panicking (errors are fine: unbound variables etc.).
		vars := map[string]Value{"who": String("w"), "x": Number(1)}
		_, _ = expr.EvalVars(doc, vars)
	})
}

// FuzzXPathEval is the evaluation-side differential fuzzer: every query
// that parses is evaluated three ways — through the compiled plan on the
// paged store (free tuples interleaved), through the node-at-a-time
// oracle (reference, oracle_test.go) on the same store, and through the
// plan on the naive dense store — and all three must agree on error-ness
// and, modulo physical pre ranks, on the result. This crosses both
// dimensions at once: plan vs. oracle (the compiler's predicate
// classification and // fusion, the numbering operator) and paged vs.
// dense storage (free-run skipping in the staircase kernels, paged runs
// vs. the dense store's one run).
func FuzzXPathEval(f *testing.F) {
	seeds := []string{
		// Shapes the compiler rewrites: descendant fusion, sequence
		// predicates, fused positional counters.
		`//kw`, `//item//kw`, `//listitem//kw/text()`, `/site//name`,
		`//person[income]/name/text()`, `//item[desc//kw]/@id`,
		`//bidder[1]/increase/text()`, `//person[position() = 2]`,
		`//watch[2]`, `//item[1]//kw`, `(//kw)[2]`, `//desc/kw[last()]`,
		// Shapes the numbering operator runs: reverse-axis numbering.
		`//kw/ancestor::*[1]`, `//kw/ancestor::node()[last()]`,
		`//bidder/preceding-sibling::*[1]`, `//f/preceding::*[2]`,
		// Attribute axis, unions, functions, operators, variables.
		`//@id`, `//person/@id[1]`, `//name | //kw`, `count(//kw)`,
		`sum(//income)`, `//person[@id = $who]/name`,
		`//person[name = "cy"]`, `string(//item[1])`, `//node()`,
		`//text()`, `//comment()`, `//processing-instruction()`,
		`//person/descendant-or-self::*`, `//item/following::kw`,
		`//watch/..`, `.//kw`, `1 + count(//item//kw) * 2`,
		// Filter expressions: in-place sequence filters over the base.
		`(//person)[income]/name/text()`, `(//item//kw)[2]/text()`,
		`(//person)[income][2]/@id`, `(//name | //kw)[contains(., "o")]`,
		`(//item)[desc//kw]`, `(//person)[$x]`, `(//person)[$who]`,
		// Untypable step predicates: dyn sequence steps whose numeric
		// fallback reruns the step per context ($x is a number).
		`//watch[$x]`, `//person[$x]/@id`, `//person[$who]/name`,
		`//bidder[$x]/increase/text()`, `//person[watches/watch[$x]]`,
		// Steps from the document node, which the plan evaluates through
		// the staircase from the root element.
		`/`, `/*`, `/node()`, `/descendant-or-self::node()`, `//kw[1]`,
		`/descendant::kw[2]`, `/descendant-or-self::node()[2]`, `/*[last()]`,
		`/self::node()`, `/self::node()[1]/site`, `(/ | //item)/descendant::kw[1]`,
		// Shapes the numbering operator owns end to end: attribute contexts
		// under a positional predicate, the document node under last(), a
		// dyn predicate that turns numeric over mixed contexts.
		`//@id/parent::*[1]`, `//@*/ancestor-or-self::node()[last()]`,
		`//@id/self::node()[1]`, `//@id/ancestor::*[last()]`,
		`/descendant-or-self::node()[last()]`, `/self::node()[last()]/*`,
		`(/ | //@id | //item)/descendant-or-self::node()[$x]`,
		`(/ | //@id | //item)/ancestor-or-self::node()[$x]`,
		`$rev/name[last()]`, `$rev/preceding-sibling::*[1]`, `($rev)[$x]`,
		// Positions over the long sibling list, which spans many pages:
		// the child step passes whole pages by count.
		`/site/catalog/entry[1]/n/text()`, `/site/catalog/entry[23]/n/text()`,
		`/site/catalog/entry[40]`, `/site/catalog/entry[41]`, `//catalog/*[37]`,
		`//catalog/node()[50]`, `//catalog/text()[5]`, `//catalog/comment()[2]`,
		`//catalog/entry[12]/sub[1]/kw[3]`, `//catalog/entry[$x]/@id`,
		`/site/catalog/entry[position() = 30]`, `//catalog/entry[last()]/n`,
	}
	for _, s := range seeds {
		f.Add(s)
	}

	tr, err := shred.Parse(strings.NewReader(fuzzEvalDoc), shred.Options{})
	if err != nil {
		f.Fatal(err)
	}
	naiveStore, err := naive.Build(tr)
	if err != nil {
		f.Fatal(err)
	}
	paged, err := core.Build(tr, core.Options{PageSize: 8, FillFactor: 0.7})
	if err != nil {
		f.Fatal(err)
	}
	// Node-set bindings hold store-specific pre ranks: one set per store.
	pagedVars, denseVars := planVars(f, paged), planVars(f, naiveStore)

	f.Fuzz(func(t *testing.T, src string) {
		if len(src) > 2048 {
			t.Skip()
		}
		expr, err := Parse(src)
		if err != nil {
			return
		}
		planned, errPlan := fuzzFingerprint(paged, expr, pagedVars)
		perNode, errPer := fuzzFingerprint(paged, reference(expr), pagedVars)
		dense, errNaive := fuzzFingerprint(naiveStore, expr, denseVars)
		if (errPlan == nil) != (errPer == nil) || (errPlan == nil) != (errNaive == nil) {
			t.Fatalf("%q: error disagreement: plan=%v per-node=%v naive=%v",
				src, errPlan, errPer, errNaive)
		}
		if errPlan != nil {
			return
		}
		if planned != perNode {
			t.Fatalf("%q: plan diverged from per-node\nplan:     %s\nper-node: %s",
				src, planned, perNode)
		}
		if planned != dense {
			t.Fatalf("%q: paged store diverged from the naive dense store\npaged: %s\nnaive: %s",
				src, planned, dense)
		}
	})
}

// fuzzEvalDoc nests elements deeply (overlapping descendant regions, the
// pruning's home turf), carries every node kind, and has a catalog of 40
// entries with subtrees of up to ten nodes: a sibling list across many
// of the fuzz store's eight-tuple pages.
var fuzzEvalDoc = `<site><people>` +
	`<person id="p0"><name>ada</name><income>42</income>` +
	`<watches><watch/><watch/><watch/></watches></person>` +
	`<person id="p1"><name>bob gold</name></person>` +
	`<person id="p2"><name>cy</name><income>7</income></person></people>` +
	`<regions><europe><item id="i0"><name>clock</name>` +
	`<desc><parlist><listitem><parlist><listitem><kw>deep</kw></listitem>` +
	`</parlist><kw>mid</kw></listitem></parlist><kw>top</kw></desc></item>` +
	`<item id="i1"><name>vase</name><desc><kw>only</kw></desc></item></europe>` +
	`<asia><item id="i2"><name>gong</name></item></asia></regions>` +
	`<open_auctions><open_auction><bidder><increase>10</increase></bidder>` +
	`<bidder><increase>25</increase></bidder></open_auction>` +
	`<open_auction><bidder><increase>5</increase></bidder></open_auction>` +
	`</open_auctions>` + fuzzCatalog() + `<e/><f/><!--c--><?tgt data?></site>`

func fuzzCatalog() string {
	var b strings.Builder
	b.WriteString("<catalog>")
	for i := 1; i <= 40; i++ {
		fmt.Fprintf(&b, `<entry id="e%d"><n>%d</n>`, i, i)
		if i%3 == 0 {
			b.WriteString("<sub>" + strings.Repeat("<kw>k</kw>", i%7) + "</sub>")
		}
		b.WriteString("</entry>")
		if i%4 == 0 {
			fmt.Fprintf(&b, "t%d<!--c%d-->", i, i)
		}
	}
	return b.String() + "</catalog>"
}

// fuzzFingerprint renders a result in a form independent of physical pre
// ranks, so the paged store (with free tuples) and the dense oracle
// compare equal when they agree logically (the rendering is resultKey
// from plan_test.go).
func fuzzFingerprint(v xenc.DocView, e *Expr, vars map[string]Value) (string, error) {
	val, err := e.EvalVars(v, vars)
	if err != nil {
		return "", err
	}
	return resultKey(v, val), nil
}

func buildFuzzDoc(f *testing.F) xenc.DocView {
	f.Helper()
	tr, err := shred.Parse(strings.NewReader(
		`<site><people><person id="person0"><name>a b</name><income>42</income></person><person id="person1"><name>gold</name></person></people><open_auctions><open_auction><bidder><increase>20</increase></bidder></open_auction></open_auctions><!--c--><?tgt data?></site>`),
		shred.Options{})
	if err != nil {
		f.Fatal(err)
	}
	v, err := rostore.Build(tr)
	if err != nil {
		f.Fatal(err)
	}
	return v
}
