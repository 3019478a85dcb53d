package xpath

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"mxq/internal/core"
	"mxq/internal/rostore"
	"mxq/internal/shred"
	"mxq/internal/xenc"
)

// planDoc nests elements deeply enough that descendant steps from
// multi-node contexts overlap (the shape the pruning exists for), and
// carries attributes, text, comments and a PI so every node test fires.
const planDoc = `<site>
  <people>
    <person id="p0"><name>ada</name><income>42</income>
      <watches><watch/><watch/><watch/></watches></person>
    <person id="p1"><name>bob gold</name></person>
    <person id="p2"><name>cy</name><income>7</income></person>
  </people>
  <regions>
    <europe>
      <item id="i0"><name>clock</name>
        <desc><parlist><listitem><parlist><listitem><kw>deep</kw></listitem></parlist>
          <kw>mid</kw></listitem></parlist><kw>top</kw></desc></item>
      <item id="i1"><name>vase</name><desc><kw>only</kw></desc></item>
    </europe>
    <asia><item id="i2"><name>gong</name></item></asia>
  </regions>
  <open_auctions>
    <open_auction><bidder><increase>10</increase></bidder>
      <bidder><increase>25</increase></bidder></open_auction>
    <open_auction><bidder><increase>5</increase></bidder></open_auction>
  </open_auctions>
  <!--note-->
  <?pi data?>
</site>`

// planQueries covers every execution strategy the compiler emits: pure
// sequence steps, fused //, fused positional counters, sequence
// predicates, the numbering operator (last(), reverse-axis positions,
// attribute and document-node contexts), the attribute axis, unions,
// filters and variables.
var planQueries = []string{
	`//kw`,
	`//kw/text()`,
	`//item//kw`,
	`//listitem//kw`,
	`//parlist//parlist//kw`,
	`/site/regions//item/name/text()`,
	`/site//name`,
	`//node()`,
	`//text()`,
	`//comment()`,
	`//processing-instruction()`,
	`//person[1]`,
	`//person[2]/name/text()`,
	`//bidder[1]/increase/text()`,
	`//bidder[position() = 2]/increase/text()`,
	`//item[1]`,
	`//watch[3]`,
	`//watch[4]`,
	`//person[last()]/name/text()`,
	`//person[income]/name/text()`,
	`//person[income > 10]/@id`,
	`//item[desc//kw]/name/text()`,
	`//item[not(desc)]`,
	`//person[@id="p1"]/name/text()`,
	`//@id`,
	`//person/@id`,
	`//item/@id[1]`,
	`//person/attribute::node()`,
	`//kw/ancestor::item/name/text()`,
	`//kw/ancestor::*[1]`,
	`//kw/ancestor::*[last()]`,
	`//kw/ancestor-or-self::node()`,
	`//watch/parent::watches`,
	`//watch/..`,
	`//item/following::kw`,
	`//item/preceding::name/text()`,
	`//bidder/following-sibling::bidder`,
	`//bidder/preceding-sibling::*[1]`,
	`//person/descendant-or-self::*`,
	`//person/descendant::node()`,
	`//name | //kw`,
	`(//kw)[2]/text()`,
	`count(//kw)`,
	`count(//item//kw) + count(//person)`,
	`sum(//income)`,
	`//person[watches/watch[2]]/@id`,
	`//person[name = "cy"]/income/text()`,
	`/site/regions/europe/item[2]/desc/kw/text()`,
	`//desc/kw[last()]`,
	`string(//person[1]/name)`,
	`//person[position() = 2 or @id = "p0"]`,
	`.//kw`,
	`//europe//item[1]/name/text()`,
	// Filter expressions: predicates number against the base sequence.
	`(//person)[income]/name/text()`,
	`(//item)[desc//kw]/@id`,
	`(//item//kw)[2]/text()`,
	`(//person)[2]/name/text()`,
	`(//name | //kw)[contains(., "o")]`,
	`(//person)[income][2]/@id`,
	`($ns)[income]/name/text()`,
	`($ns)[$x]/name/text()`,
	// Untypable but position-free predicates: sequence step with the
	// dynamic numeric fallback ($x is a number, $who a string).
	`//watch[$x]`,
	`//person[$who]/name/text()`,
	`//person[$x]/@id`,
	`//watches[$x]`,
	`//bidder[$x]/increase/text()`,
	`//person[watches/watch[$x]]/@id`,
	// Steps from the document node: the plan runs them through the
	// staircase from the root element, fused positions included.
	`/`,
	`/*`,
	`/node()`,
	`/site`,
	`/people`,
	`/text()`,
	`/descendant-or-self::node()`,
	`/descendant-or-self::*`,
	`/descendant::node()`,
	`//kw[1]`,
	`//node()[1]`,
	`/descendant::kw[2]`,
	`/descendant::kw[9]`,
	`/descendant-or-self::node()[1]`,
	`/descendant-or-self::node()[2]`,
	`/descendant-or-self::site[1]`,
	`/descendant-or-self::node()[2][self::site]/people/person[3]/name/text()`,
	`/descendant::person[2][income]/@id`,
	`/*[1]`,
	`/*[2]`,
	`/*[last()]`,
	`/self::node()`,
	`/self::node()[1]`,
	`/self::node()[2]`,
	`/self::*`,
	`/self::node()/site/people/person[1]/@id`,
	`/..`,
	`/ancestor-or-self::node()`,
	`/following::node()`,
	`/@id`,
	`/descendant-or-self::node()/descendant::kw[2]`,
	`/descendant-or-self::node()/self::node()[1]`,
	`/descendant-or-self::node()/ancestor-or-self::node()`,
	`(/ | //person)/descendant::kw[1]`,
	`(/ | //item)/descendant-or-self::node()[2]`,
	`(/ | //person/@id)/self::node()`,
	`//@id/..`,
	`//@id/parent::person`,
	`//@id/ancestor::*`,
	`//@id/ancestor-or-self::node()`,
	`//person/@*`,
	`//person/@nope`,
	`//person/attribute::text()`,
	`count(/descendant::node())`,
	// Shapes the numbering operator owns end to end: attribute contexts
	// under a positional predicate, the document node under last(), a dyn
	// predicate that turns numeric with attribute and document-node
	// contexts in the same sequence, an unordered variable-bound start.
	`//@id/parent::*[1]`,
	`//@id/parent::person[last()]/name/text()`,
	`//@*/ancestor-or-self::node()[last()]`,
	`//@id/ancestor-or-self::node()[2]`,
	`//@id/ancestor::*[1]`,
	`//@id/ancestor::node()[last()]`,
	`//@id/self::node()[1]`,
	`//@id/self::*[1]`,
	`//@id/following::node()[1]`,
	`//@id/@id[last()]`,
	`/descendant-or-self::node()[last()]`,
	`/self::node()[last()]/*`,
	`/@*[last()]`,
	`/parent::node()[last()]`,
	`/site/parent::node()[last()]`,
	`//person/attribute::*[last()]`,
	`(/ | //@id | //item)/descendant-or-self::node()[$x]`,
	`(/ | //@id | //item)/ancestor-or-self::node()[$x]`,
	`(/ | //@id)/self::node()[$who]`,
	`$rev/name[last()]/text()`,
	`$rev/preceding-sibling::*[1]/@id`,
	`($rev)[2]/@id`,
}

// buildPlanStores shreds planDoc into the read-only store and a paged
// store with interleaved free tuples (PageSize 8, fill 0.7), so the
// sequence operators also cross free runs.
func buildPlanStores(tb testing.TB) (xenc.DocView, xenc.DocView) {
	tb.Helper()
	tr, err := shred.Parse(strings.NewReader(planDoc), shred.Options{})
	if err != nil {
		tb.Fatal(err)
	}
	ro, err := rostore.Build(tr)
	if err != nil {
		tb.Fatal(err)
	}
	up, err := core.Build(tr, core.Options{PageSize: 8, FillFactor: 0.7})
	if err != nil {
		tb.Fatal(err)
	}
	return ro, up
}

// planVars builds the variable bindings the battery references: a
// string, a number (exercising the dynamic numeric fallback), and two
// node-sets bound from the given view (store-specific pre ranks) — the
// persons in document order, and out of order with a duplicate. The
// node-sets are shared across queries, so a filter that destructively
// consumed one instead of copying would poison later queries.
func planVars(tb testing.TB, v xenc.DocView) map[string]Value {
	tb.Helper()
	ns, err := MustParse(`//person`).Select(v)
	if err != nil || len(ns) != 3 {
		tb.Fatalf("//person: %v, %v", ns, err)
	}
	rev := NodeSet{ns[2], ns[1], ns[0], ns[1]}
	return map[string]Value{"who": String("p1"), "x": Number(2), "ns": ns, "rev": rev}
}

// resultKey renders a value into a store-independent comparable form.
func resultKey(v xenc.DocView, val Value) string {
	switch x := val.(type) {
	case NodeSet:
		var b strings.Builder
		fmt.Fprintf(&b, "nodes:%d\n", len(x))
		for _, n := range x {
			kind := "document"
			if n.Attr != NoAttr {
				kind = "attribute"
			} else if n.Pre != DocNodePre {
				kind = v.Kind(n.Pre).String()
			}
			fmt.Fprintf(&b, "%s|%s|%s\n", kind, nodeName(v, n), StringValue(v, n))
		}
		return b.String()
	case Number:
		return "num:" + FormatNumber(float64(x))
	case String:
		return "str:" + string(x)
	case Boolean:
		return fmt.Sprintf("bool:%v", bool(x))
	}
	return fmt.Sprintf("?%T", val)
}

// TestPlanMatchesPerNode is the engine-level differential: every query
// must produce bit-identical results through the compiled plan and
// through the node-at-a-time oracle (oracle_test.go), on both storage
// schemas.
func TestPlanMatchesPerNode(t *testing.T) {
	t.Parallel()
	ro, up := buildPlanStores(t)
	for _, q := range planQueries {
		e, err := Parse(q)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		ref := reference(e)
		for _, view := range []struct {
			name string
			v    xenc.DocView
		}{{"ro", ro}, {"up", up}} {
			vars := planVars(t, view.v)
			seqVal, seqErr := e.EvalVars(view.v, vars)
			perVal, perErr := ref.EvalVars(view.v, vars)
			if (seqErr == nil) != (perErr == nil) {
				t.Fatalf("%s on %s: plan err %v, per-node err %v", q, view.name, seqErr, perErr)
			}
			if seqErr != nil {
				continue
			}
			got, want := resultKey(view.v, seqVal), resultKey(view.v, perVal)
			if got != want {
				t.Errorf("%s on %s diverged\nplan:     %s\nper-node: %s", q, view.name, got, want)
			}
		}
	}
}

// TestPlanMatchesAcrossStores pins that the pipeline gives the same
// answers on the dense read-only schema and the free-space-interleaved
// paged schema.
func TestPlanMatchesAcrossStores(t *testing.T) {
	ro, up := buildPlanStores(t)
	roVars, upVars := planVars(t, ro), planVars(t, up)
	for _, q := range planQueries {
		e := MustParse(q)
		a, err1 := e.EvalVars(ro, roVars)
		b, err2 := e.EvalVars(up, upVars)
		if (err1 == nil) != (err2 == nil) {
			t.Fatalf("%s: ro err %v, up err %v", q, err1, err2)
		}
		if err1 != nil {
			continue
		}
		if got, want := resultKey(ro, a), resultKey(up, b); got != want {
			t.Errorf("%s: stores diverged\nro: %s\nup: %s", q, got, want)
		}
	}
}

// TestCompileClassification pins the lowering decisions the plan
// contract documents.
func TestCompileClassification(t *testing.T) {
	cases := []struct {
		q    string
		want []stepKind
	}{
		{`/site/people/person`, []stepKind{opSeq, opSeq, opSeq}},
		{`//kw`, []stepKind{opSeq}},              // fused into descendant::kw
		{`//item//kw`, []stepKind{opSeq, opSeq}}, // both // fused
		// A positional predicate blocks the // collapse (its numbering
		// depends on the uncollapsed context), so the shorthand step
		// survives as a sequence step and the counter fuses into the
		// child step.
		{`//bidder[1]`, []stepKind{opSeq, opFusedPos}},
		{`//person[position() = 2]`, []stepKind{opSeq, opFusedPos}},
		{`//person[last()]`, []stepKind{opSeq, opPerNode}},
		{`//person[income]`, []stepKind{opSeq}}, // seq filter, fused
		{`//kw/ancestor::*[1]`, []stepKind{opSeq, opPerNode}},
		// Untypable but position-free: sequence step with the dynamic
		// numeric fallback armed, and the // collapse suppressed (a
		// numeric value would number against the uncollapsed context).
		{`//watch[$n]`, []stepKind{opSeq, opSeq}},
		{`//item[desc][2]`, []stepKind{opSeq, opPerNode}}, // [2] not leading
		{`//item[2][desc]`, []stepKind{opSeq, opFusedPos}},
	}
	for _, tc := range cases {
		e := MustParse(tc.q)
		pe, ok := e.root.(*pathExpr)
		if !ok {
			t.Fatalf("%s: root is %T", tc.q, e.root)
		}
		var got []stepKind
		for i := range pe.plan.steps {
			got = append(got, pe.plan.steps[i].kind)
		}
		if len(got) != len(tc.want) {
			t.Errorf("%s: %d plan steps (%v), want %d", tc.q, len(got), got, len(tc.want))
			continue
		}
		for i := range got {
			if got[i] != tc.want[i] {
				t.Errorf("%s: step %d kind %d, want %d", tc.q, i+1, got[i], tc.want[i])
			}
		}
	}

	// The untypable predicate marks its step dynamic; typed ones do not.
	dyn := MustParse(`//watch[$n]`).root.(*pathExpr)
	if !dyn.plan.steps[1].dyn {
		t.Errorf("//watch[$n]: step 2 not marked dyn")
	}
	typed := MustParse(`//person[income]`).root.(*pathExpr)
	if typed.plan.steps[0].dyn {
		t.Errorf("//person[income]: fused step marked dyn")
	}
}

// TestExplain pins the rendering the shell's explain command shows.
func TestExplain(t *testing.T) {
	out := MustParse(`//item//kw`).Explain()
	for _, want := range []string{"query: ", "descendant::item", "descendant::kw", "seq (fused //)"} {
		if !strings.Contains(out, want) {
			t.Errorf("Explain(//item//kw) missing %q:\n%s", want, out)
		}
	}
	out = MustParse(`//bidder[1]/increase`).Explain()
	if !strings.Contains(out, "early-exit pos=1") {
		t.Errorf("Explain missing fused position:\n%s", out)
	}
	out = MustParse(`//person[last()]`).Explain()
	if !strings.Contains(out, "per-node") {
		t.Errorf("Explain missing the per-node numbering step:\n%s", out)
	}
	// The acceptance shape: a position-free step predicate is a sequence
	// filter on a fused descendant scan, not a per-node fallback.
	out = MustParse(`//item[author]`).Explain()
	if !strings.Contains(out, "seq (fused //), 1 seq filter(s)") || strings.Contains(out, "per-node") {
		t.Errorf("Explain(//item[author]) not an in-place sequence filter:\n%s", out)
	}
	out = MustParse(`//person[profile/age]`).Explain()
	if !strings.Contains(out, "seq (fused //), 1 seq filter(s)") || strings.Contains(out, "per-node") {
		t.Errorf("Explain(//person[profile/age]) not an in-place sequence filter:\n%s", out)
	}
	// Filter expressions render one line per predicate, and no strategy:
	// every filter predicate numbers against the base sequence in place.
	out = MustParse(`(//item)[author][2]`).Explain()
	if !strings.Contains(out, "filter [child::author]\n") || !strings.Contains(out, "filter [2]\n") {
		t.Errorf("Explain missing filter lines:\n%s", out)
	}
	out = MustParse(`(//item)[position() = 2]`).Explain()
	if !strings.Contains(out, "filter [(position() = 2)]\n") || strings.Contains(out, "per-node") {
		t.Errorf("Explain: a positional filter predicate is not a per-node step:\n%s", out)
	}
	// A dynamic step predicate advertises its runtime fallback.
	out = MustParse(`//watch[$n]`).Explain()
	if !strings.Contains(out, "dyn: numeric falls back per-node") {
		t.Errorf("Explain missing dyn marker:\n%s", out)
	}
}

// TestFilterExprClassification pins what compilation records about a
// filter expression: whether its base yields a fresh node-set the
// predicates may filter in place. A variable base is borrowed, not owned.
func TestFilterExprClassification(t *testing.T) {
	cases := []struct {
		q     string
		owned bool
	}{
		{`(//item)[author]`, true},
		{`(//item)[author][position() = 2]`, true},
		{`(//item)[last()]`, true},
		{`($ns)[author]`, false},
		{`($ns)[last()]`, false},
		{`(//a | //b)[c]`, true},
	}
	for _, tc := range cases {
		f, ok := MustParse(tc.q).root.(*filterExpr)
		if !ok {
			t.Fatalf("%s: root is not a filterExpr", tc.q)
		}
		if f.ownedBase != tc.owned {
			t.Errorf("%s: ownedBase=%v, want %v", tc.q, f.ownedBase, tc.owned)
		}
	}
}

// TestFilterExprPreservesVariableBinding pins the defensive copy: a
// filter over a variable-bound node-set must not mutate the binding,
// which the caller may reuse.
func TestFilterExprPreservesVariableBinding(t *testing.T) {
	ro, _ := buildPlanStores(t)
	persons, err := MustParse(`//person`).Select(ro)
	if err != nil || len(persons) != 3 {
		t.Fatalf("persons: %v %v", persons, err)
	}
	orig := append(NodeSet{}, persons...)
	vars := map[string]Value{"ns": persons}
	for _, tc := range []struct {
		q    string
		want int
	}{{`($ns)[income]`, 2}, {`($ns)[position() > 1]`, 2}, {`($ns)[last()]`, 1}} {
		got, err := MustParse(tc.q).SelectVars(ro, vars)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != tc.want {
			t.Fatalf("%s = %d nodes, want %d", tc.q, len(got), tc.want)
		}
		for i := range persons {
			if persons[i] != orig[i] {
				t.Fatalf("%s mutated the variable binding at %d: %v != %v", tc.q, i, persons[i], orig[i])
			}
		}
	}
}

// TestDynPredicateFallback pins the runtime numeric fallback: an
// untypable predicate that turns out numeric selects by per-context
// position (node-at-a-time semantics), string/boolean/node-set values
// filter over the sequence.
func TestDynPredicateFallback(t *testing.T) {
	ro, _ := buildPlanStores(t)
	// $x = 2 over //watch: each watches context numbers its own children,
	// so [2] picks the second watch of the single watches element.
	got, err := MustParse(`//watch[$x]`).SelectVars(ro, map[string]Value{"x": Number(2)})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 {
		t.Fatalf("//watch[$x=2] = %d nodes, want 1", len(got))
	}
	// A string value is truthy iff non-empty: every person qualifies.
	got, err = MustParse(`//person[$who]`).SelectVars(ro, map[string]Value{"who": String("p1")})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("//person[$who] = %d nodes, want 3", len(got))
	}
	// Empty string is falsy: nothing qualifies.
	got, err = MustParse(`//person[$who]`).SelectVars(ro, map[string]Value{"who": String("")})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf(`//person[$who=""] = %d nodes, want 0`, len(got))
	}
}

// TestPlanUnsortedVariableContext pins the staircase input contract: a
// variable bound to an unordered node-set context must still evaluate
// correctly (the plan sorts and dedupes before piping).
func TestPlanUnsortedVariableContext(t *testing.T) {
	ro, _ := buildPlanStores(t)
	persons, err := MustParse(`//person`).Select(ro)
	if err != nil || len(persons) != 3 {
		t.Fatalf("persons: %v %v", persons, err)
	}
	// Reversed, with a duplicate.
	unsorted := NodeSet{persons[2], persons[1], persons[0], persons[1]}
	vars := map[string]Value{"ns": unsorted}
	got, err := MustParse(`$ns/name/text()`).SelectVars(ro, vars)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("$ns/name/text() = %d nodes, want 3", len(got))
	}
	want := []string{"ada", "bob gold", "cy"}
	for i, n := range got {
		if StringValue(ro, n) != want[i] {
			t.Errorf("result %d = %q, want %q", i, StringValue(ro, n), want[i])
		}
	}
}

// countingView wraps a DocView and counts tuple inspections: every
// pre-addressed accessor call the evaluator makes.
type countingView struct {
	xenc.DocView
	n int64
}

func (c *countingView) Size(p xenc.Pre) xenc.Size    { c.n++; return c.DocView.Size(p) }
func (c *countingView) Level(p xenc.Pre) xenc.Level  { c.n++; return c.DocView.Level(p) }
func (c *countingView) Kind(p xenc.Pre) xenc.Kind    { c.n++; return c.DocView.Kind(p) }
func (c *countingView) Name(p xenc.Pre) int32        { c.n++; return c.DocView.Name(p) }
func (c *countingView) Value(p xenc.Pre) string      { c.n++; return c.DocView.Value(p) }
func (c *countingView) Attrs(p xenc.Pre) []xenc.Attr { c.n++; return c.DocView.Attrs(p) }
func (c *countingView) AttrValue(p xenc.Pre, name int32) (string, bool) {
	c.n++
	return c.DocView.AttrValue(p, name)
}

// TestPipelineInspectionDrop pins what the staircase pruning buys. The
// document chains 40 <l> elements, each carrying 3 <k> leaves, so the
// intermediate context of //l//k is 40 mutually nested nodes: a walk
// from each context node re-scans every region once per ancestor, while
// the plan inspects each tuple a bounded number of times per step. The
// plan must return what the node-at-a-time oracle returns, for at most a
// fifth of its inspections and at most a small constant per tuple per
// step.
func TestPipelineInspectionDrop(t *testing.T) {
	const depth, fan = 40, 3
	b := shred.NewBuilder().Start("root")
	for i := 0; i < depth; i++ {
		b.Start("l")
		for j := 0; j < fan; j++ {
			b.Elem("k", "x")
		}
	}
	for i := 0; i < depth; i++ {
		b.End()
	}
	s, err := rostore.Build(b.End().Tree())
	if err != nil {
		t.Fatal(err)
	}
	e := MustParse(`//l//k`)

	check := func(e *Expr) (int64, []xenc.Pre) {
		cv := &countingView{DocView: s}
		ns, err := e.Select(cv)
		if err != nil {
			t.Fatal(err)
		}
		return cv.n, ns.Pres()
	}
	seqN, seqRes := check(e)
	perN, perRes := check(reference(e))

	if len(seqRes) != depth*fan {
		t.Fatalf("//l//k returned %d nodes, want %d", len(seqRes), depth*fan)
	}
	if !slices.Equal(seqRes, perRes) {
		t.Fatalf("results diverged:\nplan:   %v\noracle: %v", seqRes, perRes)
	}
	if perN < 5*seqN {
		t.Fatalf("tuple inspections: oracle %d, plan %d — want a >=5x drop on overlapping regions", perN, seqN)
	}
	const steps, perTuple = 2, 4 // descendant::l, descendant::k; level, kind, name and size reads
	if limit := int64(steps * perTuple * s.Len()); seqN > limit {
		t.Fatalf("plan inspections %d on a %d-tuple document: want <= %d (%d per tuple per step)", seqN, s.Len(), limit, perTuple)
	}
	t.Logf("tuple inspections on //l//k (depth %d, %d tuples): oracle %d, plan %d (%.1fx)", depth, s.Len(), perN, seqN, float64(perN)/float64(seqN))
}
