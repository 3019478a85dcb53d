// Package xpath compiles and evaluates the XPath 1.0 subset that
// MonetDB/XQuery's update language and the XMark workload need: all
// twelve axes (evaluated by staircase join on the pre/size/level
// encoding), name and kind tests, positional and boolean predicates,
// arithmetic, comparisons with node-set existential semantics, variables
// ($x), and the core function library.
package xpath

import (
	"fmt"
	"math"
	"strings"

	"mxq/internal/staircase"
	"mxq/internal/xenc"
)

// context is one evaluation context (node, position, size, bindings).
type context struct {
	view xenc.DocView
	node Node
	pos  int
	size int
	vars map[string]Value
}

// Eval evaluates the expression with the document node as context.
func (e *Expr) Eval(v xenc.DocView) (Value, error) {
	return e.EvalAt(v, DocNode(), nil)
}

// EvalVars evaluates with variable bindings.
func (e *Expr) EvalVars(v xenc.DocView, vars map[string]Value) (Value, error) {
	return e.EvalAt(v, DocNode(), vars)
}

// EvalAt evaluates with an explicit context node and bindings.
func (e *Expr) EvalAt(v xenc.DocView, node Node, vars map[string]Value) (Value, error) {
	c := &context{view: v, node: node, pos: 1, size: 1, vars: vars}
	return e.root.eval(c)
}

// Select evaluates and requires a node-set result.
func (e *Expr) Select(v xenc.DocView) (NodeSet, error) {
	return e.SelectAt(v, DocNode(), nil)
}

// SelectVars evaluates with bindings and requires a node-set result.
func (e *Expr) SelectVars(v xenc.DocView, vars map[string]Value) (NodeSet, error) {
	return e.SelectAt(v, DocNode(), vars)
}

// SelectAt evaluates at a context node and requires a node-set result.
func (e *Expr) SelectAt(v xenc.DocView, node Node, vars map[string]Value) (NodeSet, error) {
	val, err := e.EvalAt(v, node, vars)
	if err != nil {
		return nil, err
	}
	ns, ok := val.(NodeSet)
	if !ok {
		return nil, fmt.Errorf("xpath: %q evaluates to a %T, not a node-set", e.src, val)
	}
	return ns, nil
}

// --- expression evaluation -------------------------------------------------

func (n numberLit) eval(*context) (Value, error) { return Number(n), nil }
func (s stringLit) eval(*context) (Value, error) { return String(s), nil }

func (v varRef) eval(c *context) (Value, error) {
	if val, ok := c.vars[string(v)]; ok {
		return val, nil
	}
	return nil, fmt.Errorf("unbound variable $%s", string(v))
}

func (n *negExpr) eval(c *context) (Value, error) {
	v, err := n.e.eval(c)
	if err != nil {
		return nil, err
	}
	return Number(-NumberOf(c.view, v)), nil
}

func (u *unionExpr) eval(c *context) (Value, error) {
	lv, err := u.l.eval(c)
	if err != nil {
		return nil, err
	}
	rv, err := u.r.eval(c)
	if err != nil {
		return nil, err
	}
	ln, ok1 := lv.(NodeSet)
	rn, ok2 := rv.(NodeSet)
	if !ok1 || !ok2 {
		return nil, fmt.Errorf("union of non-node-sets")
	}
	return sortDedupe(append(append(NodeSet{}, ln...), rn...)), nil
}

func (b *binaryExpr) eval(c *context) (Value, error) {
	switch b.op {
	case "and":
		lv, err := b.l.eval(c)
		if err != nil {
			return nil, err
		}
		if !BoolOf(lv) {
			return Boolean(false), nil
		}
		rv, err := b.r.eval(c)
		if err != nil {
			return nil, err
		}
		return Boolean(BoolOf(rv)), nil
	case "or":
		lv, err := b.l.eval(c)
		if err != nil {
			return nil, err
		}
		if BoolOf(lv) {
			return Boolean(true), nil
		}
		rv, err := b.r.eval(c)
		if err != nil {
			return nil, err
		}
		return Boolean(BoolOf(rv)), nil
	}
	lv, err := b.l.eval(c)
	if err != nil {
		return nil, err
	}
	rv, err := b.r.eval(c)
	if err != nil {
		return nil, err
	}
	switch b.op {
	case "=", "!=", "<", "<=", ">", ">=":
		return Boolean(compare(c.view, b.op, lv, rv)), nil
	case "+":
		return Number(NumberOf(c.view, lv) + NumberOf(c.view, rv)), nil
	case "-":
		return Number(NumberOf(c.view, lv) - NumberOf(c.view, rv)), nil
	case "*":
		return Number(NumberOf(c.view, lv) * NumberOf(c.view, rv)), nil
	case "div":
		return Number(NumberOf(c.view, lv) / NumberOf(c.view, rv)), nil
	case "mod":
		return Number(math.Mod(NumberOf(c.view, lv), NumberOf(c.view, rv))), nil
	}
	return nil, fmt.Errorf("unknown operator %q", b.op)
}

func (f *filterExpr) eval(c *context) (Value, error) {
	base, err := f.base.eval(c)
	if err != nil {
		return nil, err
	}
	ns, ok := base.(NodeSet)
	if !ok {
		return nil, fmt.Errorf("predicate applied to a %T", base)
	}
	// Position-free predicates filter the base sequence in place: a
	// filter's predicates number against the whole base sequence, which
	// is exactly the order ns holds, so a runtime numeric value compares
	// against the sequence position with no per-context renumbering (see
	// classifyFilter in compile.go). A borrowed base (variable binding)
	// is copied once before the first destructive pass.
	owned := f.ownedBase
	for i, pred := range f.preds {
		if f.seq != nil && f.seq[i] && planEnabled.Load() {
			if !owned {
				ns = append(NodeSet{}, ns...)
				owned = true
			}
			ns, err = filterNodesInPlace(c, ns, pred)
		} else {
			ns, err = filterNodes(c, ns, pred, false)
			owned = true
		}
		if err != nil {
			return nil, err
		}
	}
	return ns, nil
}

func (p *pathExpr) eval(c *context) (Value, error) {
	var ctx NodeSet
	switch {
	case p.start != nil:
		base, err := p.start.eval(c)
		if err != nil {
			return nil, err
		}
		ns, ok := base.(NodeSet)
		if !ok {
			return nil, fmt.Errorf("path step applied to a %T", base)
		}
		ctx = ns
	case p.absolute:
		ctx = NodeSet{DocNode()}
	default:
		ctx = NodeSet{c.node}
	}
	if p.plan != nil && planEnabled.Load() {
		return p.plan.run(c, ctx)
	}
	var err error
	for i := range p.steps {
		ctx, err = applyStep(c, ctx, &p.steps[i])
		if err != nil {
			return nil, err
		}
		if len(ctx) == 0 {
			return NodeSet{}, nil
		}
	}
	return ctx, nil
}

// applyStep evaluates one location step node-at-a-time. Predicates are
// applied per context node over the axis-ordered candidate list, which
// is what gives position() its XPath semantics; the per-node results are
// then merged into document order. The compiled pipeline (plan.go) only
// routes steps here whose predicate shapes need per-context numbering
// (position() on reverse axes, last(), untypable predicates), plus
// document-node and attribute-node contexts.
func applyStep(c *context, ctx NodeSet, st *step) (NodeSet, error) {
	var out NodeSet
	// Reversal exists only so predicates number against axis order; the
	// candidates come back from the staircase in document order, so a
	// predicate-free step needs neither the reversal nor the restoring
	// sort.
	reversed := st.axis.Reverse() && len(st.preds) > 0
	for _, node := range ctx {
		cands := axisCandidates(c.view, node, st)
		if reversed {
			for i, j := 0, len(cands)-1; i < j; i, j = i+1, j-1 {
				cands[i], cands[j] = cands[j], cands[i]
			}
		}
		var err error
		for _, pred := range st.preds {
			cands, err = filterNodes(c, cands, pred, false)
			if err != nil {
				return nil, err
			}
		}
		out = append(out, cands...)
	}
	if len(ctx) > 1 || reversed {
		out = sortDedupe(out)
	}
	return out, nil
}

// filterNodes keeps the nodes for which the predicate holds. Numeric
// predicate values select by position.
func filterNodes(c *context, ns NodeSet, pred expr, _ bool) (NodeSet, error) {
	var out NodeSet
	sub := context{view: c.view, size: len(ns), vars: c.vars}
	for i, n := range ns {
		sub.node = n
		sub.pos = i + 1
		val, err := pred.eval(&sub)
		if err != nil {
			return nil, err
		}
		keep := false
		if num, ok := val.(Number); ok {
			keep = float64(num) == float64(i+1)
		} else {
			keep = BoolOf(val)
		}
		if keep {
			out = append(out, n)
		}
	}
	return out, nil
}

// filterNodesInPlace is filterNodes without the result allocation: the
// kept nodes compact into the front of ns. Callers guarantee they own
// ns. Numeric predicate values still select by position — identical
// semantics, because the positions compared against are the sequence
// positions filterNodes would have assigned.
func filterNodesInPlace(c *context, ns NodeSet, pred expr) (NodeSet, error) {
	sub := context{view: c.view, size: len(ns), vars: c.vars}
	w := 0
	for i, n := range ns {
		sub.node = n
		sub.pos = i + 1
		val, err := pred.eval(&sub)
		if err != nil {
			return nil, err
		}
		keep := false
		if num, ok := val.(Number); ok {
			keep = float64(num) == float64(i+1)
		} else {
			keep = BoolOf(val)
		}
		if keep {
			ns[w] = n
			w++
		}
	}
	return ns[:w], nil
}

// axisCandidates enumerates the axis from one context node, applying the
// node test, in document order.
func axisCandidates(v xenc.DocView, n Node, st *step) NodeSet {
	// Attribute axis.
	if st.axis == AxisAttribute {
		if n.Attr != NoAttr || n.Pre == DocNodePre || v.Kind(n.Pre) != xenc.KindElem {
			return nil
		}
		test := resolveAttrTest(v, st)
		var out NodeSet
		for i, a := range v.Attrs(n.Pre) {
			if test.matches(a.Name) {
				out = append(out, Node{Pre: n.Pre, Attr: int32(i)})
			}
		}
		return out
	}

	// Axes from an attribute node.
	if n.Attr != NoAttr {
		switch st.axis {
		case AxisSelf:
			if st.tk == testNode {
				return NodeSet{n}
			}
			return nil
		case AxisParent:
			// Only the owning element.
			return axisCandidates(v, ElemNode(n.Pre), &step{axis: AxisSelf, tk: st.tk, name: st.name})
		case AxisAncestor, AxisAncestorOrSelf:
			out := axisCandidates(v, ElemNode(n.Pre), &step{axis: AxisAncestorOrSelf, tk: st.tk, name: st.name})
			if st.axis == AxisAncestorOrSelf && st.tk == testNode {
				out = append(out, n)
			}
			return out
		default:
			return nil
		}
	}

	// Axes from the document node, for steps that are per-node for other
	// reasons (the plan handles it at sequence level otherwise): the
	// staircase evaluates them from the root element.
	if n.Pre == DocNodePre {
		var out NodeSet
		if st.selectsDocNode() {
			out = append(out, n)
		}
		if ax, ok := fromDocNode(st.axis); ok {
			for _, p := range staircase.EvalAxis(v, []xenc.Pre{v.Root()}, seqAxis(ax), treeTest(v, st)) {
				out = append(out, ElemNode(p))
			}
		}
		return out
	}

	// Regular tree axes via staircase join (the same dispatcher the
	// sequence pipeline uses, on a singleton context).
	test := treeTest(v, st)
	pres := staircase.EvalAxis(v, []xenc.Pre{n.Pre}, seqAxis(st.axis), test)
	out := make(NodeSet, 0, len(pres))
	for _, p := range pres {
		out = append(out, ElemNode(p))
	}
	// The document node is an ancestor of everything.
	switch st.axis {
	case AxisParent:
		if v.Level(n.Pre) == 0 && st.tk == testNode {
			out = append(NodeSet{DocNode()}, out...)
		}
	case AxisAncestor, AxisAncestorOrSelf:
		if st.tk == testNode {
			out = append(NodeSet{DocNode()}, out...)
		}
	}
	return out
}

// fromDocNode maps a tree axis taken from the virtual document node to
// the axis that, taken from the root element, selects the same tree
// nodes. The root element is the document node's only child, so the
// document node's children are the root's self and its descendants the
// root's descendant-or-self. ok is false for the axes that hold no tree
// node from the document node: it has no parent, no siblings, nothing
// before or after it, and self holds only itself.
func fromDocNode(ax Axis) (rootAxis Axis, ok bool) {
	switch ax {
	case AxisChild:
		return AxisSelf, true
	case AxisDescendant, AxisDescendantOrSelf:
		return AxisDescendantOrSelf, true
	}
	return 0, false
}

// selectsDocNode reports whether the step, taken from the document node,
// selects the document node itself.
func (st *step) selectsDocNode() bool {
	return st.tk == testNode && (st.axis == AxisSelf || st.axis == AxisDescendantOrSelf)
}

// attrTest is the node test of an attribute step resolved against one
// document: every attribute (node(), @*), or the one whose name has id.
type attrTest struct {
	all bool
	id  int32 // -2 when nothing matches: a kind test, or a name the document lacks
}

// resolveAttrTest looks the step's name up once, so that matching an
// attribute is an integer compare.
func resolveAttrTest(v xenc.DocView, st *step) attrTest {
	switch {
	case st.tk == testNode, st.tk == testName && st.name == "":
		return attrTest{all: true}
	case st.tk == testName:
		if id, ok := v.Names().Lookup(st.name); ok {
			return attrTest{id: id}
		}
	}
	return attrTest{id: -2}
}

func (a attrTest) matches(name int32) bool { return a.all || name == a.id }

// treeTest resolves the step's node test against the document's name
// pool. Callers do it once per step per evaluation, never per tuple.
func treeTest(v xenc.DocView, st *step) staircase.Test {
	switch st.tk {
	case testNode:
		return staircase.AnyNode()
	case testText:
		return staircase.KindTest(xenc.KindText)
	case testComment:
		return staircase.KindTest(xenc.KindComment)
	case testPI:
		if st.name == "" {
			return staircase.PITest(xenc.NoName)
		}
		if id, ok := v.Names().Lookup(st.name); ok {
			return staircase.PITest(id)
		}
		return staircase.PITest(-2) // never matches
	default: // testName
		if st.name == "" {
			return staircase.Element(xenc.NoName)
		}
		if id, ok := v.Names().Lookup(st.name); ok {
			return staircase.Element(id)
		}
		return staircase.Element(-2) // name not in this document
	}
}

// --- function library -------------------------------------------------------

func (f *funcCall) eval(c *context) (Value, error) {
	argVals := make([]Value, len(f.args))
	for i, a := range f.args {
		v, err := a.eval(c)
		if err != nil {
			return nil, err
		}
		argVals[i] = v
	}
	argN := func(i int) float64 { return NumberOf(c.view, argVals[i]) }
	argS := func(i int) string { return StringOf(c.view, argVals[i]) }
	switch f.name {
	case "position":
		return Number(c.pos), nil
	case "last":
		return Number(c.size), nil
	case "count":
		if err := arity(f, 1); err != nil {
			return nil, err
		}
		ns, ok := argVals[0].(NodeSet)
		if !ok {
			return nil, fmt.Errorf("count() needs a node-set")
		}
		return Number(len(ns)), nil
	case "not":
		if err := arity(f, 1); err != nil {
			return nil, err
		}
		return Boolean(!BoolOf(argVals[0])), nil
	case "true":
		return Boolean(true), nil
	case "false":
		return Boolean(false), nil
	case "boolean":
		if err := arity(f, 1); err != nil {
			return nil, err
		}
		return Boolean(BoolOf(argVals[0])), nil
	case "number":
		if len(f.args) == 0 {
			return Number(NumberOf(c.view, NodeSet{c.node})), nil
		}
		return Number(argN(0)), nil
	case "string":
		if len(f.args) == 0 {
			return String(StringValue(c.view, c.node)), nil
		}
		return String(argS(0)), nil
	case "concat":
		var b strings.Builder
		for i := range argVals {
			b.WriteString(argS(i))
		}
		return String(b.String()), nil
	case "contains":
		if err := arity(f, 2); err != nil {
			return nil, err
		}
		return Boolean(strings.Contains(argS(0), argS(1))), nil
	case "starts-with":
		if err := arity(f, 2); err != nil {
			return nil, err
		}
		return Boolean(strings.HasPrefix(argS(0), argS(1))), nil
	case "substring-before":
		if err := arity(f, 2); err != nil {
			return nil, err
		}
		s, sep := argS(0), argS(1)
		if i := strings.Index(s, sep); i >= 0 {
			return String(s[:i]), nil
		}
		return String(""), nil
	case "substring-after":
		if err := arity(f, 2); err != nil {
			return nil, err
		}
		s, sep := argS(0), argS(1)
		if i := strings.Index(s, sep); i >= 0 {
			return String(s[i+len(sep):]), nil
		}
		return String(""), nil
	case "substring":
		if len(f.args) != 2 && len(f.args) != 3 {
			return nil, fmt.Errorf("substring() takes 2 or 3 arguments")
		}
		s := []rune(argS(0))
		start := int(math.Round(argN(1))) - 1
		end := len(s)
		if len(f.args) == 3 {
			end = start + int(math.Round(argN(2)))
		}
		if start < 0 {
			start = 0
		}
		if end > len(s) {
			end = len(s)
		}
		if start >= end {
			return String(""), nil
		}
		return String(string(s[start:end])), nil
	case "string-length":
		if len(f.args) == 0 {
			return Number(len([]rune(StringValue(c.view, c.node)))), nil
		}
		return Number(len([]rune(argS(0)))), nil
	case "normalize-space":
		s := ""
		if len(f.args) == 0 {
			s = StringValue(c.view, c.node)
		} else {
			s = argS(0)
		}
		return String(strings.Join(strings.Fields(s), " ")), nil
	case "name", "local-name":
		n := c.node
		if len(f.args) == 1 {
			ns, ok := argVals[0].(NodeSet)
			if !ok {
				return nil, fmt.Errorf("%s() needs a node-set", f.name)
			}
			if len(ns) == 0 {
				return String(""), nil
			}
			n = ns[0]
		}
		return String(nodeName(c.view, n)), nil
	case "sum":
		if err := arity(f, 1); err != nil {
			return nil, err
		}
		ns, ok := argVals[0].(NodeSet)
		if !ok {
			return nil, fmt.Errorf("sum() needs a node-set")
		}
		total := 0.0
		for _, n := range ns {
			total += parseNumber(StringValue(c.view, n))
		}
		return Number(total), nil
	case "translate":
		if err := arity(f, 3); err != nil {
			return nil, err
		}
		return String(translate(argS(0), argS(1), argS(2))), nil
	case "floor":
		if err := arity(f, 1); err != nil {
			return nil, err
		}
		return Number(math.Floor(argN(0))), nil
	case "ceiling":
		if err := arity(f, 1); err != nil {
			return nil, err
		}
		return Number(math.Ceil(argN(0))), nil
	case "round":
		if err := arity(f, 1); err != nil {
			return nil, err
		}
		return Number(math.Round(argN(0))), nil
	}
	return nil, fmt.Errorf("unknown function %s()", f.name)
}

func arity(f *funcCall, n int) error {
	if len(f.args) != n {
		return fmt.Errorf("%s() takes %d argument(s), got %d", f.name, n, len(f.args))
	}
	return nil
}

// translate implements the XPath translate() function: characters of s
// found in from are replaced by the corresponding character of to, or
// dropped if to is shorter.
func translate(s, from, to string) string {
	fromR := []rune(from)
	toR := []rune(to)
	m := make(map[rune]rune, len(fromR))
	drop := make(map[rune]bool)
	for i, r := range fromR {
		if _, seen := m[r]; seen || drop[r] {
			continue // first occurrence wins
		}
		if i < len(toR) {
			m[r] = toR[i]
		} else {
			drop[r] = true
		}
	}
	var b strings.Builder
	for _, r := range s {
		if drop[r] {
			continue
		}
		if repl, ok := m[r]; ok {
			b.WriteRune(repl)
			continue
		}
		b.WriteRune(r)
	}
	return b.String()
}

func nodeName(v xenc.DocView, n Node) string {
	if n.Pre == DocNodePre {
		return ""
	}
	if n.Attr != NoAttr {
		attrs := v.Attrs(n.Pre)
		if int(n.Attr) < len(attrs) {
			return v.Names().Name(attrs[n.Attr].Name)
		}
		return ""
	}
	switch v.Kind(n.Pre) {
	case xenc.KindElem, xenc.KindPI:
		return v.Names().Name(v.Name(n.Pre))
	}
	return ""
}
