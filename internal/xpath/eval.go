// Package xpath compiles and evaluates the XPath 1.0 subset that
// MonetDB/XQuery's update language and the XMark workload need: all
// twelve axes (evaluated by staircase join on the pre/size/level
// encoding), name and kind tests, positional and boolean predicates,
// arithmetic, comparisons with node-set existential semantics, variables
// ($x), and the core function library.
//
// Parse compiles every location path into a plan of sequence operators
// (compile.go, plan.go), and that plan is the only evaluator: this file
// evaluates the expressions around the paths — operators, filters,
// functions — and resolves node tests for the plan's operators.
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
	// A filter's predicates number against the whole base sequence, which
	// is exactly the order ns holds, so they filter it in place; a
	// borrowed base (a variable binding) is copied first.
	if !f.ownedBase {
		ns = append(NodeSet{}, ns...)
	}
	if ns, err = filterSeq(c, ns, sameNode, f.preds, false); err != nil {
		return nil, err
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
	return p.plan.run(c, ctx)
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
		// A character at position p (from 1) is kept when
		// round(start) <= p < round(start) + round(length), compared as
		// numbers: NaN keeps nothing, an infinite length everything.
		s := []rune(argS(0))
		from, to := round(argN(1)), math.Inf(1)
		if len(f.args) == 3 {
			to = from + round(argN(2))
		}
		lo, hi := 0, 0
		for i := range s {
			if p := float64(i + 1); p >= from && p < to {
				if hi == 0 {
					lo = i
				}
				hi = i + 1
			}
		}
		return String(string(s[lo:hi])), nil
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
		return Number(round(argN(0))), nil
	}
	return nil, fmt.Errorf("unknown function %s()", f.name)
}

// round is XPath 1.0's round(): the integer closest to x, and of two
// equally close the one closer to positive infinity; NaN, the infinities
// and both zeros are returned as they are, and a result of zero keeps a
// negative argument's sign.
func round(x float64) float64 {
	r := math.Floor(x)
	if x-r >= 0.5 {
		r++
	}
	if r == 0 && x < 0 {
		return math.Copysign(0, -1)
	}
	return r
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
