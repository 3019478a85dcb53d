package xpath

// The differential oracle: a node-at-a-time XPath interpreter that shares
// nothing with the plan runtime but the AST, the node tests and the
// staircase joins it calls on one-node contexts. reference rewrites a
// compiled expression so that every location path and filter expression
// evaluates through it; the plan is held to its answers by
// TestPlanMatchesPerNode and FuzzXPathEval.

import (
	"fmt"

	"mxq/internal/staircase"
	"mxq/internal/xenc"
)

// reference returns a deep copy of e in which every location path and
// filter expression walks the tree one context node at a time
// (applyStep, filterNodes, axisCandidates) instead of running its plan.
func reference(e *Expr) *Expr {
	return &Expr{root: refExpr(e.root), src: e.src}
}

func refExprs(es []expr) []expr {
	out := make([]expr, len(es))
	for i, e := range es {
		out[i] = refExpr(e)
	}
	return out
}

func refExpr(e expr) expr {
	switch x := e.(type) {
	case *pathExpr:
		p := &pathExpr{absolute: x.absolute, steps: make([]step, len(x.steps))}
		if x.start != nil {
			p.start = refExpr(x.start)
		}
		for i, st := range x.steps {
			st.preds = refExprs(st.preds)
			p.steps[i] = st
		}
		return refPath{p}
	case *filterExpr:
		return refFilter{&filterExpr{base: refExpr(x.base), preds: refExprs(x.preds)}}
	case *binaryExpr:
		return &binaryExpr{op: x.op, l: refExpr(x.l), r: refExpr(x.r)}
	case *negExpr:
		return &negExpr{e: refExpr(x.e)}
	case *unionExpr:
		return &unionExpr{l: refExpr(x.l), r: refExpr(x.r)}
	case *funcCall:
		return &funcCall{name: x.name, args: refExprs(x.args)}
	}
	return e // literals and variable references hold no subexpression
}

// refPath is a location path (its plan left nil) evaluated step by step,
// node at a time.
type refPath struct{ *pathExpr }

func (p refPath) eval(c *context) (Value, error) {
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

// refFilter is a filter expression whose predicates each build a new
// sequence, so a borrowed base is never written.
type refFilter struct{ *filterExpr }

func (f refFilter) eval(c *context) (Value, error) {
	base, err := f.base.eval(c)
	if err != nil {
		return nil, err
	}
	ns, ok := base.(NodeSet)
	if !ok {
		return nil, fmt.Errorf("predicate applied to a %T", base)
	}
	for _, pred := range f.preds {
		if ns, err = filterNodes(c, ns, pred, false); err != nil {
			return nil, err
		}
	}
	return ns, nil
}

// applyStep evaluates one location step node-at-a-time. Predicates are
// applied per context node over the axis-ordered candidate list, which
// is what gives position() its XPath semantics; the per-node results are
// then merged into document order.
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
			for _, p := range staircase.EvalAxis(v, []xenc.Pre{v.Root()}, staircase.Axis(ax), treeTest(v, st)) {
				out = append(out, ElemNode(p))
			}
		}
		return out
	}

	// Regular tree axes via staircase join (the same dispatcher the
	// sequence pipeline uses, on a singleton context).
	test := treeTest(v, st)
	pres := staircase.EvalAxis(v, []xenc.Pre{n.Pre}, staircase.Axis(st.axis), test)
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
