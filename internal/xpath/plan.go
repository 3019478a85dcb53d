package xpath

// The sequence-at-a-time plan runtime.
//
// A pathPlan pipes a whole context sequence through one operator per
// location step. Tree-node contexts flow as ascending pre sequences
// through the staircase join (staircase.EvalAxis), which applies the
// paper's context pruning — a context node whose region was already
// scanned is skipped, so no tuple is inspected twice — and returns
// results already in document order, eliminating the per-step
// sort/dedupe a loop over context nodes needs. The virtual document node
// — the first context of every absolute path — is a plan operand too: its
// step runs through the staircase from the root element (fromDocNode),
// and the result flows on as pre ranks. Steps whose predicates number
// against each context node's own candidates (last(), positions on
// reverse axes, a dyn predicate that turned numeric) and attribute-node
// contexts (rare mid-path) run through the numbering operator
// (applyPerNode), which drives the same sequence operators one context
// node at a time and merges the results back in document order.

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"strings"

	"mxq/internal/staircase"
	"mxq/internal/xenc"
)

// errNumericPred signals that a dynamically typed (untypable at compile
// time, e.g. a bare variable) predicate evaluated to a number at
// runtime. Numeric predicates select by per-context position, which the
// merged sequence cannot number; planStep.apply catches the sentinel and
// reruns the step through the numbering operator. It never escapes the
// plan runtime.
var errNumericPred = errors.New("xpath: dynamic predicate is numeric")

// stepKind is the execution strategy of one compiled step.
type stepKind int

const (
	// opSeq evaluates the whole context sequence through one staircase
	// operator; sequence-safe predicates filter the merged result.
	opSeq stepKind = iota
	// opFusedPos is opSeq with a leading positional predicate fused into
	// the scan: each context node's scan stops at its pos-th match.
	opFusedPos
	// opPerNode numbers the predicates against each context node's own
	// candidates (positional predicates on reverse axes, last(),
	// numerically typed predicates): see applyPerNode.
	opPerNode
)

// planStep is one compiled location step.
type planStep struct {
	st       step // axis, node test, and the original predicate list
	kind     stepKind
	pos      int    // the fused positional predicate (kind == opFusedPos)
	seqPreds []expr // position-free predicates applied over the sequence
	fused    bool   // collapsed from descendant-or-self::node()/...
	dyn      bool   // some seqPred is untypable: numeric fallback may fire
}

// pathPlan is the compiled pipeline for one location path.
type pathPlan struct {
	steps []planStep
}

// seqCtx is the inter-step context representation. Pure tree-node
// sequences — every context after the first step of almost every query —
// travel as raw pre ranks between sequence steps, so consecutive
// staircase operators chain without wrapping each node into a NodeSet
// and unwrapping it again; the NodeSet form appears only when the
// document node or attribute nodes are in play, or the numbering
// operator runs.
type seqCtx struct {
	pure  bool
	pres  []xenc.Pre // valid when pure
	nodes NodeSet    // valid when !pure
}

func (sc seqCtx) empty() bool {
	if sc.pure {
		return len(sc.pres) == 0
	}
	return len(sc.nodes) == 0
}

func (sc seqCtx) nodeSet() NodeSet {
	if !sc.pure {
		return sc.nodes
	}
	out := make(NodeSet, len(sc.pres))
	for i, p := range sc.pres {
		out[i] = ElemNode(p)
	}
	return out
}

// run pipes the context sequence through every step.
func (pl *pathPlan) run(c *context, ctx NodeSet) (NodeSet, error) {
	if !nodesOrdered(ctx) {
		// Initial contexts normally arrive sorted; a variable bound to an
		// unordered node-set is the exception, and the staircase contract
		// requires ascending duplicate-free input.
		ctx = sortDedupe(append(NodeSet{}, ctx...))
	}
	sc := seqCtx{nodes: ctx}
	var err error
	for i := range pl.steps {
		sc, err = pl.steps[i].apply(c, sc)
		if err != nil {
			return nil, err
		}
		if sc.empty() {
			return NodeSet{}, nil
		}
	}
	return sc.nodeSet(), nil
}

// apply evaluates one compiled step over the whole context sequence.
func (ps *planStep) apply(c *context, sc seqCtx) (seqCtx, error) {
	if ps.kind != opPerNode {
		out, err := ps.applySeq(c, sc)
		if err != errNumericPred {
			return out, err
		}
		// A dyn predicate turned out numeric at runtime: numeric
		// predicates select by per-context position, so the whole step
		// reruns through the operator that numbers per context.
	}
	return ps.applyPerNode(c, sc.nodeSet())
}

// applyPerNode is the numbering operator: for each context node it runs
// the bare step (axis and node test, no predicates) through the sequence
// operators on a one-node context, puts the candidates in axis order,
// numbers the step's predicates against that list — which is what gives
// position() and last() their XPath semantics — and merges the
// per-context results in document order. It makes one scan per context
// node, so no pruning applies.
func (ps *planStep) applyPerNode(c *context, ctx NodeSet) (seqCtx, error) {
	bare := ps.onAxis(ps.st.axis)
	// Candidates arrive in document order; a reverse axis numbers from
	// the other end, which only a predicate can observe.
	reversed := ps.st.axis.Reverse() && len(ps.st.preds) > 0
	var out NodeSet
	for _, n := range ctx {
		cands, err := bare.fromNode(c, n)
		if err != nil {
			return seqCtx{}, err
		}
		if cands.pure {
			pres := cands.pres
			if reversed {
				slices.Reverse(pres)
			}
			if pres, err = filterSeq(c, pres, ElemNode, ps.st.preds, false); err != nil {
				return seqCtx{}, err
			}
			for _, p := range pres {
				out = append(out, ElemNode(p))
			}
			continue
		}
		nodes := cands.nodes
		if reversed {
			slices.Reverse(nodes)
		}
		if nodes, err = filterSeq(c, nodes, sameNode, ps.st.preds, false); err != nil {
			return seqCtx{}, err
		}
		out = append(out, nodes...)
	}
	if len(ctx) > 1 || reversed {
		out = sortDedupe(out)
	}
	return seqCtx{nodes: out}, nil
}

// onAxis is the bare step of ps — its node test, no predicates — on
// another axis.
func (ps *planStep) onAxis(ax Axis) *planStep {
	return &planStep{st: step{axis: ax, tk: ps.st.tk, name: ps.st.name}}
}

// fromNode runs a bare step from one context node, in document order.
// Tree nodes and the document node go through treeSeq and attrSeq; what
// this adds is the axes from an attribute node: self is the attribute
// itself under node(), parent and ancestor(-or-self) continue from the
// owning element, and every other axis is empty.
func (ps *planStep) fromNode(c *context, n Node) (seqCtx, error) {
	ax := ps.st.axis
	if n.Attr != NoAttr {
		switch ax {
		case AxisSelf:
			if ps.st.tk == testNode {
				return seqCtx{nodes: NodeSet{n}}, nil
			}
		case AxisParent:
			return ps.onAxis(AxisSelf).treeSeq(c, []xenc.Pre{n.Pre}, false)
		case AxisAncestor, AxisAncestorOrSelf:
			up, err := ps.onAxis(AxisAncestorOrSelf).treeSeq(c, []xenc.Pre{n.Pre}, false)
			if err == nil && ax == AxisAncestorOrSelf && ps.st.tk == testNode {
				up = seqCtx{nodes: append(up.nodeSet(), n)}
			}
			return up, err
		}
		return seqCtx{}, nil
	}
	doc := n.Pre == DocNodePre
	if ax == AxisAttribute {
		if doc { // the document node has no attributes
			return seqCtx{}, nil
		}
		ns, err := ps.attrSeq(c, []xenc.Pre{n.Pre})
		return seqCtx{nodes: ns}, err
	}
	if doc {
		return ps.treeSeq(c, nil, true)
	}
	return ps.treeSeq(c, []xenc.Pre{n.Pre}, false)
}

// applySeq is the sequence-level strategy of apply; it reports
// errNumericPred when a dyn predicate must be renumbered per context.
func (ps *planStep) applySeq(c *context, sc seqCtx) (seqCtx, error) {
	pres := sc.pres
	var attrs NodeSet
	doc := false
	if !sc.pure {
		pres, attrs, doc = splitContext(sc.nodes)
	}
	out := seqCtx{pure: true}
	var err error
	switch {
	case ps.st.axis == AxisAttribute:
		if len(pres) > 0 { // the document node has no attributes
			var ns NodeSet
			ns, err = ps.attrSeq(c, pres)
			out = seqCtx{nodes: ns}
		}
	case len(pres) > 0 || doc:
		out, err = ps.treeSeq(c, pres, doc)
	}
	if err != nil {
		return seqCtx{}, err
	}
	if len(attrs) > 0 {
		// Attribute-node contexts go through the numbering operator (each
		// is a singleton scan; no overlap to prune).
		sp, err := ps.applyPerNode(c, attrs)
		if err != nil {
			return seqCtx{}, err
		}
		out = seqCtx{nodes: mergeNodes(out.nodeSet(), sp.nodes)}
	}
	return out, nil
}

// treeSeq runs a tree axis over an ascending pre sequence, plus the
// document node when doc is set. The result stays in the pure pre
// representation unless the virtual document node joins it (parent and
// ancestor axes under a node() test; self and descendant-or-self from
// the document node itself).
func (ps *planStep) treeSeq(c *context, pres []xenc.Pre, doc bool) (seqCtx, error) {
	v := c.view
	test := treeTest(v, &ps.st)
	var cands []xenc.Pre
	if len(pres) > 0 {
		cands = ps.axisSeq(v, pres, ps.st.axis, test, ps.pos)
	}
	withDoc := false
	if doc {
		// The step from the document node: itself where the step selects
		// it — the first candidate in document order, so a fused position
		// counts it first — and the tree nodes the root element yields.
		k := ps.pos
		if ps.st.selectsDocNode() {
			withDoc = ps.kind != opFusedPos || k == 1
			k--
		}
		if ax, ok := fromDocNode(ps.st.axis); ok && (ps.kind != opFusedPos || k >= 1) {
			cands = mergePres(ps.axisSeq(v, []xenc.Pre{v.Root()}, ax, test, k), cands)
		}
	}
	// The document node is an ancestor of every tree node.
	if ps.st.tk == testNode && len(pres) > 0 {
		switch ps.st.axis {
		case AxisParent:
			withDoc = hasRootContext(v, pres)
		case AxisAncestor, AxisAncestorOrSelf:
			withDoc = true
		}
	}
	if !withDoc {
		cands, err := filterSeq(c, cands, ElemNode, ps.seqPreds, ps.dyn)
		return seqCtx{pure: true, pres: cands}, err
	}
	out := make(NodeSet, 0, len(cands)+1)
	out = append(out, DocNode())
	for _, p := range cands {
		out = append(out, ElemNode(p))
	}
	out, err := filterSeq(c, out, sameNode, ps.seqPreds, ps.dyn)
	return seqCtx{nodes: out}, err
}

// axisSeq evaluates one axis over an ascending pre sequence the way the
// step's kind says: the whole axis, or each context node's k-th match.
func (ps *planStep) axisSeq(v xenc.DocView, pres []xenc.Pre, ax Axis, t staircase.Test, k int) []xenc.Pre {
	if ps.kind == opFusedPos {
		return fusedPosScan(v, pres, ax, t, k)
	}
	return staircase.EvalAxis(v, pres, staircase.Axis(ax), t)
}

// filterSeq filters a sequence — pre ranks or nodes, node says which —
// in place by each predicate in turn: a predicate sees the elements the
// previous one kept, numbered in the order seq holds them, and a numeric
// value selects by that position. dyn marks predicates whose type only
// runtime knows, applied over a merged sequence: a numeric value makes
// one positional per context, which the merged sequence cannot honor, so
// the step starts over via errNumericPred.
func filterSeq[T xenc.Pre | Node](c *context, seq []T, node func(T) Node, preds []expr, dyn bool) ([]T, error) {
	for _, pred := range preds {
		sub := context{view: c.view, vars: c.vars, size: len(seq)}
		w := 0
		for i, x := range seq {
			sub.node = node(x)
			sub.pos = i + 1
			val, err := pred.eval(&sub)
			if err != nil {
				return nil, err
			}
			keep := false
			if num, isNum := val.(Number); !isNum {
				keep = BoolOf(val)
			} else if dyn {
				return nil, errNumericPred
			} else {
				keep = float64(num) == float64(i+1)
			}
			if keep {
				seq[w] = x
				w++
			}
		}
		seq = seq[:w]
	}
	return seq, nil
}

// sameNode is filterSeq's node func over a NodeSet.
func sameNode(n Node) Node { return n }

// attrSeq runs the attribute axis over an ascending element sequence.
// Distinct elements own distinct attributes, so the output is already in
// document order — no sort, no dedupe.
func (ps *planStep) attrSeq(c *context, pres []xenc.Pre) (NodeSet, error) {
	v := c.view
	test := resolveAttrTest(v, &ps.st)
	var out NodeSet
	for _, p := range pres {
		if v.Kind(p) != xenc.KindElem {
			continue
		}
		attrs := v.Attrs(p)
		count := 0
		for i := range attrs {
			if !test.matches(attrs[i].Name) {
				continue
			}
			count++
			if ps.kind == opFusedPos {
				if count == ps.pos {
					out = append(out, Node{Pre: p, Attr: int32(i)})
					break
				}
				continue
			}
			out = append(out, Node{Pre: p, Attr: int32(i)})
		}
	}
	return filterSeq(c, out, sameNode, ps.seqPreds, ps.dyn)
}

// fusedPosScan evaluates axis::test[k] with the positional predicate
// fused into the scan: every context node enumerates its axis in
// document order, counts matches, keeps its k-th and stops there
// (staircase.Nth, which on the child axis passes whole pages by count).
// No context pruning applies (each context node numbers its own
// candidates), but the early exit bounds each scan by k matches.
func fusedPosScan(v xenc.DocView, ctx []xenc.Pre, ax Axis, t staircase.Test, k int) []xenc.Pre {
	var out []xenc.Pre
	sorted := true
	last := xenc.Pre(-1)
	for _, c := range ctx {
		p := staircase.Nth(v, c, staircase.Axis(ax), t, k)
		if p == xenc.NoPre {
			continue
		}
		if p <= last {
			sorted = false
		}
		last = p
		out = append(out, p)
	}
	if !sorted {
		out = sortDedupePres(out)
	}
	return out
}

// splitContext separates tree nodes (which flow through the staircase
// operators as pre ranks) from attribute nodes (which the numbering
// operator takes), and reports whether the document node is among the
// context.
// The all-tree case — every context after the first step of almost
// every query — allocates exactly once.
func splitContext(ctx NodeSet) (pres []xenc.Pre, attrs NodeSet, doc bool) {
	allTree := true
	for _, n := range ctx {
		if n.Attr != NoAttr || n.Pre == DocNodePre {
			allTree = false
			break
		}
	}
	if allTree {
		pres = make([]xenc.Pre, len(ctx))
		for i, n := range ctx {
			pres[i] = n.Pre
		}
		return pres, nil, false
	}
	for _, n := range ctx {
		switch {
		case n.Attr != NoAttr:
			attrs = append(attrs, n)
		case n.Pre == DocNodePre:
			doc = true
		default:
			pres = append(pres, n.Pre)
		}
	}
	return pres, attrs, doc
}

// mergePres merges two ascending duplicate-free pre sequences into one.
// The document node's results and the tree contexts' mostly do not
// interleave (the root element against its descendants' children).
func mergePres(a, b []xenc.Pre) []xenc.Pre {
	if len(a) == 0 {
		return b
	}
	if len(b) == 0 {
		return a
	}
	out := append(a, b...)
	if a[len(a)-1] >= b[0] {
		out = sortDedupePres(out)
	}
	return out
}

// sortDedupePres restores the operator contract — ascending, duplicate
// free — on a pre sequence, in place.
func sortDedupePres(s []xenc.Pre) []xenc.Pre {
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	w := 0
	for i, p := range s {
		if i == 0 || p != s[w-1] {
			s[w] = p
			w++
		}
	}
	return s[:w]
}

// hasRootContext reports whether any context node is at level 0 (whose
// parent is the virtual document node).
func hasRootContext(v xenc.DocView, pres []xenc.Pre) bool {
	for _, p := range pres {
		if v.Level(p) == 0 {
			return true
		}
	}
	return false
}

// mergeNodes merges two document-ordered node sets.
func mergeNodes(a, b NodeSet) NodeSet {
	if len(a) == 0 {
		return b
	}
	if len(b) == 0 {
		return a
	}
	return sortDedupe(append(a, b...))
}

// nodesOrdered reports whether ns is strictly ascending in document
// order (the staircase input contract).
func nodesOrdered(ns NodeSet) bool {
	for i := 1; i < len(ns); i++ {
		if !ns[i-1].Before(ns[i]) {
			return false
		}
	}
	return true
}

// --- explain ---------------------------------------------------------------

// Explain renders the compiled evaluation plan: one line per location
// step showing the operator the step lowers to — a sequence-level
// staircase scan (seq), a scan with a fused early-exit positional
// counter (seq pos=n), or the numbering operator, which scans once per
// context node (per-node) — plus the count of predicates applied over
// the sequence. A filter expression lists its predicates, one line
// each. Paths nested in predicates and function arguments are rendered
// indented below their parent.
func (e *Expr) Explain() string {
	var b strings.Builder
	fmt.Fprintf(&b, "query: %s\n", e.root)
	explainExpr(&b, e.root, 0)
	return b.String()
}

func (ps *planStep) mode() string {
	switch ps.kind {
	case opSeq:
		s := "seq"
		if ps.fused {
			s += " (fused //)"
		}
		if len(ps.seqPreds) > 0 {
			s += fmt.Sprintf(", %d seq filter(s)", len(ps.seqPreds))
		}
		if ps.dyn {
			s += " (dyn: numeric falls back per-node)"
		}
		return s
	case opFusedPos:
		s := fmt.Sprintf("seq, early-exit pos=%d", ps.pos)
		if ps.fused {
			s += " (fused //)"
		}
		if len(ps.seqPreds) > 0 {
			s += fmt.Sprintf(", %d seq filter(s)", len(ps.seqPreds))
		}
		return s
	default:
		return "per-node"
	}
}

func explainExpr(b *strings.Builder, e expr, depth int) {
	indent := strings.Repeat("  ", depth)
	switch x := e.(type) {
	case *pathExpr:
		if x.start != nil {
			fmt.Fprintf(b, "%sstart: %s\n", indent, x.start)
			explainExpr(b, x.start, depth+1)
		}
		for i := range x.plan.steps {
			ps := &x.plan.steps[i]
			fmt.Fprintf(b, "%sstep %d: %-36s %s\n", indent, i+1, ps.st.String(), ps.mode())
			for _, pr := range ps.st.preds {
				explainExpr(b, pr, depth+1)
			}
		}
	case *filterExpr:
		explainExpr(b, x.base, depth)
		for _, p := range x.preds {
			fmt.Fprintf(b, "%sfilter [%s]\n", indent, p)
			explainExpr(b, p, depth+1)
		}
	case *binaryExpr:
		explainExpr(b, x.l, depth)
		explainExpr(b, x.r, depth)
	case *negExpr:
		explainExpr(b, x.e, depth)
	case *unionExpr:
		explainExpr(b, x.l, depth)
		explainExpr(b, x.r, depth)
	case *funcCall:
		for _, a := range x.args {
			explainExpr(b, a, depth)
		}
	}
}
