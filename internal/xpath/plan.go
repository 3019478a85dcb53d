package xpath

// The sequence-at-a-time plan runtime.
//
// A pathPlan pipes a whole context sequence through one operator per
// location step. Tree-node contexts flow as ascending pre sequences
// through the staircase join (staircase.EvalAxis), which applies the
// paper's context pruning — a context node whose region was already
// scanned is skipped, so no tuple is inspected twice — and returns
// results already in document order, eliminating the per-step
// sort/dedupe of the node-at-a-time path. The virtual document node —
// the first context of every absolute path — is a plan operand too: its
// step runs through the staircase from the root element (fromDocNode),
// and the result flows on as pre ranks. Only attribute-node contexts
// (rare mid-path) are split off and routed through the per-node
// evaluator, then merged back in document order.

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync/atomic"

	"mxq/internal/staircase"
	"mxq/internal/xenc"
)

// errNumericPred signals that a dynamically typed (untypable at compile
// time, e.g. a bare variable) predicate evaluated to a number at
// runtime. Numeric predicates select by per-context position, which the
// merged sequence cannot number; planStep.apply catches the sentinel and
// reruns the step node-at-a-time. It never escapes the plan runtime.
var errNumericPred = errors.New("xpath: dynamic predicate is numeric")

// planEnabled gates the compiled pipeline globally. It exists so the
// differential fuzzer and the old-vs-new pipeline benchmarks can compare
// the two evaluation strategies on identical expressions; production
// code never turns it off.
var planEnabled atomic.Bool

func init() { planEnabled.Store(true) }

// SetPlanEnabled toggles the sequence-at-a-time pipeline and returns
// the previous setting (a testing/benchmarking hook; evaluation falls
// back to the node-at-a-time interpreter when disabled).
func SetPlanEnabled(on bool) bool { return planEnabled.Swap(on) }

// stepKind is the execution strategy of one compiled step.
type stepKind int

const (
	// opSeq evaluates the whole context sequence through one staircase
	// operator; sequence-safe predicates filter the merged result.
	opSeq stepKind = iota
	// opFusedPos is opSeq with a leading positional predicate fused into
	// the scan: each context node's scan stops at its pos-th match.
	opFusedPos
	// opPerNode keeps the node-at-a-time path (positional predicates on
	// reverse axes, last(), statically untypable predicates).
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
// document node or attribute nodes are in play, or a per-node step runs.
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
	if ps.kind == opPerNode {
		ns, err := applyStep(c, sc.nodeSet(), &ps.st)
		return seqCtx{nodes: ns}, err
	}
	out, err := ps.applySeq(c, sc)
	if err == errNumericPred {
		// A dyn predicate turned out numeric at runtime: numeric
		// predicates select by per-context position, so rerun the whole
		// step node-at-a-time, whose numbering defines those semantics.
		ns, perr := applyStep(c, sc.nodeSet(), &ps.st)
		return seqCtx{nodes: ns}, perr
	}
	return out, err
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
		// Attribute nodes go through the per-node evaluator (each is a
		// singleton scan; no overlap to prune).
		sp, err := applyStep(c, attrs, &ps.st)
		if err != nil {
			return seqCtx{}, err
		}
		out = seqCtx{nodes: mergeNodes(out.nodeSet(), sp)}
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
		var err error
		for _, pred := range ps.seqPreds {
			if cands, err = filterPres(c, cands, pred, ps.dyn); err != nil {
				return seqCtx{}, err
			}
		}
		return seqCtx{pure: true, pres: cands}, nil
	}
	out := make(NodeSet, 0, len(cands)+1)
	out = append(out, DocNode())
	for _, p := range cands {
		out = append(out, ElemNode(p))
	}
	out, err := ps.filterSeqPreds(c, out)
	return seqCtx{nodes: out}, err
}

// axisSeq evaluates one axis over an ascending pre sequence the way the
// step's kind says: the whole axis, or each context node's k-th match.
func (ps *planStep) axisSeq(v xenc.DocView, pres []xenc.Pre, ax Axis, t staircase.Test, k int) []xenc.Pre {
	if ps.kind == opFusedPos {
		return fusedPosScan(v, pres, ax, t, k)
	}
	return staircase.EvalAxis(v, pres, seqAxis(ax), t)
}

// filterPres is filterSeqPreds over the pure pre representation: one
// sequence-safe predicate, filtered in place with a reusable scratch
// context. dyn marks a predicate whose type only runtime knows: a
// numeric value makes it positional, which the merged sequence cannot
// honor, so the step falls back via errNumericPred.
func filterPres(c *context, pres []xenc.Pre, pred expr, dyn bool) ([]xenc.Pre, error) {
	sub := context{view: c.view, vars: c.vars, size: len(pres)}
	w := 0
	for i, p := range pres {
		sub.node = ElemNode(p)
		sub.pos = i + 1
		val, err := pred.eval(&sub)
		if err != nil {
			return nil, err
		}
		if dyn {
			if _, isNum := val.(Number); isNum {
				return nil, errNumericPred
			}
		}
		if BoolOf(val) {
			pres[w] = p
			w++
		}
	}
	return pres[:w], nil
}

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
	return ps.filterSeqPreds(c, out)
}

// filterSeqPreds applies the sequence-safe predicates, filtering in
// place with one reusable scratch context. Compilation guarantees the
// predicates never consult position() or last() and never evaluate to a
// number, so every node's verdict is independent of the numbering the
// per-node path would have assigned.
func (ps *planStep) filterSeqPreds(c *context, ns NodeSet) (NodeSet, error) {
	for _, pred := range ps.seqPreds {
		sub := context{view: c.view, vars: c.vars, size: len(ns)}
		w := 0
		for i, n := range ns {
			sub.node = n
			sub.pos = i + 1
			val, err := pred.eval(&sub)
			if err != nil {
				return nil, err
			}
			if ps.dyn {
				if _, isNum := val.(Number); isNum {
					return nil, errNumericPred
				}
			}
			if BoolOf(val) {
				ns[w] = n
				w++
			}
		}
		ns = ns[:w]
	}
	return ns, nil
}

// fusedPosScan evaluates axis::test[k] with the positional predicate
// fused into the scan: every context node enumerates its axis in
// document order, counts matches, keeps its k-th and stops there. No
// context pruning applies (each context node numbers its own
// candidates), but the early exit bounds each scan by k matches.
func fusedPosScan(v xenc.DocView, ctx []xenc.Pre, ax Axis, t staircase.Test, k int) []xenc.Pre {
	var out []xenc.Pre
	sorted := true
	last := xenc.Pre(-1)
	for _, c := range ctx {
		count := 0
		staircase.Scan(v, c, seqAxis(ax), t, func(p xenc.Pre) bool {
			count++
			if count < k {
				return true
			}
			if p <= last {
				sorted = false
			}
			last = p
			out = append(out, p)
			return false
		})
	}
	if !sorted {
		out = sortDedupePres(out)
	}
	return out
}

// seqAxis maps an XPath tree axis to its staircase operator.
func seqAxis(a Axis) staircase.Axis {
	switch a {
	case AxisSelf:
		return staircase.AxisSelf
	case AxisChild:
		return staircase.AxisChild
	case AxisDescendant:
		return staircase.AxisDescendant
	case AxisDescendantOrSelf:
		return staircase.AxisDescendantOrSelf
	case AxisParent:
		return staircase.AxisParent
	case AxisAncestor:
		return staircase.AxisAncestor
	case AxisAncestorOrSelf:
		return staircase.AxisAncestorOrSelf
	case AxisFollowing:
		return staircase.AxisFollowing
	case AxisFollowingSibling:
		return staircase.AxisFollowingSibling
	case AxisPreceding:
		return staircase.AxisPreceding
	case AxisPrecedingSibling:
		return staircase.AxisPrecedingSibling
	}
	panic(fmt.Sprintf("xpath: no staircase operator for axis %v", a))
}

// splitContext separates tree nodes (which flow through the staircase
// operators as pre ranks) from attribute nodes (which keep the per-node
// path), and reports whether the document node is among the context.
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
// counter (seq pos=n), or the node-at-a-time fallback (per-node) — plus
// the count of predicates applied over the sequence. Paths nested in
// predicates and function arguments are rendered indented below their
// parent.
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
		for i, p := range x.preds {
			mode := "per-node (positional)"
			if i < len(x.seq) && x.seq[i] {
				mode = "seq (in-place)"
			}
			fmt.Fprintf(b, "%sfilter [%s]: %s\n", indent, p, mode)
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
