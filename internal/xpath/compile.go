package xpath

// Compilation of location paths into sequence-at-a-time plans.
//
// Parse produces the AST; compilePlans then lowers every pathExpr into a
// pathPlan — a pipeline of step operators that evaluate a whole context
// sequence per step through the staircase join instead of looping over
// context nodes (see "XQuery Join Graph Isolation": paths become small
// relational plans over the pre/size/level columns, not interpreted tree
// walks). The lowering classifies each step's predicates:
//
//   - a leading integral positional predicate ([1], [n], [position()=n])
//     on a forward axis is fused into the axis scan as an early-exit
//     counter (opFusedPos) — the scan for a context node stops at its
//     n-th match instead of materializing the full axis;
//   - predicates that never consult position() or last() and cannot
//     evaluate to a number are applied over the merged result sequence
//     with one reusable scratch context (seqPreds);
//   - everything else (last(), position() on reverse axes, numerically
//     typed predicates) runs through the numbering operator (opPerNode,
//     planStep.applyPerNode), which numbers the predicates against each
//     context node's own candidates.
//
// The lowering also rewrites the descendant shorthand: a bare
// descendant-or-self::node() step followed by a child (or descendant)
// step with only sequence-safe predicates collapses into a single
// descendant step, so //x runs as one pruned staircase scan rather than
// materializing every node in the document first. The rewrite is
// skipped when the following step carries positional predicates, whose
// numbering depends on the uncollapsed context set.

// compilePlans walks the AST and attaches a plan to every location
// path, including paths nested inside predicates, function arguments
// and filter expressions (their contexts are sequences too).
func compilePlans(e expr) {
	switch x := e.(type) {
	case *pathExpr:
		if x.start != nil {
			compilePlans(x.start)
		}
		for i := range x.steps {
			for _, pr := range x.steps[i].preds {
				compilePlans(pr)
			}
		}
		x.plan = compilePath(x)
	case *filterExpr:
		compilePlans(x.base)
		for _, p := range x.preds {
			compilePlans(p)
		}
		x.ownedBase = ownedNodeSetBase(x.base)
	case *binaryExpr:
		compilePlans(x.l)
		compilePlans(x.r)
	case *negExpr:
		compilePlans(x.e)
	case *unionExpr:
		compilePlans(x.l)
		compilePlans(x.r)
	case *funcCall:
		for _, a := range x.args {
			compilePlans(a)
		}
	}
}

// compilePath lowers one location path into a plan.
func compilePath(p *pathExpr) *pathPlan {
	pl := &pathPlan{}
	steps := p.steps
	for i := 0; i < len(steps); i++ {
		st := &steps[i]
		if ax, ok := fuseDescendant(st, steps, i); ok {
			next := steps[i+1]
			fused := classifyStep(step{axis: ax, tk: next.tk, name: next.name, preds: next.preds})
			fused.fused = true
			pl.steps = append(pl.steps, fused)
			i++ // the rewrite consumed the following step too
			continue
		}
		pl.steps = append(pl.steps, classifyStep(*st))
	}
	return pl
}

// fuseDescendant reports whether steps[i] is a bare
// descendant-or-self::node() that can collapse with steps[i+1], and the
// axis of the fused step:
//
//	d-o-s::node()/child::X       ≡ descendant::X
//	d-o-s::node()/descendant::X  ≡ descendant::X
//	d-o-s::node()/d-o-s::X       ≡ descendant-or-self::X
//
// The equivalences hold only for position-free predicates on the second
// step (collapsing changes the context set each candidate is numbered
// against), so the second step must classify as a pure sequence step.
func fuseDescendant(st *step, steps []step, i int) (Axis, bool) {
	if st.axis != AxisDescendantOrSelf || st.tk != testNode || len(st.preds) > 0 {
		return 0, false
	}
	if i+1 >= len(steps) {
		return 0, false
	}
	next := &steps[i+1]
	var ax Axis
	switch next.axis {
	case AxisChild, AxisDescendant:
		ax = AxisDescendant
	case AxisDescendantOrSelf:
		ax = AxisDescendantOrSelf
	default:
		return 0, false
	}
	if cs := classifyStep(*next); cs.kind != opSeq || cs.dyn {
		// A dyn predicate can turn out numeric at runtime, and numeric
		// predicates number against the uncollapsed context set.
		return 0, false
	}
	return ax, true
}

// classifyStep decides how one step executes.
func classifyStep(st step) planStep {
	ps := planStep{st: st}
	if len(st.preds) == 0 {
		ps.kind = opSeq
		return ps
	}
	// Leading integral positional predicate on a forward axis: fuse it
	// into the scan as an early-exit counter, provided the remaining
	// predicates are sequence-safe.
	if k, ok := posLiteral(st.preds[0]); ok && !st.axis.Reverse() && allSeqSafe(st.preds[1:]) {
		ps.kind = opFusedPos
		ps.pos = k
		ps.seqPreds = st.preds[1:]
		return ps
	}
	if seq, dyn := classifyPreds(st.preds); seq {
		ps.kind = opSeq
		ps.seqPreds = st.preds
		ps.dyn = dyn
		return ps
	}
	ps.kind = opPerNode
	return ps
}

// classifyPreds reports whether every predicate can be applied over the
// merged result sequence. A statically typed predicate qualifies through
// seqSafe; an *untypable* one (a bare variable, whose value only runtime
// knows) qualifies when it is position-free, but makes the step dynamic:
// if the value turns out to be a number after all, numeric predicates
// select by per-context position and the runtime reruns that step
// through the numbering operator (see errNumericPred).
func classifyPreds(preds []expr) (seq, dyn bool) {
	for _, p := range preds {
		switch {
		case seqSafe(p):
		case positionFree(p) && typeOf(p) == tUnknown:
			dyn = true
		default:
			return false, false
		}
	}
	return true, dyn
}

// ownedNodeSetBase reports whether evaluating e always yields a freshly
// allocated node-set the filter may mutate in place. A variable
// reference hands back the caller's bound node-set, which must never be
// filtered destructively; path, union and filter expressions build their
// results per evaluation.
func ownedNodeSetBase(e expr) bool {
	switch e.(type) {
	case *pathExpr, *unionExpr, *filterExpr:
		return true
	}
	return false
}

// posLiteral recognizes the two spellings of a static position
// predicate: an integral number literal [n], and [position() = n] (in
// either operand order), for n >= 1.
func posLiteral(e expr) (int, bool) {
	if n, ok := e.(numberLit); ok {
		return intLiteral(float64(n))
	}
	if b, ok := e.(*binaryExpr); ok && b.op == "=" {
		if isPositionCall(b.l) {
			if n, ok := b.r.(numberLit); ok {
				return intLiteral(float64(n))
			}
		}
		if isPositionCall(b.r) {
			if n, ok := b.l.(numberLit); ok {
				return intLiteral(float64(n))
			}
		}
	}
	return 0, false
}

func intLiteral(f float64) (int, bool) {
	k := int(f)
	if float64(k) != f || k < 1 {
		return 0, false
	}
	return k, true
}

func isPositionCall(e expr) bool {
	f, ok := e.(*funcCall)
	return ok && f.name == "position" && len(f.args) == 0
}

func allSeqSafe(preds []expr) bool {
	for _, p := range preds {
		if !seqSafe(p) {
			return false
		}
	}
	return true
}

// seqSafe reports whether a predicate may be evaluated over the merged
// result sequence instead of per context node: it must never consult
// position() or last() of the predicate context, and its static type
// must rule out a number (numeric predicate values select by position).
func seqSafe(p expr) bool {
	if !positionFree(p) {
		return false
	}
	switch typeOf(p) {
	case tBool, tStr, tNodeset:
		return true
	}
	return false
}

// positionFree reports whether evaluating e in a predicate context never
// reads that context's position() or last(). Subexpressions that
// establish their own context — the predicates of nested steps and
// filter expressions — do not count against the outer context.
func positionFree(e expr) bool {
	switch x := e.(type) {
	case numberLit, stringLit, varRef:
		return true
	case *negExpr:
		return positionFree(x.e)
	case *binaryExpr:
		return positionFree(x.l) && positionFree(x.r)
	case *unionExpr:
		return positionFree(x.l) && positionFree(x.r)
	case *funcCall:
		if x.name == "position" || x.name == "last" {
			return false
		}
		for _, a := range x.args {
			if !positionFree(a) {
				return false
			}
		}
		return true
	case *pathExpr:
		// Steps and their predicates see their own contexts; only a
		// rooting primary expression evaluates in the outer one.
		return x.start == nil || positionFree(x.start)
	case *filterExpr:
		return positionFree(x.base)
	}
	return false
}

// staticType is the statically inferred XPath 1.0 value type.
type staticType int

const (
	tUnknown staticType = iota
	tNum
	tStr
	tBool
	tNodeset
)

// typeOf infers the static result type of an expression. tUnknown means
// the type depends on runtime values (variables, unknown functions) and
// the caller must assume the worst.
func typeOf(e expr) staticType {
	switch x := e.(type) {
	case numberLit:
		return tNum
	case stringLit:
		return tStr
	case varRef:
		return tUnknown
	case *negExpr:
		return tNum
	case *binaryExpr:
		switch x.op {
		case "and", "or", "=", "!=", "<", "<=", ">", ">=":
			return tBool
		}
		return tNum
	case *unionExpr, *pathExpr, *filterExpr:
		return tNodeset
	case *funcCall:
		switch x.name {
		case "count", "sum", "floor", "ceiling", "round", "number",
			"string-length", "position", "last":
			return tNum
		case "string", "concat", "substring", "substring-before",
			"substring-after", "normalize-space", "translate", "name",
			"local-name":
			return tStr
		case "not", "true", "false", "boolean", "contains", "starts-with":
			return tBool
		}
		return tUnknown
	}
	return tUnknown
}
