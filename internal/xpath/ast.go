package xpath

import (
	"fmt"
	"strings"

	"mxq/internal/staircase"
)

// Axis identifies an XPath axis.
type Axis int

// The supported axes. The eleven tree axes are the staircase operators'
// own values, so a tree step hands its axis to the join as a conversion;
// attribute, which reads the side table and not the pre/size/level
// plane, is the one value past them.
const (
	AxisSelf             = Axis(staircase.AxisSelf)
	AxisChild            = Axis(staircase.AxisChild)
	AxisDescendant       = Axis(staircase.AxisDescendant)
	AxisDescendantOrSelf = Axis(staircase.AxisDescendantOrSelf)
	AxisParent           = Axis(staircase.AxisParent)
	AxisAncestor         = Axis(staircase.AxisAncestor)
	AxisAncestorOrSelf   = Axis(staircase.AxisAncestorOrSelf)
	AxisFollowing        = Axis(staircase.AxisFollowing)
	AxisFollowingSibling = Axis(staircase.AxisFollowingSibling)
	AxisPreceding        = Axis(staircase.AxisPreceding)
	AxisPrecedingSibling = Axis(staircase.AxisPrecedingSibling)
	AxisAttribute        = AxisPrecedingSibling + 1
)

var axisNames = map[string]Axis{
	"child":              AxisChild,
	"descendant":         AxisDescendant,
	"descendant-or-self": AxisDescendantOrSelf,
	"parent":             AxisParent,
	"ancestor":           AxisAncestor,
	"ancestor-or-self":   AxisAncestorOrSelf,
	"following":          AxisFollowing,
	"following-sibling":  AxisFollowingSibling,
	"preceding":          AxisPreceding,
	"preceding-sibling":  AxisPrecedingSibling,
	"self":               AxisSelf,
	"attribute":          AxisAttribute,
}

func (a Axis) String() string {
	for n, ax := range axisNames {
		if ax == a {
			return n
		}
	}
	return fmt.Sprintf("Axis(%d)", int(a))
}

// Reverse reports whether the axis enumerates in reverse document order
// (which governs positional predicate numbering).
func (a Axis) Reverse() bool {
	switch a {
	case AxisParent, AxisAncestor, AxisAncestorOrSelf, AxisPreceding, AxisPrecedingSibling:
		return true
	}
	return false
}

// testKind is the node-test category of a step.
type testKind int

const (
	testName    testKind = iota // name or *
	testNode                    // node()
	testText                    // text()
	testComment                 // comment()
	testPI                      // processing-instruction(target?)
)

// step is one location step: axis::test[pred]...
type step struct {
	axis  Axis
	tk    testKind
	name  string // element/attribute name ("" = *), or PI target
	preds []expr
}

func (s step) String() string {
	var b strings.Builder
	b.WriteString(s.axis.String())
	b.WriteString("::")
	switch s.tk {
	case testName:
		if s.name == "" {
			b.WriteString("*")
		} else {
			b.WriteString(s.name)
		}
	case testNode:
		b.WriteString("node()")
	case testText:
		b.WriteString("text()")
	case testComment:
		b.WriteString("comment()")
	case testPI:
		fmt.Fprintf(&b, "processing-instruction(%s)", s.name)
	}
	for _, p := range s.preds {
		fmt.Fprintf(&b, "[%s]", p)
	}
	return b.String()
}

// expr is an AST node.
type expr interface {
	fmt.Stringer
	eval(c *context) (Value, error)
}

// pathExpr is a location path, optionally rooted at another expression
// (filter/path composition: primary[pred]/step/...).
type pathExpr struct {
	absolute bool // starts at the document node
	start    expr // nil for pure location paths
	steps    []step

	// plan is the compiled sequence-at-a-time pipeline for the steps,
	// attached by compilePlans after parsing (see compile.go). It is
	// immutable after Parse and shared by concurrent evaluations.
	plan *pathPlan
}

func (p *pathExpr) String() string {
	var b strings.Builder
	if p.start != nil {
		b.WriteString(p.start.String())
	}
	if p.absolute {
		b.WriteString("/")
	}
	for i, s := range p.steps {
		if i > 0 || p.start != nil {
			b.WriteString("/")
		}
		b.WriteString(s.String())
	}
	return b.String()
}

type numberLit float64

func (n numberLit) String() string { return fmt.Sprintf("%g", float64(n)) }

type stringLit string

func (s stringLit) String() string { return fmt.Sprintf("%q", string(s)) }

type varRef string

func (v varRef) String() string { return "$" + string(v) }

type binaryExpr struct {
	op   string
	l, r expr
}

func (b *binaryExpr) String() string {
	return fmt.Sprintf("(%s %s %s)", b.l, b.op, b.r)
}

type negExpr struct{ e expr }

func (n *negExpr) String() string { return fmt.Sprintf("-(%s)", n.e) }

type unionExpr struct{ l, r expr }

func (u *unionExpr) String() string { return fmt.Sprintf("%s | %s", u.l, u.r) }

type funcCall struct {
	name string
	args []expr
}

func (f *funcCall) String() string {
	parts := make([]string, len(f.args))
	for i, a := range f.args {
		parts[i] = a.String()
	}
	return f.name + "(" + strings.Join(parts, ", ") + ")"
}

// filterExpr is a primary expression with predicates.
type filterExpr struct {
	base  expr
	preds []expr

	// ownedBase marks a base whose result the predicates may filter in
	// place without a defensive copy; compilePlans attaches it (see
	// ownedNodeSetBase in compile.go).
	ownedBase bool
}

func (f *filterExpr) String() string {
	var b strings.Builder
	b.WriteString(f.base.String())
	for _, p := range f.preds {
		fmt.Fprintf(&b, "[%s]", p)
	}
	return b.String()
}
