package xpath

import (
	"math"
	"sort"
	"strconv"
	"strings"

	"mxq/internal/staircase"
	"mxq/internal/xenc"
)

// DocNodePre is the pre rank of the virtual document node (the parent of
// the root element). It never appears in a store; the evaluator treats it
// specially.
const DocNodePre xenc.Pre = -1

// NoAttr marks a Node that is not an attribute node.
const NoAttr int32 = -1

// Node identifies one XPath node: either a tree node (Attr == NoAttr) or
// the Attr-th attribute of the element at Pre.
type Node struct {
	Pre  xenc.Pre
	Attr int32
}

// DocNode returns the virtual document node.
func DocNode() Node { return Node{Pre: DocNodePre, Attr: NoAttr} }

// ElemNode wraps a tree node rank.
func ElemNode(p xenc.Pre) Node { return Node{Pre: p, Attr: NoAttr} }

// Before reports document order: attributes come after their element and
// before its children (attribute index breaks ties).
func (n Node) Before(m Node) bool {
	if n.Pre != m.Pre {
		return n.Pre < m.Pre
	}
	return n.Attr < m.Attr
}

// Value is an XPath 1.0 value: NodeSet, Number, String or Boolean.
type Value interface{ xpathValue() }

// NodeSet is a document-ordered, duplicate-free sequence of nodes.
type NodeSet []Node

// Number is an XPath number (IEEE double).
type Number float64

// String is an XPath string.
type String string

// Boolean is an XPath boolean.
type Boolean bool

func (NodeSet) xpathValue() {}
func (Number) xpathValue()  {}
func (String) xpathValue()  {}
func (Boolean) xpathValue() {}

// Pres returns the tree-node ranks in the set, dropping attribute nodes.
func (ns NodeSet) Pres() []xenc.Pre {
	out := make([]xenc.Pre, 0, len(ns))
	for _, n := range ns {
		if n.Attr == NoAttr && n.Pre != DocNodePre {
			out = append(out, n.Pre)
		}
	}
	return out
}

func sortDedupe(ns NodeSet) NodeSet {
	sort.Slice(ns, func(i, j int) bool { return ns[i].Before(ns[j]) })
	w := 0
	for i := range ns {
		if i == 0 || ns[i] != ns[i-1] {
			ns[w] = ns[i]
			w++
		}
	}
	return ns[:w]
}

// StringValue computes the XPath string-value of a node: concatenated
// text descendants for elements and the document node, the content for
// text/comment/PI nodes, the value for attribute nodes.
func StringValue(v xenc.DocView, n Node) string {
	if n.Attr != NoAttr {
		attrs := v.Attrs(n.Pre)
		if int(n.Attr) < len(attrs) {
			return attrs[n.Attr].Val
		}
		return ""
	}
	if n.Pre == DocNodePre {
		return subtreeText(v, v.Root())
	}
	switch v.Kind(n.Pre) {
	case xenc.KindElem:
		return subtreeText(v, n.Pre)
	default:
		return v.Value(n.Pre)
	}
}

func subtreeText(v xenc.DocView, p xenc.Pre) string {
	var b strings.Builder
	staircase.Scan(v, p, staircase.AxisDescendant, staircase.KindTest(xenc.KindText), func(q xenc.Pre) bool {
		b.WriteString(v.Value(q))
		return true
	})
	return b.String()
}

// BoolOf applies the XPath boolean() conversion.
func BoolOf(val Value) bool {
	switch x := val.(type) {
	case Boolean:
		return bool(x)
	case Number:
		return x != 0 && !math.IsNaN(float64(x))
	case String:
		return len(x) > 0
	case NodeSet:
		return len(x) > 0
	}
	return false
}

// NumberOf applies the XPath number() conversion. Node sets convert via
// the string-value of their first node.
func NumberOf(v xenc.DocView, val Value) float64 {
	switch x := val.(type) {
	case Number:
		return float64(x)
	case Boolean:
		if x {
			return 1
		}
		return 0
	case String:
		return parseNumber(string(x))
	case NodeSet:
		if len(x) == 0 {
			return math.NaN()
		}
		return parseNumber(StringValue(v, x[0]))
	}
	return math.NaN()
}

func parseNumber(s string) float64 {
	f, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
	if err != nil {
		return math.NaN()
	}
	return f
}

// StringOf applies the XPath string() conversion.
func StringOf(v xenc.DocView, val Value) string {
	switch x := val.(type) {
	case String:
		return string(x)
	case Boolean:
		if x {
			return "true"
		}
		return "false"
	case Number:
		return FormatNumber(float64(x))
	case NodeSet:
		if len(x) == 0 {
			return ""
		}
		return StringValue(v, x[0])
	}
	return ""
}

// FormatNumber renders a number the XPath way: integers without a
// decimal point, NaN as "NaN".
func FormatNumber(f float64) string {
	switch {
	case math.IsNaN(f):
		return "NaN"
	case math.IsInf(f, 1):
		return "Infinity"
	case math.IsInf(f, -1):
		return "-Infinity"
	case f == math.Trunc(f) && math.Abs(f) < 1e15:
		return strconv.FormatInt(int64(f), 10)
	default:
		return strconv.FormatFloat(f, 'g', -1, 64)
	}
}

// compare implements the XPath 1.0 comparison rules, including the
// existential semantics of node-set operands.
func compare(v xenc.DocView, op string, l, r Value) bool {
	ln, lok := l.(NodeSet)
	rn, rok := r.(NodeSet)
	switch {
	case lok && rok:
		for _, a := range ln {
			sa := StringValue(v, a)
			for _, b := range rn {
				if cmpAtomic(op, atom{s: sa}, atom{s: StringValue(v, b)}) {
					return true
				}
			}
		}
		return false
	case lok:
		for _, a := range ln {
			if compare(v, op, atomValue(v, a), r) {
				return true
			}
		}
		return false
	case rok:
		for _, b := range rn {
			if compare(v, op, l, atomValue(v, b)) {
				return true
			}
		}
		return false
	}
	// Both atomic.
	if op == "=" || op == "!=" {
		if _, ok := l.(Boolean); ok {
			return cmpBool(op, BoolOf(l), BoolOf(r))
		}
		if _, ok := r.(Boolean); ok {
			return cmpBool(op, BoolOf(l), BoolOf(r))
		}
		if _, ok := l.(Number); ok {
			return cmpNum(op, NumberOf(v, l), NumberOf(v, r))
		}
		if _, ok := r.(Number); ok {
			return cmpNum(op, NumberOf(v, l), NumberOf(v, r))
		}
		return cmpStr(op, StringOf(v, l), StringOf(v, r))
	}
	return cmpNum(op, NumberOf(v, l), NumberOf(v, r))
}

// atom carries a node's string-value for mixed comparisons.
type atom struct{ s string }

func atomValue(v xenc.DocView, n Node) Value { return String(StringValue(v, n)) }

func cmpAtomic(op string, a, b atom) bool {
	switch op {
	case "=":
		return a.s == b.s
	case "!=":
		return a.s != b.s
	default:
		return cmpNum(op, parseNumber(a.s), parseNumber(b.s))
	}
}

func cmpNum(op string, a, b float64) bool {
	switch op {
	case "=":
		return a == b
	case "!=":
		return a != b
	case "<":
		return a < b
	case "<=":
		return a <= b
	case ">":
		return a > b
	case ">=":
		return a >= b
	}
	return false
}

func cmpStr(op string, a, b string) bool {
	switch op {
	case "=":
		return a == b
	case "!=":
		return a != b
	}
	return false
}

func cmpBool(op string, a, b bool) bool {
	if op == "=" {
		return a == b
	}
	return a != b
}
