// Package staircase evaluates XPath axis steps over the pre/size/level
// encoding, following the staircase join of Grust, van Keulen and Teubner
// (VLDB 2003) as used by MonetDB/XQuery. The algorithms are defined on
// the xenc.DocView interface only, so — like the original staircase join
// behind the memory-mapped pre/size/level view — they run unmodified on
// the read-only and on the paged updatable schema.
//
// Every operator has one body, a column kernel (kernels.go): it loops
// over the raw column slices of an xenc.ColumnView a run at a time, as
// the paper's join scans the memory-mapped columns. The paged store, a
// transaction image and the read-only store hand out their columns; any
// other view (a wrapper that counts accessor calls) is read through
// xenc.Columnar's adapter, one tuple a run. Parent lookups go through
// xenc.ParentView where the view has a parent table and scan the level
// column backwards otherwise.
//
// The two tree-awareness tricks of the paper are implemented:
//
//   - positional skipping: children are found by hopping
//     pre += size(pre)+1 from sibling to sibling, and context nodes whose
//     region was already scanned are pruned, so no tuple is inspected
//     twice;
//   - free-space skipping: unused tuples are hopped over in O(1) per run
//     using the free-run lengths in their size column.
//
// The operators are *sequence-at-a-time*: every axis takes the whole
// context sequence and returns the whole result sequence, which is what
// lets the pruning fire at all — a caller that loops over single-node
// contexts re-scans every overlapping region once per context node and
// pays an O(n log n) merge per step on top. The contract on both sides
// is the same: context sequences are ascending pre ranks without
// duplicates (document order), and results are returned the same way,
// already merged — callers never sort or dedupe behind these operators.
// EvalAxis dispatches a sequence over any of the eleven tree axes; Scan
// enumerates a forward axis from a single context node with early exit
// (the hook positional predicates fuse into). The two are also how the
// store's update path, XUpdate, string-value and the XMark fixture
// navigate: no other package hops a subtree by its size. The
// twelfth XPath axis (attribute) reads the side table, not the
// pre/size/level plane, and lives in the xpath layer.
package staircase

import (
	"sort"

	"mxq/internal/xenc"
)

// Axis identifies one of the eleven tree axes EvalAxis dispatches over.
type Axis int

// The tree axes. (attribute is not a tree axis: it reads the attribute
// side table and is handled by the caller.)
const (
	AxisSelf Axis = iota
	AxisChild
	AxisDescendant
	AxisDescendantOrSelf
	AxisParent
	AxisAncestor
	AxisAncestorOrSelf
	AxisFollowing
	AxisFollowingSibling
	AxisPreceding
	AxisPrecedingSibling
)

// EvalAxis applies one axis step to the whole context sequence: ctx is
// ascending pre ranks without duplicates, and the result is the same —
// document order, duplicate-free, with the paper's context pruning
// applied wherever the axis admits it.
func EvalAxis(v xenc.DocView, ctx []xenc.Pre, ax Axis, t Test) []xenc.Pre {
	k := newCursor(v)
	switch ax {
	case AxisSelf:
		return k.self(ctx, t)
	case AxisChild:
		return k.child(ctx, t)
	case AxisDescendant:
		return k.descendant(ctx, t, false)
	case AxisDescendantOrSelf:
		return k.descendant(ctx, t, true)
	case AxisParent:
		return k.parents(ctx, t)
	case AxisAncestor:
		return k.ancestor(ctx, t, false)
	case AxisAncestorOrSelf:
		return k.ancestor(ctx, t, true)
	case AxisFollowing:
		return k.following(ctx, t)
	case AxisFollowingSibling:
		return k.followingSibling(ctx, t)
	case AxisPreceding:
		return k.preceding(ctx, t)
	case AxisPrecedingSibling:
		return k.precedingSibling(ctx, t)
	}
	return nil
}

// Scan enumerates a *forward* axis from a single context node in
// document order, calling fn for every node matching the test until fn
// returns false. It serves fused positional predicates ([1], [n]) — the
// caller counts matches and stops the scan at the n-th, so a first-child
// probe over a huge subtree inspects one tuple instead of the whole
// region — and the store's RegionEnd and NthChild, string-value and the
// XMark fixture alike. Supported axes: self, child, descendant,
// descendant-or-self, following-sibling, following; reverse axes
// enumerate against document order and are not scannable this way.
func Scan(v xenc.DocView, c xenc.Pre, ax Axis, t Test, fn func(xenc.Pre) bool) {
	newCursor(v).scan(c, ax, t, fn)
}

// Nth returns the n-th (n >= 1) node that Scan enumerates from c on a
// forward axis, or NoPre: a positional predicate fused into its step.
// On the child axis, a view with run summaries (xenc.IndexView) passes
// whole runs inside c's region by count instead of hopping their
// siblings one at a time.
func Nth(v xenc.DocView, c xenc.Pre, ax Axis, t Test, n int) xenc.Pre {
	if n < 1 {
		return xenc.NoPre
	}
	k := newCursor(v)
	if ax == AxisChild {
		return k.nth(c, t, n)
	}
	found := xenc.NoPre
	k.scan(c, ax, t, func(p xenc.Pre) bool {
		if n--; n > 0 {
			return true
		}
		found = p
		return false
	})
	return found
}

// Test is a node test: an optional kind filter and an optional name
// filter (interned qname id).
type Test struct {
	kindSet bool
	kind    xenc.Kind
	name    int32 // xenc.NoName matches any name
}

// AnyNode matches every node (node()).
func AnyNode() Test { return Test{name: xenc.NoName} }

// KindTest matches nodes of one kind regardless of name (text(),
// comment()).
func KindTest(k xenc.Kind) Test { return Test{kindSet: true, kind: k, name: xenc.NoName} }

// Element matches element nodes; name xenc.NoName means any element (*).
func Element(name int32) Test {
	return Test{kindSet: true, kind: xenc.KindElem, name: name}
}

// PITest matches processing instructions; target xenc.NoName matches all.
func PITest(target int32) Test {
	return Test{kindSet: true, kind: xenc.KindPI, name: target}
}

func sortPres(s []xenc.Pre) {
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
}

func dedupe(s []xenc.Pre) []xenc.Pre {
	if len(s) < 2 {
		return s
	}
	w := 1
	for i := 1; i < len(s); i++ {
		if s[i] != s[i-1] {
			s[w] = s[i]
			w++
		}
	}
	return s[:w]
}
