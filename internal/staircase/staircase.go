// Package staircase evaluates XPath axis steps over the pre/size/level
// encoding, following the staircase join of Grust, van Keulen and Teubner
// (VLDB 2003) as used by MonetDB/XQuery. The algorithms are defined on
// the xenc.DocView interface only, so — like the original staircase join
// behind the memory-mapped pre/size/level view — they run unmodified on
// the read-only and on the paged updatable schema.
//
// Every operator has two bodies with the same results. The per-tuple
// body in this file reads the view through its DocView accessors; it is
// the definition, the reference the kernels are tested against, and what
// runs on a view that offers nothing more (the naive oracle, a wrapper
// that counts accessor calls). The column kernel in kernels.go runs when
// the view is an xenc.ColumnView — the paged store, a transaction image,
// the read-only store — and loops over the raw column slices a run at a
// time, as the paper's join scans the memory-mapped columns. The choice
// is one type assertion at operator entry; there is no switch to set.
// Parent lookups, in either body, go through xenc.ParentView where the
// view has a parent table and scan the level column backwards otherwise.
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
// (the hook positional predicates fuse into). The twelfth XPath axis
// (attribute) reads the side table, not the pre/size/level plane, and
// lives in the xpath layer.
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
	switch ax {
	case AxisSelf:
		return Self(v, ctx, t)
	case AxisChild:
		return Child(v, ctx, t)
	case AxisDescendant:
		return Descendant(v, ctx, t)
	case AxisDescendantOrSelf:
		return DescendantOrSelf(v, ctx, t)
	case AxisParent:
		return Parent(v, ctx, t)
	case AxisAncestor:
		return Ancestor(v, ctx, t)
	case AxisAncestorOrSelf:
		return AncestorOrSelf(v, ctx, t)
	case AxisFollowing:
		return Following(v, ctx, t)
	case AxisFollowingSibling:
		return FollowingSibling(v, ctx, t)
	case AxisPreceding:
		return Preceding(v, ctx, t)
	case AxisPrecedingSibling:
		return PrecedingSibling(v, ctx, t)
	}
	return nil
}

// Scan enumerates a *forward* axis from a single context node in
// document order, calling fn for every node matching the test until fn
// returns false. It exists for fused positional predicates ([1], [n]):
// the caller counts matches and stops the scan at the n-th, so a
// first-child probe over a huge subtree inspects one tuple instead of
// the whole region. Supported axes: self, child, descendant,
// descendant-or-self, following-sibling, following; reverse axes
// enumerate against document order and are not scannable this way.
func Scan(v xenc.DocView, c xenc.Pre, ax Axis, t Test, fn func(xenc.Pre) bool) {
	if cv, ok := v.(xenc.ColumnView); ok {
		newCursor(cv).scan(c, ax, t, fn)
		return
	}
	n := v.Len()
	switch ax {
	case AxisSelf:
		if t.Matches(v, c) {
			fn(c)
		}
	case AxisChild:
		lvl := v.Level(c)
		for p := xenc.SkipFree(v, c+1); p < n && v.Level(p) > lvl; p = xenc.SkipFree(v, p+v.Size(p)+1) {
			if v.Level(p) == lvl+1 && t.Matches(v, p) && !fn(p) {
				return
			}
		}
	case AxisDescendant, AxisDescendantOrSelf:
		if ax == AxisDescendantOrSelf && t.Matches(v, c) && !fn(c) {
			return
		}
		lvl := v.Level(c)
		for p, remaining := c+1, v.Size(c); remaining > 0 && p < n; {
			l := v.Level(p)
			if l == xenc.LevelUnused {
				p += v.Size(p) + 1
				continue
			}
			if l <= lvl {
				break
			}
			if t.Matches(v, p) && !fn(p) {
				return
			}
			remaining--
			p++
		}
	case AxisFollowingSibling:
		lvl := v.Level(c)
		if lvl == 0 {
			return
		}
		for p := xenc.SkipFree(v, c+v.Size(c)+1); p < n && v.Level(p) >= lvl; p = xenc.SkipFree(v, p+v.Size(p)+1) {
			if v.Level(p) == lvl && t.Matches(v, p) && !fn(p) {
				return
			}
		}
	case AxisFollowing:
		for p := xenc.SkipFree(v, regionEnd(v, c)+1); p < n; p = xenc.SkipFree(v, p+1) {
			if t.Matches(v, p) && !fn(p) {
				return
			}
		}
	}
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

// Matches reports whether the used tuple at p satisfies the test.
func (t Test) Matches(v xenc.DocView, p xenc.Pre) bool {
	if t.kindSet {
		if v.Kind(p) != t.kind {
			return false
		}
		if t.name != xenc.NoName && v.Name(p) != t.name {
			return false
		}
	}
	return true
}

// Self filters the context sequence by the test.
func Self(v xenc.DocView, ctx []xenc.Pre, t Test) []xenc.Pre {
	if cv, ok := v.(xenc.ColumnView); ok {
		return newCursor(cv).self(ctx, t)
	}
	var out []xenc.Pre
	for _, c := range ctx {
		if t.Matches(v, c) {
			out = append(out, c)
		}
	}
	return out
}

// Descendant returns the matching descendants of the context sequence in
// document order. Context nodes inside an already-scanned region are
// pruned (the staircase "pruning"), so the scan touches every result
// region exactly once.
func Descendant(v xenc.DocView, ctx []xenc.Pre, t Test) []xenc.Pre {
	return descendant(v, ctx, t, false)
}

// DescendantOrSelf is Descendant plus the matching context nodes.
func DescendantOrSelf(v xenc.DocView, ctx []xenc.Pre, t Test) []xenc.Pre {
	return descendant(v, ctx, t, true)
}

func descendant(v xenc.DocView, ctx []xenc.Pre, t Test, self bool) []xenc.Pre {
	if cv, ok := v.(xenc.ColumnView); ok {
		return newCursor(cv).descendant(ctx, t, self)
	}
	var out []xenc.Pre
	n := v.Len()
	high := xenc.Pre(-1) // last pre already covered by a scanned region
	for _, c := range ctx {
		if c <= high {
			continue // pruned: c lies inside a region scanned before
		}
		if self && t.Matches(v, c) {
			out = append(out, c)
		}
		lvl := v.Level(c)
		last := c
		// One Level read per tuple: it tells a free run (hopped by its
		// length) from a descendant from the end of the region.
		for p, remaining := c+1, v.Size(c); remaining > 0 && p < n; {
			l := v.Level(p)
			if l == xenc.LevelUnused {
				p += v.Size(p) + 1
				continue
			}
			if l <= lvl {
				break // corrupt size would spin; defend
			}
			if t.Matches(v, p) {
				out = append(out, p)
			}
			last = p
			remaining--
			p++
		}
		if last > high {
			high = last
		}
	}
	return out
}

// Child returns the matching children of the context sequence, hopping
// from sibling to sibling with pre += size+1 ("finding all children of a
// node works by checking the first child and skipping to its siblings").
// With free space interleaved a hop may land inside the previous child's
// region; the level test detects that and the hop continues from there,
// so each extra hole costs at most one extra hop.
func Child(v xenc.DocView, ctx []xenc.Pre, t Test) []xenc.Pre {
	if cv, ok := v.(xenc.ColumnView); ok {
		return newCursor(cv).child(ctx, t)
	}
	var out []xenc.Pre
	sorted := true
	last := xenc.Pre(-1)
	n := v.Len()
	for _, c := range ctx {
		lvl := v.Level(c)
		p := xenc.SkipFree(v, c+1)
		for p < n && v.Level(p) > lvl {
			if v.Level(p) == lvl+1 && t.Matches(v, p) {
				if p < last {
					sorted = false
				}
				last = p
				out = append(out, p)
			}
			p = xenc.SkipFree(v, p+v.Size(p)+1)
		}
	}
	if !sorted {
		sortPres(out)
	}
	return out
}

// Parent returns the distinct parents of the context sequence. Runs of
// sibling context nodes share a parent, so consecutive repeats are
// collapsed during the walk; the merge sort only fires when parents of
// later context nodes actually land out of order (cousin sequences).
func Parent(v xenc.DocView, ctx []xenc.Pre, t Test) []xenc.Pre {
	if cv, ok := v.(xenc.ColumnView); ok {
		return newCursor(cv).parents(ctx, t)
	}
	var out []xenc.Pre
	lastPar := xenc.NoPre
	sorted := true
	last := xenc.Pre(-1)
	for _, c := range ctx {
		p := parentOf(v, c)
		if p == lastPar {
			continue // sibling run: same parent as the previous context node
		}
		lastPar = p
		if p != xenc.NoPre && t.Matches(v, p) {
			if p <= last {
				sorted = false
			}
			last = p
			out = append(out, p)
		}
	}
	if !sorted {
		sortPres(out)
		out = dedupe(out)
	}
	return out
}

// Ancestor returns the distinct ancestors of the context sequence.
func Ancestor(v xenc.DocView, ctx []xenc.Pre, t Test) []xenc.Pre {
	if cv, ok := v.(xenc.ColumnView); ok {
		return newCursor(cv).ancestor(ctx, t)
	}
	seen := make(map[xenc.Pre]bool)
	var out []xenc.Pre
	for _, c := range ctx {
		for p := parentOf(v, c); p != xenc.NoPre; p = parentOf(v, p) {
			if seen[p] {
				break // the rest of the chain was walked before
			}
			seen[p] = true
			if t.Matches(v, p) {
				out = append(out, p)
			}
		}
	}
	sortPres(out)
	return out
}

// AncestorOrSelf is Ancestor plus the matching context nodes.
func AncestorOrSelf(v xenc.DocView, ctx []xenc.Pre, t Test) []xenc.Pre {
	out := Ancestor(v, ctx, t)
	out = append(out, Self(v, ctx, t)...)
	sortPres(out)
	return dedupe(out)
}

// FollowingSibling returns the matching following siblings. Sibling-run
// pruning: once one context node's sibling run is scanned, every later
// context node inside that run at the same level is itself a following
// sibling of the first — its results are a suffix of what was already
// emitted — so it is skipped without touching a tuple.
func FollowingSibling(v xenc.DocView, ctx []xenc.Pre, t Test) []xenc.Pre {
	if cv, ok := v.(xenc.ColumnView); ok {
		return newCursor(cv).followingSibling(ctx, t)
	}
	var out []xenc.Pre
	n := v.Len()
	sorted := true
	last := xenc.Pre(-1)
	runHigh := xenc.Pre(-1) // last pre examined by the previous sibling scan
	runLvl := xenc.Level(-2)
	for _, c := range ctx {
		lvl := v.Level(c)
		if lvl == 0 {
			continue // the root has no siblings
		}
		if c <= runHigh && lvl == runLvl {
			continue // pruned: c is a sibling inside the run scanned before
		}
		p := xenc.SkipFree(v, c+v.Size(c)+1)
		for p < n && v.Level(p) >= lvl {
			if v.Level(p) == lvl && t.Matches(v, p) {
				if p <= last {
					sorted = false
				}
				last = p
				out = append(out, p)
			}
			p = xenc.SkipFree(v, p+v.Size(p)+1)
		}
		runHigh, runLvl = p-1, lvl
	}
	if !sorted {
		sortPres(out)
		out = dedupe(out)
	}
	return out
}

// PrecedingSibling returns the matching preceding siblings.
func PrecedingSibling(v xenc.DocView, ctx []xenc.Pre, t Test) []xenc.Pre {
	if cv, ok := v.(xenc.ColumnView); ok {
		return newCursor(cv).precedingSibling(ctx, t)
	}
	var out []xenc.Pre
	sorted := true
	last := xenc.Pre(-1)
	for _, c := range ctx {
		par := parentOf(v, c)
		if par == xenc.NoPre {
			continue
		}
		lvl := v.Level(c)
		p := xenc.SkipFree(v, par+1)
		for p < c {
			if v.Level(p) == lvl && t.Matches(v, p) {
				if p <= last {
					sorted = false
				}
				last = p
				out = append(out, p)
			}
			p = xenc.SkipFree(v, p+v.Size(p)+1)
		}
	}
	if !sorted {
		sortPres(out)
		out = dedupe(out)
	}
	return out
}

// Following returns everything after the context regions. The staircase
// observation: following(ctx) == following(c*) where c* is the context
// node whose region ends first, so one scan suffices.
func Following(v xenc.DocView, ctx []xenc.Pre, t Test) []xenc.Pre {
	if cv, ok := v.(xenc.ColumnView); ok {
		return newCursor(cv).following(ctx, t)
	}
	if len(ctx) == 0 {
		return nil
	}
	// Ancestors of a node always precede it, so everything after the
	// earliest region end is in the following axis of the union.
	minEnd := xenc.Pre(-1)
	for _, c := range ctx {
		end := regionEnd(v, c)
		if minEnd < 0 || end < minEnd {
			minEnd = end
		}
	}
	var out []xenc.Pre
	n := v.Len()
	for p := xenc.SkipFree(v, minEnd+1); p < n; p = xenc.SkipFree(v, p+1) {
		if t.Matches(v, p) {
			out = append(out, p)
		}
	}
	return out
}

// Preceding returns everything before the context nodes except their
// ancestors. Dual staircase observation: preceding(ctx) ==
// preceding(max ctx).
func Preceding(v xenc.DocView, ctx []xenc.Pre, t Test) []xenc.Pre {
	if cv, ok := v.(xenc.ColumnView); ok {
		return newCursor(cv).preceding(ctx, t)
	}
	if len(ctx) == 0 {
		return nil
	}
	c := ctx[len(ctx)-1]
	anc := make(map[xenc.Pre]bool)
	for p := parentOf(v, c); p != xenc.NoPre; p = parentOf(v, p) {
		anc[p] = true
	}
	var out []xenc.Pre
	for p := xenc.SkipFree(v, 0); p < c; p = xenc.SkipFree(v, p+1) {
		if !anc[p] && t.Matches(v, p) {
			out = append(out, p)
		}
	}
	return out
}

// parentOf finds the parent of the used tuple at c. A view with a parent
// table (xenc.ParentView) answers directly. Otherwise it is the backward
// level scan — the nearest preceding used tuple with a smaller level is
// the parent in pre-order — which reads back over the subtrees of all of
// c's preceding siblings.
func parentOf(v xenc.DocView, c xenc.Pre) xenc.Pre {
	if pv, ok := v.(xenc.ParentView); ok {
		return pv.ParentPre(c)
	}
	lvl := v.Level(c)
	if lvl == 0 {
		return xenc.NoPre
	}
	for p := c - 1; p >= 0; p-- {
		l := v.Level(p)
		if l != xenc.LevelUnused && l < lvl {
			return p
		}
	}
	return xenc.NoPre
}

// regionEnd returns the pre rank of the last live tuple in c's region (c
// itself for leaves).
func regionEnd(v xenc.DocView, c xenc.Pre) xenc.Pre {
	remaining := v.Size(c)
	last := c
	p := c
	for remaining > 0 {
		p = xenc.SkipFree(v, p+1)
		last = p
		remaining--
	}
	return last
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
