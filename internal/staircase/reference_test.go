package staircase

// The per-tuple reference: each operator as it reads the view through its
// DocView accessors alone, one call per column per tuple. The kernels
// are held to it, rank for rank (TestKernelsMatchReference), and it is
// held to a tree-semantics oracle (checkAllAxes).

import "mxq/internal/xenc"

// reference is EvalAxis over the per-tuple bodies.
func reference(v xenc.DocView, ctx []xenc.Pre, ax Axis, t Test) []xenc.Pre {
	switch ax {
	case AxisSelf:
		return refSelf(v, ctx, t)
	case AxisChild:
		return refChild(v, ctx, t)
	case AxisDescendant:
		return refDescendant(v, ctx, t, false)
	case AxisDescendantOrSelf:
		return refDescendant(v, ctx, t, true)
	case AxisParent:
		return refParent(v, ctx, t)
	case AxisAncestor:
		return refAncestor(v, ctx, t)
	case AxisAncestorOrSelf:
		return refAncestorOrSelf(v, ctx, t)
	case AxisFollowing:
		return refFollowing(v, ctx, t)
	case AxisFollowingSibling:
		return refFollowingSibling(v, ctx, t)
	case AxisPreceding:
		return refPreceding(v, ctx, t)
	case AxisPrecedingSibling:
		return refPrecedingSibling(v, ctx, t)
	}
	return nil
}

// refMatches reports whether the used tuple at p satisfies the test.
func refMatches(t Test, v xenc.DocView, p xenc.Pre) bool {
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

// refScan is Scan over the per-tuple bodies.
func refScan(v xenc.DocView, c xenc.Pre, ax Axis, t Test, fn func(xenc.Pre) bool) {
	n := v.Len()
	switch ax {
	case AxisSelf:
		if refMatches(t, v, c) {
			fn(c)
		}
	case AxisChild:
		lvl := v.Level(c)
		for p := xenc.SkipFree(v, c+1); p < n && v.Level(p) > lvl; p = xenc.SkipFree(v, p+v.Size(p)+1) {
			if v.Level(p) == lvl+1 && refMatches(t, v, p) && !fn(p) {
				return
			}
		}
	case AxisDescendant, AxisDescendantOrSelf:
		if ax == AxisDescendantOrSelf && refMatches(t, v, c) && !fn(c) {
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
			if refMatches(t, v, p) && !fn(p) {
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
			if v.Level(p) == lvl && refMatches(t, v, p) && !fn(p) {
				return
			}
		}
	case AxisFollowing:
		for p := xenc.SkipFree(v, refRegionEnd(v, c)+1); p < n; p = xenc.SkipFree(v, p+1) {
			if refMatches(t, v, p) && !fn(p) {
				return
			}
		}
	}
}

func refSelf(v xenc.DocView, ctx []xenc.Pre, t Test) []xenc.Pre {
	var out []xenc.Pre
	for _, c := range ctx {
		if refMatches(t, v, c) {
			out = append(out, c)
		}
	}
	return out
}

func refDescendant(v xenc.DocView, ctx []xenc.Pre, t Test, self bool) []xenc.Pre {
	var out []xenc.Pre
	n := v.Len()
	high := xenc.Pre(-1) // last pre already covered by a scanned region
	for _, c := range ctx {
		if c <= high {
			continue // pruned: c lies inside a region scanned before
		}
		if self && refMatches(t, v, c) {
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
			if refMatches(t, v, p) {
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

func refChild(v xenc.DocView, ctx []xenc.Pre, t Test) []xenc.Pre {
	var out []xenc.Pre
	sorted := true
	last := xenc.Pre(-1)
	n := v.Len()
	for _, c := range ctx {
		lvl := v.Level(c)
		p := xenc.SkipFree(v, c+1)
		for p < n && v.Level(p) > lvl {
			if v.Level(p) == lvl+1 && refMatches(t, v, p) {
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

func refParent(v xenc.DocView, ctx []xenc.Pre, t Test) []xenc.Pre {
	var out []xenc.Pre
	lastPar := xenc.NoPre
	sorted := true
	last := xenc.Pre(-1)
	for _, c := range ctx {
		p := refParentOf(v, c)
		if p == lastPar {
			continue // sibling run: same parent as the previous context node
		}
		lastPar = p
		if p != xenc.NoPre && refMatches(t, v, p) {
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

func refAncestor(v xenc.DocView, ctx []xenc.Pre, t Test) []xenc.Pre {
	seen := make(map[xenc.Pre]bool)
	var out []xenc.Pre
	for _, c := range ctx {
		for p := refParentOf(v, c); p != xenc.NoPre; p = refParentOf(v, p) {
			if seen[p] {
				break // the rest of the chain was walked before
			}
			seen[p] = true
			if refMatches(t, v, p) {
				out = append(out, p)
			}
		}
	}
	sortPres(out)
	return out
}

func refAncestorOrSelf(v xenc.DocView, ctx []xenc.Pre, t Test) []xenc.Pre {
	out := append(refAncestor(v, ctx, t), refSelf(v, ctx, t)...)
	sortPres(out)
	return dedupe(out)
}

func refFollowingSibling(v xenc.DocView, ctx []xenc.Pre, t Test) []xenc.Pre {
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
			if v.Level(p) == lvl && refMatches(t, v, p) {
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

func refPrecedingSibling(v xenc.DocView, ctx []xenc.Pre, t Test) []xenc.Pre {
	var out []xenc.Pre
	sorted := true
	last := xenc.Pre(-1)
	for _, c := range ctx {
		par := refParentOf(v, c)
		if par == xenc.NoPre {
			continue
		}
		lvl := v.Level(c)
		p := xenc.SkipFree(v, par+1)
		for p < c {
			if v.Level(p) == lvl && refMatches(t, v, p) {
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

func refFollowing(v xenc.DocView, ctx []xenc.Pre, t Test) []xenc.Pre {
	if len(ctx) == 0 {
		return nil
	}
	// Ancestors of a node always precede it, so everything after the
	// earliest region end is in the following axis of the union.
	minEnd := xenc.Pre(-1)
	for _, c := range ctx {
		end := refRegionEnd(v, c)
		if minEnd < 0 || end < minEnd {
			minEnd = end
		}
	}
	var out []xenc.Pre
	n := v.Len()
	for p := xenc.SkipFree(v, minEnd+1); p < n; p = xenc.SkipFree(v, p+1) {
		if refMatches(t, v, p) {
			out = append(out, p)
		}
	}
	return out
}

func refPreceding(v xenc.DocView, ctx []xenc.Pre, t Test) []xenc.Pre {
	if len(ctx) == 0 {
		return nil
	}
	c := ctx[len(ctx)-1]
	anc := make(map[xenc.Pre]bool)
	for p := refParentOf(v, c); p != xenc.NoPre; p = refParentOf(v, p) {
		anc[p] = true
	}
	var out []xenc.Pre
	for p := xenc.SkipFree(v, 0); p < c; p = xenc.SkipFree(v, p+1) {
		if !anc[p] && refMatches(t, v, p) {
			out = append(out, p)
		}
	}
	return out
}

// refParentOf is the parent of the used tuple at c: from the parent table
// if v has one, else by the backward level scan.
func refParentOf(v xenc.DocView, c xenc.Pre) xenc.Pre {
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

// refRegionEnd is the rank of the last live tuple in c's region (c
// itself for a leaf).
func refRegionEnd(v xenc.DocView, c xenc.Pre) xenc.Pre {
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
