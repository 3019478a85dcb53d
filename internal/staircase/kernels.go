package staircase

// The column kernels: the body of every operator.
//
// A kernel asks the view for the column slices of one run at a time
// (xenc.Columns: one logical page of the paged store, the whole document
// of the read-only store, one tuple behind xenc.Columnar's adapter) and
// loops over them directly: a region ends at the first used tuple whose
// level is not below the context's, free runs and sibling subtrees are
// hopped by the size column, a name test is one integer compare, and the
// next run is fetched only when a rank crosses a run boundary. A subtree
// hop that leaves its run (past) subtracts whole runs by their live
// counts (ColumnView.Live) without fetching their columns, or, on a view
// with summaries (xenc.IndexView), finds the run where the subtree ends
// by one SeekUsed. A positional child step (nth) on such a view passes
// each run that lies inside its context's region by the run's count of
// matching tuples at the child level. The per-tuple reference in
// reference_test.go, which reads the DocView accessors, is what
// TestKernelsMatchReference holds them to, rank for rank.

import (
	"sort"

	"mxq/internal/xenc"
)

// cursor is a position in a view's columns: the columns of the run
// loaded last and the view ranks [base, end) they cover. It lives for one
// operator call, during which the view does not change.
type cursor struct {
	v         xenc.ColumnView
	pv        xenc.ParentView // nil when the view has no parent table
	iv        xenc.IndexView  // nil when the view keeps no run summaries
	n         xenc.Pre        // v.Len()
	base, end xenc.Pre
	xenc.Columns
}

// newCursor reads v's columns, through xenc.Columnar's adapter if v has
// none. The parent table and the run summaries are v's own: the adapter
// hides them.
func newCursor(v xenc.DocView) *cursor {
	k := &cursor{v: xenc.Columnar(v), n: v.Len()}
	k.pv, _ = v.(xenc.ParentView)
	k.iv, _ = v.(xenc.IndexView)
	return k
}

// at returns the index of view rank p (0 <= p < n) in the loaded
// columns, loading p's run first if p lies outside the current one.
func (k *cursor) at(p xenc.Pre) int {
	if p < k.base || p >= k.end {
		k.load(p)
	}
	return int(p - k.base)
}

func (k *cursor) load(p xenc.Pre) {
	var i int
	k.Columns, i = k.v.Cols(p)
	k.base = p - xenc.Pre(i)
	k.end = k.base + xenc.Pre(len(k.Level))
}

// levelAt returns the level column value at p.
func (k *cursor) levelAt(p xenc.Pre) xenc.Level { return k.Level[k.at(p)] }

// matches reports whether the used tuple at index i of the loaded run
// satisfies the test.
func (k *cursor) matches(t Test, i int) bool { return t.accepts(k.Kind[i], k.Name[i]) }

// accepts reports whether a used tuple of the kind and name satisfies the
// test.
func (t Test) accepts(kind uint8, name int32) bool {
	return !t.kindSet || (t.name == xenc.NoName || name == t.name) && kind == uint8(t.kind)
}

// sweep is the bulk scan under the descendant, following and preceding
// axes. It appends the matching used tuples of [from, to) to out and
// stops early at the first used tuple whose level is at or below floor —
// the end of the region of a context node at that level; floor
// xenc.LevelUnused never stops early. to is at most n. It returns the
// rank it stopped at.
func (k *cursor) sweep(from, to xenc.Pre, floor xenc.Level, t Test, out []xenc.Pre) ([]xenc.Pre, xenc.Pre) {
	// The name column decides first: under a name test nearly every tuple
	// fails it, and the kind column then only tells an element from a
	// processing instruction whose target interned alike.
	anyKind, kind := !t.kindSet, uint8(t.kind)
	anyName := anyKind || t.name == xenc.NoName
	for p := from; p < to; p = k.end {
		i := k.at(p)
		lim := len(k.Level)
		if rest := int(to - k.base); rest < lim {
			lim = rest
		}
		// Equal lengths, so one bound check covers the four columns.
		lv, sz, kd, nm := k.Level[:lim], k.Size[:lim], k.Kind[:lim], k.Name[:lim]
		for ; i < len(lv); i++ {
			if l := lv[i]; l <= floor {
				if l != xenc.LevelUnused {
					return out, k.base + xenc.Pre(i)
				}
				i += int(sz[i]) // hop the free run; it ends inside this run
			} else if (anyName || nm[i] == t.name) && (anyKind || kd[i] == kind) {
				out = append(out, k.base+xenc.Pre(i))
			}
		}
	}
	return out, to
}

// each is sweep to the end of the view with early exit: it hands every
// match to fn until fn returns false. It steps tuple by tuple — a fused
// position stops it after a few matches, so there is no bulk to win.
func (k *cursor) each(from xenc.Pre, floor xenc.Level, t Test, fn func(xenc.Pre) bool) {
	for p := from; p < k.n; p++ {
		i := k.at(p)
		if l := k.Level[i]; l <= floor {
			if l != xenc.LevelUnused {
				return
			}
			p += k.Size[i]
		} else if k.matches(t, i) && !fn(p) {
			return
		}
	}
}

// hop enumerates the siblings at level lvl from p on: it tests the used
// tuple at p, goes past its subtree or free run, and goes on until a used
// tuple above lvl in the tree, rank to, or fn returning false. It returns
// the rank it stopped at.
func (k *cursor) hop(p, to xenc.Pre, lvl xenc.Level, t Test, fn func(xenc.Pre) bool) xenc.Pre {
	for p < to {
		i := k.at(p)
		if l := k.Level[i]; l != xenc.LevelUnused && (l < lvl || l == lvl && k.matches(t, i) && !fn(p)) {
			break
		}
		p = k.past(p, i)
	}
	return p
}

// past returns the rank behind the subtree or free run at p, index i of
// the loaded run. Inside the run that is p+size+1, short of a subtree's
// end by its free tuples (callers go on past such a landing). A subtree
// that leaves the run ends exactly: cross counts the descendants left in
// it, subtracts whole runs by their live counts (or seeks the run that
// holds the last one, on a view with summaries) and lands behind the
// last descendant, O(1) a run if packed (used tuples first, then one
// free run to its end), linear otherwise.
func (k *cursor) past(p xenc.Pre, i int) xenc.Pre {
	if p += k.Size[i] + 1; p > k.end {
		return k.cross(i) // out of line, so that past inlines
	}
	return p
}

func (k *cursor) cross(i int) xenc.Pre {
	live, _ := k.v.Live(k.base)
	_, m := k.skip(i+1, int(k.Size[i]), live) // descendants behind the run
	q := k.end
	if k.iv != nil {
		q, m = k.iv.SeekUsed(q, m)
	}
	for q < k.n {
		n, end := k.v.Live(q)
		if n >= m {
			k.load(q)
			j, _ := k.skip(0, m, n)
			return q + xenc.Pre(j)
		}
		m, q = m-n, end
	}
	return k.n
}

// skip passes m used tuples of the loaded run, which holds live ones,
// from index j on. It returns the index behind the last one passed and
// how many of the m the run did not hold.
func (k *cursor) skip(j, m, live int) (int, int) {
	if n := len(k.Level); live == n || k.Level[live] == xenc.LevelUnused && int(k.Size[live]) == n-live-1 {
		if m > live-j {
			return n, m - (live - j)
		}
		return j + m, 0
	}
	for ; j < len(k.Level) && m > 0; j++ {
		if k.Level[j] != xenc.LevelUnused {
			m--
		}
	}
	return j, m
}

// nth returns the n-th (n >= 1) child of c that matches t, or NoPre: the
// sibling hops of child, counted. Where a hop reaches the end of the run
// (a sibling's subtree leaves it, or only free tuples are left in it), a
// view with summaries passes every following run that lies inside c's
// region — no used tuple at c's level or above — by its count of
// matching tuples one level below c, without loading its columns. After
// such runs, every tuple ahead of the first one at the child level
// belongs to a sibling that straddles in, and the hops go on through
// them. A view without summaries crosses as past does.
func (k *cursor) nth(c xenc.Pre, t Test, n int) xenc.Pre {
	top := k.levelAt(c)
	lvl := top + 1
	for p := c + 1; p < k.n; {
		i := k.at(p)
		if l := k.Level[i]; l != xenc.LevelUnused {
			if l < lvl {
				break
			}
			if l == lvl && k.matches(t, i) {
				if n--; n == 0 {
					return p
				}
			}
		}
		if k.iv == nil || p+k.Size[i]+1 < k.end {
			p = k.past(p, i)
			continue
		}
		// The rest of the run lies in the subtree or free run at p.
		for p = k.end; p < k.n; {
			sum, end := k.iv.Summary(p)
			if sum.MinLevel <= top {
				break // the region ends in this run
			}
			m := t.count(sum, lvl)
			if m >= n {
				break // the n-th lies in this run
			}
			n, p = n-m, end
		}
	}
	return xenc.NoPre
}

// count returns the used tuples of a run summary at level lvl that match
// the test.
func (t Test) count(s *xenc.RunSummary, lvl xenc.Level) int {
	c := s.Counts
	n := 0
	for j := sort.Search(len(c), func(j int) bool { return c[j].Level >= lvl }); j < len(c) && c[j].Level == lvl; j++ {
		if t.accepts(c[j].Kind, c[j].Name) {
			n += int(c[j].N)
		}
	}
	return n
}

// parent returns the parent of the used tuple at c: from the view's
// parent table if it has one, else by the backward level scan — the
// nearest preceding used tuple with a smaller level is the parent in
// pre-order — which reads back over the subtrees of all of c's preceding
// siblings.
func (k *cursor) parent(c xenc.Pre) xenc.Pre {
	if k.pv != nil {
		return k.pv.ParentPre(c)
	}
	lvl := k.levelAt(c)
	if lvl == 0 {
		return xenc.NoPre
	}
	for p := c - 1; p >= 0; p-- {
		if l := k.levelAt(p); l != xenc.LevelUnused && l < lvl {
			return p
		}
	}
	return xenc.NoPre
}

// after returns the first used tuple behind c's region, or n: past c,
// then past what a short landing left inside the region.
func (k *cursor) after(c xenc.Pre) xenc.Pre {
	i := k.at(c)
	lvl := k.Level[i]
	p := k.past(c, i)
	for p < k.n {
		i = k.at(p)
		if l := k.Level[i]; l != xenc.LevelUnused && l <= lvl {
			break
		}
		p = k.past(p, i)
	}
	return p
}

// merger collects the ranks an operator emits context node by context
// node. They nearly always arrive ascending; it notices when they do not
// (cousin contexts) and only then sorts and dedupes.
type merger struct {
	out      []xenc.Pre
	last     xenc.Pre
	unsorted bool
}

func newMerger() *merger { return &merger{last: -1} }

// add appends p; it returns true so that it can serve as a hop callback.
func (m *merger) add(p xenc.Pre) bool {
	if p <= m.last {
		m.unsorted = true
	}
	m.last = p
	m.out = append(m.out, p)
	return true
}

func (m *merger) result() []xenc.Pre {
	if m.unsorted {
		sortPres(m.out)
		m.out = dedupe(m.out)
	}
	return m.out
}

// --- the operators ----------------------------------------------------------

// scan is Scan: one forward axis from c, with early exit.
func (k *cursor) scan(c xenc.Pre, ax Axis, t Test, fn func(xenc.Pre) bool) {
	i := k.at(c)
	lvl := k.Level[i]
	switch ax {
	case AxisSelf:
		if k.matches(t, i) {
			fn(c)
		}
	case AxisChild:
		k.hop(c+1, k.n, lvl+1, t, fn)
	case AxisDescendant, AxisDescendantOrSelf:
		if ax == AxisDescendantOrSelf && k.matches(t, i) && !fn(c) {
			return
		}
		k.each(c+1, lvl, t, fn)
	case AxisFollowingSibling:
		if lvl > 0 {
			k.hop(k.past(c, i), k.n, lvl, t, fn)
		}
	case AxisFollowing:
		k.each(k.after(c), xenc.LevelUnused, t, fn)
	}
}

// self filters the context sequence by the test.
func (k *cursor) self(ctx []xenc.Pre, t Test) []xenc.Pre {
	var out []xenc.Pre
	for _, c := range ctx {
		if k.matches(t, k.at(c)) {
			out = append(out, c)
		}
	}
	return out
}

// descendant returns the matching descendants of the context sequence in
// document order, and the matching context nodes too if self. Context
// nodes inside an already-swept region are pruned (the staircase
// "pruning"), so the sweep touches every result region exactly once.
func (k *cursor) descendant(ctx []xenc.Pre, t Test, self bool) []xenc.Pre {
	var out []xenc.Pre
	high := xenc.Pre(-1) // last rank of the regions swept so far
	for _, c := range ctx {
		if c <= high {
			continue // pruned: c lies inside a region swept before
		}
		i := k.at(c)
		lvl := k.Level[i]
		if self && k.matches(t, i) {
			out = append(out, c)
		}
		var stop xenc.Pre
		out, stop = k.sweep(c+1, k.n, lvl, t, out)
		high = stop - 1
	}
	return out
}

// child returns the matching children of the context sequence, hopping
// from sibling to sibling with pre += size+1 ("finding all children of a
// node works by checking the first child and skipping to its siblings").
// With free space interleaved a hop may land inside the previous child's
// region; the level test detects that and the hop continues from there,
// so each extra hole costs at most one extra hop.
func (k *cursor) child(ctx []xenc.Pre, t Test) []xenc.Pre {
	m := newMerger()
	for _, c := range ctx {
		k.hop(c+1, k.n, k.levelAt(c)+1, t, m.add)
	}
	return m.result()
}

// parents returns the distinct parents of the context sequence. Runs of
// sibling context nodes share a parent, so consecutive repeats are
// collapsed during the walk; the merge sort only fires when parents of
// later context nodes actually land out of order (cousin sequences).
func (k *cursor) parents(ctx []xenc.Pre, t Test) []xenc.Pre {
	m := newMerger()
	lastPar := xenc.NoPre
	for _, c := range ctx {
		p := k.parent(c)
		if p == lastPar {
			continue // sibling run: same parent as the previous context node
		}
		lastPar = p
		if p != xenc.NoPre && k.matches(t, k.at(p)) {
			m.add(p)
		}
	}
	return m.result()
}

// ancestor returns the distinct ancestors of the context sequence, and
// the matching context nodes too if self. A chain walk stops at the
// first node walked before: the rest of the chain was walked with it.
// An ancestor precedes its descendants, so a context node is marked seen
// before any later context node's walk can reach it.
func (k *cursor) ancestor(ctx []xenc.Pre, t Test, self bool) []xenc.Pre {
	seen := make(map[xenc.Pre]bool)
	var out []xenc.Pre
	for _, c := range ctx {
		if self {
			seen[c] = true
			if k.matches(t, k.at(c)) {
				out = append(out, c)
			}
		}
		for p := k.parent(c); p != xenc.NoPre && !seen[p]; p = k.parent(p) {
			seen[p] = true
			if k.matches(t, k.at(p)) {
				out = append(out, p)
			}
		}
	}
	sortPres(out)
	return out
}

// followingSibling returns the matching following siblings. Sibling-run
// pruning: once one context node's sibling run is scanned, every later
// context node inside that run at the same level is itself a following
// sibling of the first — its results are a suffix of what was already
// emitted — so it is skipped without touching a tuple.
func (k *cursor) followingSibling(ctx []xenc.Pre, t Test) []xenc.Pre {
	m := newMerger()
	runHigh := xenc.Pre(-1) // last rank examined by the previous sibling scan
	runLvl := xenc.Level(-2)
	for _, c := range ctx {
		i := k.at(c)
		lvl := k.Level[i]
		if lvl == 0 {
			continue // the root has no siblings
		}
		if c <= runHigh && lvl == runLvl {
			continue // pruned: c is a sibling inside the run scanned before
		}
		stop := k.hop(k.past(c, i), k.n, lvl, t, m.add)
		runHigh, runLvl = stop-1, lvl
	}
	return m.result()
}

// precedingSibling returns the matching preceding siblings: the hops
// from each context node's parent's first child up to it.
func (k *cursor) precedingSibling(ctx []xenc.Pre, t Test) []xenc.Pre {
	m := newMerger()
	for _, c := range ctx {
		if par := k.parent(c); par != xenc.NoPre {
			k.hop(par+1, c, k.levelAt(c), t, m.add)
		}
	}
	return m.result()
}

// following returns everything after the context regions. The staircase
// observation: following(ctx) == following(c*) where c* is the context
// node whose region ends first, so one sweep suffices.
func (k *cursor) following(ctx []xenc.Pre, t Test) []xenc.Pre {
	if len(ctx) == 0 {
		return nil
	}
	// Regions nest or follow one another, so the region that ends first
	// is also the one with the earliest tuple behind it.
	start := k.n
	for _, c := range ctx {
		if a := k.after(c); a < start {
			start = a
		}
	}
	out, _ := k.sweep(start, k.n, xenc.LevelUnused, t, nil)
	return out
}

// preceding returns everything before the context nodes except their
// ancestors. The dual staircase observation: preceding(ctx) ==
// preceding(max ctx).
func (k *cursor) preceding(ctx []xenc.Pre, t Test) []xenc.Pre {
	if len(ctx) == 0 {
		return nil
	}
	c := ctx[len(ctx)-1]
	var anc []xenc.Pre // descending
	for p := k.parent(c); p != xenc.NoPre; p = k.parent(p) {
		anc = append(anc, p)
	}
	// Sweep the stretches between consecutive ancestors, which leaves
	// the ancestors themselves out.
	var out []xenc.Pre
	from := xenc.Pre(0)
	for j := len(anc) - 1; j >= 0; j-- {
		out, _ = k.sweep(from, anc[j], xenc.LevelUnused, t, out)
		from = anc[j] + 1
	}
	out, _ = k.sweep(from, c, xenc.LevelUnused, t, out)
	return out
}
