package staircase_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"

	"mxq/internal/core"
	"mxq/internal/rostore"
	"mxq/internal/shred"
	"mxq/internal/staircase"
	"mxq/internal/tx"
	"mxq/internal/wal"
	"mxq/internal/xenc"
	"mxq/internal/xmark"
	"mxq/internal/xpath"
)

// perTuple hides everything but the DocView method set of a view, so the
// kernels read it through xenc.Columnar's adapter, one tuple a run, and
// find parents by the backward level scan: no Cols, no ParentPre.
type perTuple struct{ xenc.DocView }

var kernelAxes = []struct {
	name string
	ax   staircase.Axis
	scan bool // Scan supports it
}{
	{"self", staircase.AxisSelf, true},
	{"child", staircase.AxisChild, true},
	{"descendant", staircase.AxisDescendant, true},
	{"descendant-or-self", staircase.AxisDescendantOrSelf, true},
	{"parent", staircase.AxisParent, false},
	{"ancestor", staircase.AxisAncestor, false},
	{"ancestor-or-self", staircase.AxisAncestorOrSelf, false},
	{"following", staircase.AxisFollowing, true},
	{"following-sibling", staircase.AxisFollowingSibling, true},
	{"preceding", staircase.AxisPreceding, false},
	{"preceding-sibling", staircase.AxisPrecedingSibling, false},
}

func xmarkTree(tb testing.TB, sf float64) *shred.Tree {
	tb.Helper()
	var buf bytes.Buffer
	if _, err := xmark.NewGenerator(sf, 42).WriteTo(&buf); err != nil {
		tb.Fatal(err)
	}
	tree, err := shred.Parse(&buf, shred.Options{})
	if err != nil {
		tb.Fatal(err)
	}
	return tree
}

func liveRanks(v xenc.DocView) []xenc.Pre {
	var live []xenc.Pre
	for p := xenc.SkipFree(v, 0); p < v.Len(); p = xenc.SkipFree(v, p+1) {
		live = append(live, p)
	}
	return live
}

// kernelTests are the node-test shapes: node(), text(), *, a name the
// document has, and a name it does not have.
func kernelTests(tb testing.TB, v xenc.DocView) map[string]staircase.Test {
	tb.Helper()
	name, ok := v.Names().Lookup("keyword")
	if !ok {
		tb.Fatal("fixture has no keyword element")
	}
	return map[string]staircase.Test{
		"node()":  staircase.AnyNode(),
		"text()":  staircase.KindTest(xenc.KindText),
		"*":       staircase.Element(xenc.NoName),
		"keyword": staircase.Element(name),
		"absent":  staircase.Element(-2),
	}
}

// mutation is the surface core.Store and tx.Tx share.
type mutation interface {
	xenc.DocView
	Apply(wal.Op) ([]xenc.NodeID, error)
}

// churn applies n random inserts and deletes. Fragments run from one
// node to more than a page, so some inserts fit a page's free space and
// others overflow it and splice fresh pages into the logical order.
func churn(tb testing.TB, s mutation, rng *rand.Rand, n, pageSize int) {
	tb.Helper()
	for i := 0; i < n; i++ {
		// A random used tuple, never the root.
		target := xenc.SkipFree(s, 1+xenc.Pre(rng.Intn(int(s.Len())-1)))
		if target == s.Len() {
			continue
		}
		if rng.Intn(3) == 0 {
			if s.Size(target) > xenc.Size(4*pageSize) {
				continue
			}
			if _, err := s.Apply(wal.Op{Kind: wal.OpDelete, Target: s.NodeOf(target)}); err != nil {
				tb.Fatal(err)
			}
			continue
		}
		b := shred.NewBuilder().Start("keyword")
		for j := rng.Intn(2 * pageSize); j > 0; j-- {
			b.Elem("emph", "x")
		}
		frag := b.End().Tree()
		op := wal.Op{Kind: wal.OpInsertBefore, Target: s.NodeOf(target), Frag: frag}
		if s.Kind(target) == xenc.KindElem && rng.Intn(2) == 0 {
			op.Kind = wal.OpAppendChild
		}
		if _, err := s.Apply(op); err != nil {
			tb.Fatal(err)
		}
	}
}

// checkKernels compares every operator's kernel result on v, and on the
// same view behind perTuple, with its per-tuple reference result on v,
// over the five node tests and random ascending context sequences;
// pinned context nodes are added to every sequence's candidates.
func checkKernels(t *testing.T, label string, v xenc.DocView, rng *rand.Rand, pinned ...xenc.Pre) {
	t.Helper()
	if _, ok := v.(xenc.ColumnView); !ok {
		t.Fatalf("%s: %T is not a ColumnView", label, v)
	}
	adapted := perTuple{v}
	if _, ok := xenc.DocView(adapted).(xenc.ColumnView); ok {
		t.Fatal("perTuple leaks Cols")
	}
	live := liveRanks(v)
	var ctxs [][]xenc.Pre
	for _, size := range []int{1, 3, 40} {
		set := map[xenc.Pre]bool{}
		for _, p := range pinned {
			set[p] = true
		}
		for len(set) < size+len(pinned) {
			set[live[rng.Intn(len(live))]] = true
		}
		ctx := make([]xenc.Pre, 0, len(set))
		for p := range set {
			ctx = append(ctx, p)
		}
		sort.Slice(ctx, func(i, j int) bool { return ctx[i] < ctx[j] })
		ctxs = append(ctxs, ctx)
	}
	ctxs = append(ctxs, []xenc.Pre{v.Root()})
	checkNth(t, label, v, append(append([]xenc.Pre{ctxs[0][0]}, pinned...), wideContexts(v, 192, 6)...))
	for tname, test := range kernelTests(t, v) {
		for _, a := range kernelAxes {
			for _, ctx := range ctxs {
				want := staircase.Reference(v, ctx, a.ax, test)
				for side, view := range map[string]xenc.DocView{"kernel": v, "adapter": adapted} {
					got := staircase.EvalAxis(view, ctx, a.ax, test)
					if len(got)+len(want) > 0 && !reflect.DeepEqual(got, want) {
						t.Fatalf("%s: %s::%s over %d context nodes: %s %d ranks, reference %d; first difference at %d",
							label, a.name, tname, len(ctx), side, len(got), len(want), firstDiff(got, want))
					}
				}
				if !a.scan {
					continue
				}
				// Scan from the first context node: whole axis, then the
				// early exits a fused position takes.
				for _, k := range []int{0, 1, 3} {
					collect := func(scan func(xenc.DocView, xenc.Pre, staircase.Axis, staircase.Test, func(xenc.Pre) bool), view xenc.DocView) []xenc.Pre {
						var out []xenc.Pre
						scan(view, ctx[0], a.ax, test, func(p xenc.Pre) bool {
							out = append(out, p)
							return len(out) != k
						})
						return out
					}
					w := collect(staircase.ReferenceScan, v)
					for side, view := range map[string]xenc.DocView{"kernel": v, "adapter": adapted} {
						if g := collect(staircase.Scan, view); len(g)+len(w) > 0 && !reflect.DeepEqual(g, w) {
							t.Fatalf("%s: Scan %s::%s from %d stopping at %d: %s %v, reference %v", label, a.name, tname, ctx[0], k, side, g, w)
						}
					}
				}
			}
		}
	}
}

func firstDiff(a, b []xenc.Pre) int {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			return i
		}
	}
	if len(a) < len(b) {
		return len(a)
	}
	return len(b)
}

// TestKernelsMatchReference is the differential the column kernels stand
// on: on every kind of view that offers columns, in every state of the
// paged store a scan has to cope with, each operator's kernel returns
// exactly what its per-tuple reference returns — over the view's own
// columns and over xenc.Columnar's adapter alike — and so does the
// positional child step, which passes whole pages by their summaries,
// on sibling lists across many pages too.
func TestKernelsMatchReference(t *testing.T) {
	const pageSize = 64
	tree := xmarkTree(t, 0.01)
	rng := rand.New(rand.NewSource(14))

	ro, err := rostore.Build(tree)
	if err != nil {
		t.Fatal(err)
	}
	checkKernels(t, "rostore", ro, rng)

	s, err := core.Build(tree, core.Options{PageSize: pageSize, FillFactor: 0.8})
	if err != nil {
		t.Fatal(err)
	}
	checkKernels(t, "core/fresh", s, rng, spanContexts(t, "core/fresh", s, pageSize, false)...)
	checkPast(t, "core/fresh", s)

	// Every run packed and nothing free inside the document.
	full, err := core.Build(tree, core.Options{PageSize: pageSize, FillFactor: 1})
	if err != nil {
		t.Fatal(err)
	}
	checkKernels(t, "core/fill1.0", full, rng, spanContexts(t, "core/fill1.0", full, pageSize, false)...)
	checkPast(t, "core/fill1.0", full)

	// Churn, then empty a few whole pages: the first regions element has
	// thousands of descendants.
	churn(t, s, rng, 200, pageSize)
	name, _ := s.Names().Lookup("africa")
	big := staircase.EvalAxis(s, []xenc.Pre{s.Root()}, staircase.AxisDescendant, staircase.Element(name))
	if len(big) != 1 || s.Size(big[0]) < 3*pageSize {
		t.Fatalf("africa: %v", big)
	}
	if err := s.Delete(big[0]); err != nil {
		t.Fatal(err)
	}
	churn(t, s, rng, 100, pageSize)
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}

	// The states the kernels must cope with are all present.
	var holeMidPage, freePage, spliced bool
	lastSlot := xenc.NoPre
	for pg := xenc.Pre(0); pg < s.Len(); pg += pageSize {
		if s.PhysPage(pg) != pg/pageSize {
			spliced = true
		}
		used := 0
		for o := xenc.Pre(0); o < pageSize; o++ {
			if s.Level(pg+o) != xenc.LevelUnused {
				used++
				if o == pageSize-1 {
					lastSlot = pg + o
				}
			} else if used > 0 && o+1 < pageSize && s.Level(pg+o+1) != xenc.LevelUnused {
				holeMidPage = true
			}
		}
		if used == 0 {
			freePage = true
		}
	}
	if !holeMidPage || !freePage || !spliced || lastSlot == xenc.NoPre {
		t.Fatalf("fixture lacks a state: hole mid-page %v, fully free page %v, spliced pages %v, node in a page's last slot %v",
			holeMidPage, freePage, spliced, lastSlot != xenc.NoPre)
	}
	checkKernels(t, "core/churned", s, rng, append(spanContexts(t, "core/churned", s, pageSize, true), lastSlot)...)
	checkPast(t, "core/churned", s)

	// A transaction image mid-transaction: private pages beside shared
	// ones, the columns changing between (not during) operator calls.
	m := tx.NewManager(s, nil)
	txn := m.Begin()
	defer txn.Abort()
	for round := 0; round < 3; round++ {
		churn(t, txn, rng, 20, pageSize)
		checkKernels(t, fmt.Sprintf("tx/round%d", round), txn, rng)
	}
	// The image after a Delete of a subtree that spans pages.
	name, _ = txn.Names().Lookup("open_auctions")
	big = staircase.EvalAxis(txn, []xenc.Pre{txn.Root()}, staircase.AxisDescendant, staircase.Element(name))
	if len(big) != 1 || txn.Size(big[0]) < 3*pageSize {
		t.Fatalf("open_auctions: %v", big)
	}
	if _, err := txn.Apply(wal.Op{Kind: wal.OpDelete, Target: txn.NodeOf(big[0])}); err != nil {
		t.Fatal(err)
	}
	checkKernels(t, "tx/delete", txn, rng, spanContexts(t, "tx/delete", txn, pageSize, true)...)
	checkPast(t, "tx/delete", txn)

	checkSiblingLists(t, rng)
}

// regionEnds maps every used tuple of v to the rank just past its last
// live descendant (just past itself when it has none): the region end
// the per-tuple reference finds, from one pass over the accessors with a
// stack of the open nodes.
func regionEnds(v xenc.DocView) map[xenc.Pre]xenc.Pre {
	ends := map[xenc.Pre]xenc.Pre{}
	var open []xenc.Pre
	last := xenc.NoPre
	for _, p := range liveRanks(v) {
		for len(open) > 0 && v.Level(open[len(open)-1]) >= v.Level(p) {
			ends[open[len(open)-1]] = last + 1
			open = open[:len(open)-1]
		}
		open = append(open, p)
		last = p
	}
	for _, q := range open {
		ends[q] = last + 1
	}
	return ends
}

// spanContexts finds on v, whose runs are pages of pageSize tuples, the
// regions past has to cross runs for, and fails when one is missing:
// a region covering a whole packed run; with holes, a region covering a
// whole run that has a hole before its last used tuple; a region that
// crosses a run end and ends on the last used tuple of its final run;
// and the region of the root's last child, which ends with the view's
// last used tuple. It returns a context node for each.
func spanContexts(t *testing.T, label string, v xenc.DocView, pageSize xenc.Pre, holes bool) []xenc.Pre {
	t.Helper()
	pages := v.Len() / pageSize
	packed := make([]bool, pages)
	lastUsed := make([]xenc.Pre, pages)
	for g := range packed {
		base, free := xenc.Pre(g)*pageSize, false
		packed[g], lastUsed[g] = true, xenc.NoPre
		for o := xenc.Pre(0); o < pageSize; o++ {
			if v.Level(base+o) == xenc.LevelUnused {
				free = true
			} else {
				packed[g] = packed[g] && !free
				lastUsed[g] = base + o
			}
		}
	}
	wholePacked, wholeHoles, endsOnLast := xenc.NoPre, xenc.NoPre, xenc.NoPre
	ends := regionEnds(v)
	for _, p := range liveRanks(v) {
		end := ends[p]
		first, last := p/pageSize, (end-1)/pageSize
		for g := first + 1; g < last; g++ {
			if packed[g] && lastUsed[g] != xenc.NoPre {
				wholePacked = p
			} else if !packed[g] {
				wholeHoles = p
			}
		}
		if last > first && end-1 == lastUsed[last] {
			endsOnLast = p
		}
	}
	kids := staircase.EvalAxis(v, []xenc.Pre{v.Root()}, staircase.AxisChild, staircase.AnyNode())
	out := []xenc.Pre{wholePacked, endsOnLast, kids[len(kids)-1]}
	if holes {
		out = append(out, wholeHoles)
	}
	for i, p := range out {
		if p == xenc.NoPre {
			t.Fatalf("%s: fixture lacks region shape %d (whole packed run, ends on a run's last used tuple, last child, whole run with holes)", label, i)
		}
	}
	return out
}

// checkPast holds the kernels' subtree hop to the per-tuple region end
// for every used tuple of v: exact where the hop leaves the tuple's run,
// and never past the end where it stays inside. On a paged store it
// holds the store's own walks, which go through the kernels, there too.
func checkPast(t *testing.T, label string, v xenc.ColumnView) {
	t.Helper()
	s, _ := v.(*core.Store)
	crossed := 0
	for p, end := range regionEnds(v) {
		got, cross := staircase.Past(v, p)
		if cross {
			crossed++
		}
		if cross && got != end || got <= p || got > end {
			t.Fatalf("%s: past(%d) = %d (left its run: %v), region ends at %d", label, p, got, cross, end)
		}
		if s != nil {
			checkStoreWalks(t, label, s, p, end)
		}
	}
	if crossed == 0 {
		t.Fatalf("%s: no region left its run", label)
	}
}

// checkStoreWalks holds the update path's RegionEnd and NthChild and the
// element string-value to the per-tuple reference at the used tuple p of
// s, whose region ends just before end.
func checkStoreWalks(t *testing.T, label string, s *core.Store, p, end xenc.Pre) {
	t.Helper()
	if got := s.RegionEnd(p); got != end-1 {
		t.Fatalf("%s: RegionEnd(%d) = %d, region ends at %d", label, p, got, end)
	}
	kids := staircase.Reference(s, []xenc.Pre{p}, staircase.AxisChild, staircase.AnyNode())
	for i, want := range append(kids, xenc.NoPre) {
		if got := s.NthChild(p, i); got != want {
			t.Fatalf("%s: NthChild(%d, %d) = %d, want %d", label, p, i, got, want)
		}
	}
	if got := s.NthChild(p, -1); got != xenc.NoPre {
		t.Fatalf("%s: NthChild(%d, -1) = %d, want NoPre", label, p, got)
	}
	if s.Kind(p) != xenc.KindElem {
		return
	}
	var want strings.Builder
	for _, q := range staircase.Reference(s, []xenc.Pre{p}, staircase.AxisDescendant, staircase.KindTest(xenc.KindText)) {
		want.WriteString(s.Value(q))
	}
	if got := xpath.StringValue(s, xpath.ElemNode(p)); got != want.String() {
		t.Fatalf("%s: string-value of %d = %q, want %q", label, p, got, want.String())
	}
}

// levelCounter is a view without columns but with the store's parent
// table: it forwards ParentPre and counts the Level reads the kernels
// make through xenc.Columnar's adapter.
type levelCounter struct {
	xenc.DocView
	parents xenc.ParentView
	levels  int
}

func (l *levelCounter) Level(p xenc.Pre) xenc.Level   { l.levels++; return l.DocView.Level(p) }
func (l *levelCounter) ParentPre(p xenc.Pre) xenc.Pre { return l.parents.ParentPre(p) }

// TestParentLookupDoesNotScanSiblings pins that parent and ancestor steps
// cost O(depth) on a view with a parent table. The backward level scan
// they fall back on reads over the subtrees of all preceding siblings —
// 10,000 tuples here — to find one parent.
func TestParentLookupDoesNotScanSiblings(t *testing.T) {
	const siblings, depth = 5000, 3
	b := shred.NewBuilder().Start("root")
	for i := 0; i < siblings; i++ {
		b.Start("c").Elem("d", "x").End()
	}
	s, err := core.Build(b.End().Tree(), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	name, _ := s.Names().Lookup("d")
	ds := staircase.EvalAxis(s, []xenc.Pre{s.Root()}, staircase.AxisDescendant, staircase.Element(name))
	if len(ds) != siblings {
		t.Fatalf("%d d elements", len(ds))
	}
	last := ds[len(ds)-1:] // the d under the last of 5000 c siblings
	for _, tc := range []struct {
		axis staircase.Axis
		want int
	}{
		{staircase.AxisParent, 1},
		{staircase.AxisAncestor, depth - 1},
		{staircase.AxisAncestorOrSelf, depth},
	} {
		v := &levelCounter{DocView: s, parents: s}
		got := staircase.EvalAxis(v, last, tc.axis, staircase.Element(xenc.NoName))
		if len(got) != tc.want {
			t.Fatalf("axis %d: %d results, want %d", tc.axis, len(got), tc.want)
		}
		if want := staircase.Reference(perTuple{s}, last, tc.axis, staircase.Element(xenc.NoName)); !reflect.DeepEqual(got, want) {
			t.Fatalf("axis %d: %v through the parent table, %v by the backward scan", tc.axis, got, want)
		}
		if v.levels > 2*depth {
			t.Errorf("axis %d from the last of %d siblings: %d Level reads, want O(depth %d)", tc.axis, siblings, v.levels, depth)
		}
	}
}
