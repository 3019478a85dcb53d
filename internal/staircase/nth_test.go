package staircase_test

import (
	"fmt"
	"math/bits"
	"math/rand"
	"sort"
	"testing"

	"mxq/internal/core"
	"mxq/internal/shred"
	"mxq/internal/staircase"
	"mxq/internal/tx"
	"mxq/internal/wal"
	"mxq/internal/xenc"
	"mxq/internal/xmark"
	"mxq/internal/xpath"
)

// wideContexts returns up to max elements of v whose regions span more
// than span ranks, deepest first: the sibling lists a positional child
// step passes whole runs of.
func wideContexts(v xenc.DocView, span xenc.Pre, max int) []xenc.Pre {
	var wide []xenc.Pre
	for p, end := range regionEnds(v) {
		if end-p > span && v.Kind(p) == xenc.KindElem {
			wide = append(wide, p)
		}
	}
	sort.Slice(wide, func(i, j int) bool {
		if li, lj := v.Level(wide[i]), v.Level(wide[j]); li != lj {
			return li > lj
		}
		return wide[i] < wide[j]
	})
	if len(wide) > max {
		wide = wide[:max]
	}
	return wide
}

// checkNth holds Nth to the n-th match of the reference scan for n = 0,
// 1, 2, the middle, the last and one past it, on v and behind perTuple:
// on the child axis from every context in ctx, on the other scannable
// axes from the first.
func checkNth(t *testing.T, label string, v xenc.DocView, ctx []xenc.Pre) {
	t.Helper()
	for tname, test := range kernelTests(t, v) {
		for _, a := range kernelAxes {
			if !a.scan {
				continue
			}
			from := ctx
			if a.ax != staircase.AxisChild {
				from = ctx[:1]
			}
			for _, c := range from {
				var all []xenc.Pre
				staircase.ReferenceScan(v, c, a.ax, test, func(p xenc.Pre) bool {
					all = append(all, p)
					return true
				})
				for _, n := range []int{0, 1, 2, len(all) / 2, len(all), len(all) + 1} {
					want := xenc.NoPre
					if n >= 1 && n <= len(all) {
						want = all[n-1]
					}
					for side, view := range map[string]xenc.DocView{"kernel": v, "adapter": perTuple{v}} {
						if got := staircase.Nth(view, c, a.ax, test, n); got != want {
							t.Fatalf("%s: Nth %s::%s from %d, n=%d of %d: %s %d, reference %d", label, a.name, tname, c, n, len(all), side, got, want)
						}
					}
				}
			}
		}
	}
}

// siblingTree is a document whose list element has thousands of
// children — elements of two names, with subtrees from none to several
// pages, text between them, comments and processing instructions — after
// a head that makes the list start mid-page and before a tail that makes
// it end mid-page.
func siblingTree(rng *rand.Rand, pageSize int) *shred.Tree {
	b := shred.NewBuilder().Start("doc").Start("head").Elem("keyword", "h").End()
	b.Start("list")
	for i := 0; i < 3000; i++ {
		switch r := rng.Intn(20); {
		case r == 0:
			b.Comment("c")
		case r == 1:
			b.PI("tgt", "x")
		case r < 4:
			b.Text(fmt.Sprint(i))
		default:
			name := "a"
			if r%2 == 0 {
				name = "keyword"
			}
			b.Start(name)
			n := rng.Intn(4)
			if rng.Intn(40) == 0 {
				n = rng.Intn(4 * pageSize) // a child that straddles pages
			}
			for ; n > 0; n-- {
				b.Start("emph").Elem("keyword", "k").End()
			}
			b.End()
		}
	}
	return b.End().Start("tail").Elem("keyword", "t").End().End().Tree()
}

// checkSiblingLists holds the positional child step to the reference on
// sibling lists that span many pages: packed, with free runs inside the
// region left by deletes, after inserts that splice pages in, and in a
// transaction image beside its shared pages.
func checkSiblingLists(t *testing.T, rng *rand.Rand) {
	const pageSize = 64
	for _, fill := range []float64{1, 0.7} {
		s, err := core.Build(siblingTree(rng, pageSize), core.Options{PageSize: pageSize, FillFactor: fill})
		if err != nil {
			t.Fatal(err)
		}
		list := staircase.Nth(s, s.Root(), staircase.AxisChild, staircase.AnyNode(), 2)
		label := fmt.Sprintf("siblings/fill%g", fill)
		if s.Level(list) != 1 || list%pageSize == 0 {
			t.Fatalf("%s: list at %d does not start mid-page", label, list)
		}
		checkNth(t, label, s, []xenc.Pre{list, s.Root()})

		// Free runs inside the list's region, and pages spliced into it.
		kids := staircase.EvalAxis(s, []xenc.Pre{list}, staircase.AxisChild, staircase.AnyNode())
		var ids []xenc.NodeID
		for i := 0; i < 300; i++ {
			ids = append(ids, s.NodeOf(kids[rng.Intn(len(kids))]))
		}
		for i, id := range ids {
			p := s.PreOf(id)
			if p == xenc.NoPre {
				continue
			}
			op := wal.Op{Kind: wal.OpDelete, Target: id}
			if i%3 == 0 {
				b := shred.NewBuilder().Start("a")
				for j := rng.Intn(2 * pageSize); j > 0; j-- {
					b.Elem("keyword", "x")
				}
				op = wal.Op{Kind: wal.OpInsertBefore, Target: id, Frag: b.End().Tree()}
			}
			if _, err := s.Apply(op); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		checkNth(t, label+"/churned", s, []xenc.Pre{list})

		m := tx.NewManager(s, nil)
		txn := m.Begin()
		churn(t, txn, rng, 30, pageSize)
		checkNth(t, label+"/tx", txn, []xenc.Pre{txn.PreOf(s.NodeOf(list))})
		txn.Abort()
		if err := s.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	}
}

// counted forwards every view interface of a paged store and counts the
// calls the kernels make for columns and run counts.
type counted struct {
	*core.Store
	cols, live, summaries, seeks int
}

func (c *counted) Cols(p xenc.Pre) (xenc.Columns, int) { c.cols++; return c.Store.Cols(p) }
func (c *counted) Live(p xenc.Pre) (int, xenc.Pre)     { c.live++; return c.Store.Live(p) }
func (c *counted) Summary(p xenc.Pre) (*xenc.RunSummary, xenc.Pre) {
	c.summaries++
	return c.Store.Summary(p)
}
func (c *counted) SeekUsed(q xenc.Pre, m int) (xenc.Pre, int) {
	c.seeks++
	return c.Store.SeekUsed(q, m)
}

// columnsOnly forwards the columns and nothing more: the walk a view
// without summaries gets.
type columnsOnly struct {
	xenc.ColumnView
	cols, live int
}

func (c *columnsOnly) Cols(p xenc.Pre) (xenc.Columns, int) { c.cols++; return c.ColumnView.Cols(p) }
func (c *columnsOnly) Live(p xenc.Pre) (int, xenc.Pre)     { c.live++; return c.ColumnView.Live(p) }

// TestPositionalSelectCostIsFlat pins in exact call counts what the run
// summaries buy a seeding select, /site/people/person[k]/name/text():
// the columns and run counts it reads do not depend on k or on the
// document's size. Every subtree hop that leaves its run (the child
// steps under site cross regions, open_auctions and closed_auctions)
// costs one SeekUsed, a binary search over log2(pages) entries, besides
// the Live of the run it leaves and the Cols and Live of the run it lands
// in; the person[k] step reads the run it starts in and the run its k-th
// person is in. Without the summaries the same select reads a run for
// every page it crosses.
func TestPositionalSelectCostIsFlat(t *testing.T) {
	for _, sf := range []float64{0.01, 0.1} {
		s, err := core.Build(xmarkTree(t, sf), core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		persons := xmark.CountsFor(sf).Persons
		ks := []int{1, 2, persons / 3, persons / 2, persons - 1, persons}
		for k := 3; k < persons; k += persons / 23 {
			ks = append(ks, k)
		}
		lo, hi, maxSeeks := 1<<30, 0, 0
		for _, k := range ks {
			expr := xpath.MustParse(fmt.Sprintf("/site/people/person[%d]/name/text()", k))
			v := &counted{Store: s}
			got, err := expr.Select(v)
			if err != nil {
				t.Fatal(err)
			}
			want, err := expr.Select(perTuple{s})
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != 1 || len(want) != 1 || got[0] != want[0] {
				t.Fatalf("SF %g, k=%d: %v with summaries, %v per tuple", sf, k, got, want)
			}
			calls := v.cols + v.live
			lo, hi, maxSeeks = min(lo, calls), max(hi, calls), max(maxSeeks, v.seeks)
			// A constant for the steps, plus per cross the Live of the
			// run it leaves and the Cols and Live of the run it lands
			// in; the search each cross makes is log2(pages) steps
			// inside one SeekUsed.
			if bound := 6 + 3*v.seeks; calls > bound {
				t.Errorf("SF %g, k=%d: %d Cols + %d Live calls for %d crosses over %d pages (log2 %d), want at most %d",
					sf, k, v.cols, v.live, v.seeks, s.Pages(), bits.Len(uint(s.Pages())), bound)
			}
		}
		if hi-lo > 2 {
			t.Errorf("SF %g: %d to %d Cols + Live calls over k in %v, want the same for every k (within the two runs a person may straddle)", sf, lo, hi, ks)
		}
		t.Logf("SF %g (%d pages, %d persons): %d to %d Cols + Live calls, at most %d seeks", sf, s.Pages(), persons, lo, hi, maxSeeks)

		// The walk without summaries reads a run per page it passes.
		plain := &columnsOnly{ColumnView: s}
		if _, err := xpath.MustParse(fmt.Sprintf("/site/people/person[%d]/name/text()", persons)).Select(plain); err != nil {
			t.Fatal(err)
		}
		if plain.cols+plain.live <= hi {
			t.Errorf("SF %g: the walk without summaries made %d calls, not more than the %d with them", sf, plain.cols+plain.live, hi)
		}
	}
}
