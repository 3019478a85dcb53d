package mxq

// BenchmarkStaircaseSkipping quantifies claim C2 (Section 2.2): the
// staircase child step finds children by positional sibling hops
// (pre += size+1), skipping whole subtrees, where a tree-unaware plan
// scans every tuple in the region and filters by level. The deeper the
// subtrees under the context node, the bigger the win.

import (
	"fmt"
	"testing"

	"mxq/internal/rostore"
	"mxq/internal/shred"
	"mxq/internal/staircase"
	"mxq/internal/xenc"
)

// bushyTree builds a root with fan children, each carrying a chain of
// depth descendants — the shape where sibling hops skip the most.
func bushyTree(fan, depth int) *shred.Tree {
	b := shred.NewBuilder().Start("root")
	for i := 0; i < fan; i++ {
		b.Start("child")
		for d := 0; d < depth; d++ {
			b.Start("deep")
		}
		b.Text("x")
		for d := 0; d < depth; d++ {
			b.End()
		}
		b.End()
	}
	return b.End().Tree()
}

// scanChildren is the tree-unaware baseline: visit every tuple in the
// region and keep the ones at level+1.
func scanChildren(v xenc.DocView, c xenc.Pre, name int32) []xenc.Pre {
	var out []xenc.Pre
	lvl := v.Level(c)
	for p := xenc.SkipFree(v, c+1); p < v.Len() && v.Level(p) > lvl; p = xenc.SkipFree(v, p+1) {
		if v.Level(p) == lvl+1 && v.Kind(p) == xenc.KindElem && v.Name(p) == name {
			out = append(out, p)
		}
	}
	return out
}

func BenchmarkStaircaseSkipping(b *testing.B) {
	for _, depth := range []int{4, 16, 64} {
		depth := depth
		s, err := rostore.Build(bushyTree(500, depth))
		if err != nil {
			b.Fatal(err)
		}
		name, _ := s.Names().Lookup("child")
		ctx := []xenc.Pre{s.Root()}
		want := len(staircase.EvalAxis(s, ctx, staircase.AxisChild, staircase.Element(name)))
		if want != 500 {
			b.Fatalf("child count = %d", want)
		}
		b.Run(fmt.Sprintf("staircase/depth%d", depth), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if got := staircase.EvalAxis(s, ctx, staircase.AxisChild, staircase.Element(name)); len(got) != want {
					b.Fatal("wrong result")
				}
			}
		})
		b.Run(fmt.Sprintf("scan/depth%d", depth), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if got := scanChildren(s, s.Root(), name); len(got) != want {
					b.Fatal("wrong result")
				}
			}
		})
	}
}

// perTupleView hides a store's columns and parent table behind the bare
// DocView method set, so the staircase kernels read it through
// xenc.Columnar's adapter, one tuple a run.
type perTupleView struct{ xenc.DocView }

// BenchmarkStaircaseKernels times each column kernel on the paged store
// (XMark SF 0.1, pages 80% full): "cols" is the store as queries see it,
// "adapter" the same store with its columns hidden, read through
// xenc.Columnar one tuple at a time. The custom metric divides by the work the
// operator cannot avoid — ns/slot over the slots a sweep covers, ns/hop
// over the siblings a hop loop visits, ns/page over the pages a hop
// crosses — so it carries across scale factors.
func BenchmarkStaircaseKernels(b *testing.B) {
	s := getFixture(b, 0.1).up
	lookup := func(name string) int32 {
		id, ok := s.Names().Lookup(name)
		if !ok {
			b.Fatalf("fixture has no %s element", name)
		}
		return id
	}
	root := []xenc.Pre{s.Root()}
	persons := staircase.EvalAxis(s, root, staircase.AxisDescendant, staircase.Element(lookup("person")))
	items := staircase.EvalAxis(s, root, staircase.AxisDescendant, staircase.Element(lookup("item")))
	people := staircase.EvalAxis(s, persons[:1], staircase.AxisParent, staircase.AnyNode())
	parents := append(append([]xenc.Pre{}, items...), persons...) // regions precede people
	children := len(staircase.EvalAxis(s, parents, staircase.AxisChild, staircase.AnyNode()))
	k := len(persons) / 2
	person, name, keyword := staircase.Element(lookup("person")), staircase.Element(lookup("name")), staircase.Element(lookup("keyword"))

	cases := []struct {
		name, unit string
		work       int // slots or hops per call
		want       int // result count
		run        func(v xenc.DocView) int
	}{
		{"descendant-root", "ns/slot", int(s.Len()), -1, func(v xenc.DocView) int {
			return len(staircase.EvalAxis(v, root, staircase.AxisDescendant, keyword))
		}},
		// The child step of /site/*: six hops, each over a subtree of
		// many pages, so the metric is per page of the document.
		{"child-site", "ns/page", s.Pages(), len(staircase.EvalAxis(s, root, staircase.AxisChild, staircase.AnyNode())), func(v xenc.DocView) int {
			return len(staircase.EvalAxis(v, root, staircase.AxisChild, staircase.AnyNode()))
		}},
		{"child-person-item", "ns/hop", children, len(parents), func(v xenc.DocView) int {
			return len(staircase.EvalAxis(v, parents, staircase.AxisChild, name))
		}},
		{"fused-person-k", "ns/hop", k, 1, func(v xenc.DocView) int {
			n, hit := 0, 0
			staircase.Scan(v, people[0], staircase.AxisChild, person, func(xenc.Pre) bool {
				n++
				if n == k {
					hit++
				}
				return n < k
			})
			return hit
		}},
		{"following-sibling", "ns/hop", len(persons) - 1, len(persons) - 1, func(v xenc.DocView) int {
			return len(staircase.EvalAxis(v, persons[:1], staircase.AxisFollowingSibling, person))
		}},
		{"parent-last-sibling", "ns/hop", 1, 1, func(v xenc.DocView) int {
			return len(staircase.EvalAxis(v, persons[len(persons)-1:], staircase.AxisParent, staircase.Element(xenc.NoName)))
		}},
	}
	for _, tc := range cases {
		for _, side := range []struct {
			name string
			v    xenc.DocView
		}{{"cols", s}, {"adapter", perTupleView{s}}} {
			b.Run(tc.name+"/"+side.name, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if got := tc.run(side.v); got != tc.want && tc.want >= 0 {
						b.Fatalf("%d results, want %d", got, tc.want)
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(tc.work), tc.unit)
			})
		}
	}
}
