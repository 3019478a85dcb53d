package staircase_test

import (
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
	"mxq/internal/xenc"
)

const paperDoc = `<a><b><c><d/><e/></c></b><f><g/><h><i/><j/></h></f></a>`

// oracle recomputes every axis with plain tree semantics (parent array
// built by a stack over the live view), independent of sizes and runs.
type oracle struct {
	pres   []xenc.Pre
	parent map[xenc.Pre]xenc.Pre
	index  map[xenc.Pre]int
}

func newOracle(v xenc.DocView) *oracle {
	o := &oracle{parent: map[xenc.Pre]xenc.Pre{}, index: map[xenc.Pre]int{}}
	var stack []xenc.Pre
	for p := xenc.SkipFree(v, 0); p < v.Len(); p = xenc.SkipFree(v, p+1) {
		lvl := v.Level(p)
		stack = stack[:lvl]
		if lvl == 0 {
			o.parent[p] = xenc.NoPre
		} else {
			o.parent[p] = stack[lvl-1]
		}
		stack = append(stack, p)
		o.index[p] = len(o.pres)
		o.pres = append(o.pres, p)
	}
	return o
}

func (o *oracle) isAncestor(a, d xenc.Pre) bool {
	for p := o.parent[d]; p != xenc.NoPre; p = o.parent[p] {
		if p == a {
			return true
		}
	}
	return false
}

func (o *oracle) axis(name string, ctx []xenc.Pre) []xenc.Pre {
	in := func(p xenc.Pre) bool {
		for _, c := range ctx {
			switch name {
			case "self":
				if p == c {
					return true
				}
			case "child":
				if o.parent[p] == c {
					return true
				}
			case "parent":
				if o.parent[c] == p {
					return true
				}
			case "descendant":
				if o.isAncestor(c, p) {
					return true
				}
			case "descendant-or-self":
				if p == c || o.isAncestor(c, p) {
					return true
				}
			case "ancestor":
				if o.isAncestor(p, c) {
					return true
				}
			case "ancestor-or-self":
				if p == c || o.isAncestor(p, c) {
					return true
				}
			case "following-sibling":
				if o.parent[p] == o.parent[c] && o.parent[c] != xenc.NoPre && p > c {
					return true
				}
			case "preceding-sibling":
				if o.parent[p] == o.parent[c] && o.parent[c] != xenc.NoPre && p < c {
					return true
				}
			case "following":
				if p > c && !o.isAncestor(c, p) && !o.isAncestor(p, c) {
					return true
				}
			case "preceding":
				if p < c && !o.isAncestor(c, p) && !o.isAncestor(p, c) {
					return true
				}
			}
		}
		return false
	}
	var out []xenc.Pre
	for _, p := range o.pres {
		if in(p) {
			out = append(out, p)
		}
	}
	return out
}

var axisIDs = map[string]staircase.Axis{
	"self":               staircase.AxisSelf,
	"child":              staircase.AxisChild,
	"parent":             staircase.AxisParent,
	"descendant":         staircase.AxisDescendant,
	"descendant-or-self": staircase.AxisDescendantOrSelf,
	"ancestor":           staircase.AxisAncestor,
	"ancestor-or-self":   staircase.AxisAncestorOrSelf,
	"following-sibling":  staircase.AxisFollowingSibling,
	"preceding-sibling":  staircase.AxisPrecedingSibling,
	"following":          staircase.AxisFollowing,
	"preceding":          staircase.AxisPreceding,
}

// forwardScanAxes are the axes Scan supports.
var forwardScanAxes = []string{
	"self", "child", "descendant", "descendant-or-self",
	"following-sibling", "following",
}

func checkAllAxes(t *testing.T, v xenc.DocView, label string) {
	t.Helper()
	o := newOracle(v)
	rng := rand.New(rand.NewSource(7))
	// Single-node contexts for every node, plus random multi-node ones.
	var ctxs [][]xenc.Pre
	for _, p := range o.pres {
		ctxs = append(ctxs, []xenc.Pre{p})
	}
	for i := 0; i < 12; i++ {
		n := 1 + rng.Intn(4)
		set := map[xenc.Pre]bool{}
		for j := 0; j < n; j++ {
			set[o.pres[rng.Intn(len(o.pres))]] = true
		}
		var ctx []xenc.Pre
		for p := range set {
			ctx = append(ctx, p)
		}
		sort.Slice(ctx, func(a, b int) bool { return ctx[a] < ctx[b] })
		ctxs = append(ctxs, ctx)
	}
	for name, ax := range axisIDs {
		for _, ctx := range ctxs {
			got := staircase.EvalAxis(v, ctx, ax, staircase.AnyNode())
			want := o.axis(name, ctx)
			if len(got) == 0 && len(want) == 0 {
				continue
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: %s(%v) = %v, want %v", label, name, ctx, got, want)
			}
			// The per-tuple reference the kernels are held to must agree
			// with the tree semantics too.
			if ref := staircase.Reference(v, ctx, ax, staircase.AnyNode()); !reflect.DeepEqual(ref, want) {
				t.Fatalf("%s: reference %s(%v) = %v, want %v", label, name, ctx, ref, want)
			}
		}
	}
	// Scan must enumerate forward axes in document order and honor the
	// early-exit: stopping after k matches yields the k-prefix.
	for _, name := range forwardScanAxes {
		ax := axisIDs[name]
		for _, p := range o.pres {
			full := o.axis(name, []xenc.Pre{p})
			var scanned []xenc.Pre
			staircase.Scan(v, p, ax, staircase.AnyNode(), func(q xenc.Pre) bool {
				scanned = append(scanned, q)
				return true
			})
			if !reflect.DeepEqual(scanned, full) && (len(scanned) != 0 || len(full) != 0) {
				t.Fatalf("%s: Scan(%s, %d) = %v, want %v", label, name, p, scanned, full)
			}
			var ref []xenc.Pre
			staircase.ReferenceScan(v, p, ax, staircase.AnyNode(), func(q xenc.Pre) bool {
				ref = append(ref, q)
				return true
			})
			if !reflect.DeepEqual(ref, full) && (len(ref) != 0 || len(full) != 0) {
				t.Fatalf("%s: reference Scan(%s, %d) = %v, want %v", label, name, p, ref, full)
			}
			for k := 1; k <= 2 && k <= len(full); k++ {
				var prefix []xenc.Pre
				staircase.Scan(v, p, ax, staircase.AnyNode(), func(q xenc.Pre) bool {
					prefix = append(prefix, q)
					return len(prefix) < k
				})
				if !reflect.DeepEqual(prefix, full[:k]) {
					t.Fatalf("%s: Scan(%s, %d) early-exit %d = %v, want %v", label, name, p, k, prefix, full[:k])
				}
			}
		}
	}
}

func TestAxesOnReadOnlyStore(t *testing.T) {
	tr, err := shred.Parse(strings.NewReader(paperDoc), shred.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s, err := rostore.Build(tr)
	if err != nil {
		t.Fatal(err)
	}
	checkAllAxes(t, s, "rostore")
}

func TestAxesOnPagedStoreWithHoles(t *testing.T) {
	tr, err := shred.Parse(strings.NewReader(paperDoc), shred.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s, err := core.Build(tr, core.Options{PageSize: 8, FillFactor: 0.6})
	if err != nil {
		t.Fatal(err)
	}
	checkAllAxes(t, s, "core/fresh")
	// Punch holes: delete c (a 3-node subtree), then reinsert content so
	// free runs sit in the middle of regions.
	var c xenc.Pre = -1
	for p := xenc.SkipFree(s, 0); p < s.Len(); p = xenc.SkipFree(s, p+1) {
		if s.Kind(p) == xenc.KindElem && s.Names().Name(s.Name(p)) == "c" {
			c = p
		}
	}
	if err := s.Delete(c); err != nil {
		t.Fatal(err)
	}
	checkAllAxes(t, s, "core/after-delete")
	frag, err := shred.ParseFragment(`<c2><d2/></c2>`, shred.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var b xenc.Pre = -1
	for p := xenc.SkipFree(s, 0); p < s.Len(); p = xenc.SkipFree(s, p+1) {
		if s.Kind(p) == xenc.KindElem && s.Names().Name(s.Name(p)) == "b" {
			b = p
		}
	}
	if _, err := s.AppendChild(b, frag); err != nil {
		t.Fatal(err)
	}
	checkAllAxes(t, s, "core/after-reinsert")
}

// TestAxesRandomisedAgainstOracle builds random documents, mutates the
// paged store randomly, and cross-checks every axis after every step.
func TestAxesRandomisedAgainstOracle(t *testing.T) {
	for seed := int64(0); seed < 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		b := shred.NewBuilder()
		b.Start("root")
		depth := 1
		for i := 0; i < 40+rng.Intn(40); i++ {
			switch rng.Intn(3) {
			case 0:
				b.Start(fmt.Sprintf("e%d", rng.Intn(3)))
				depth++
			case 1:
				b.Text("t")
			default:
				if depth > 1 {
					b.End()
					depth--
				} else {
					b.Elem("leaf", "")
				}
			}
		}
		for depth > 0 {
			b.End()
			depth--
		}
		s, err := core.Build(b.Tree(), core.Options{PageSize: 16, FillFactor: 0.75})
		if err != nil {
			t.Fatal(err)
		}
		for step := 0; step < 10; step++ {
			var live []xenc.Pre
			for p := xenc.SkipFree(s, 0); p < s.Len(); p = xenc.SkipFree(s, p+1) {
				live = append(live, p)
			}
			target := live[rng.Intn(len(live))]
			frag, _ := shred.ParseFragment(`<n><m/>x</n>`, shred.Options{})
			switch {
			case rng.Intn(2) == 0 && target != s.Root():
				if err := s.Delete(target); err != nil {
					t.Fatal(err)
				}
			case s.Kind(target) == xenc.KindElem:
				if _, err := s.AppendChild(target, frag); err != nil {
					t.Fatal(err)
				}
			default:
				continue
			}
			if err := s.CheckInvariants(); err != nil {
				t.Fatalf("seed %d step %d: %v", seed, step, err)
			}
			checkAllAxes(t, s, fmt.Sprintf("seed%d/step%d", seed, step))
		}
	}
}

func TestNameAndKindTests(t *testing.T) {
	tr, err := shred.Parse(strings.NewReader(`<r><p>t1</p><q/><p a="1">t2</p><!--c--></r>`), shred.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s, err := rostore.Build(tr)
	if err != nil {
		t.Fatal(err)
	}
	pName, _ := s.Names().Lookup("p")
	ctx := []xenc.Pre{s.Root()}
	if got := staircase.EvalAxis(s, ctx, staircase.AxisChild, staircase.Element(pName)); len(got) != 2 {
		t.Fatalf("child::p = %v", got)
	}
	if got := staircase.EvalAxis(s, ctx, staircase.AxisChild, staircase.Element(xenc.NoName)); len(got) != 3 {
		t.Fatalf("child::* = %v", got)
	}
	if got := staircase.EvalAxis(s, ctx, staircase.AxisDescendant, staircase.KindTest(xenc.KindText)); len(got) != 2 {
		t.Fatalf("descendant::text() = %v", got)
	}
	if got := staircase.EvalAxis(s, ctx, staircase.AxisChild, staircase.KindTest(xenc.KindComment)); len(got) != 1 {
		t.Fatalf("child::comment() = %v", got)
	}
	if got := staircase.EvalAxis(s, ctx, staircase.AxisChild, staircase.AnyNode()); len(got) != 4 {
		t.Fatalf("child::node() = %v", got)
	}
}

func TestEmptyContext(t *testing.T) {
	tr, _ := shred.Parse(strings.NewReader(paperDoc), shred.Options{})
	s, _ := rostore.Build(tr)
	for name, ax := range axisIDs {
		if got := staircase.EvalAxis(s, nil, ax, staircase.AnyNode()); len(got) != 0 {
			t.Errorf("%s(nil) = %v", name, got)
		}
	}
}
