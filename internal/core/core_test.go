package core

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"mxq/internal/shred"
	"mxq/internal/wal"
	"mxq/internal/xenc"
)

// paperDoc is the running example of Figures 2–4.
const paperDoc = `<a><b><c><d/><e/></c></b><f><g/><h><i/><j/></h></f></a>`

func mustParse(t *testing.T, doc string) *shred.Tree {
	t.Helper()
	tr, err := shred.Parse(strings.NewReader(doc), shred.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func mustFragment(t *testing.T, frag string) *shred.Tree {
	t.Helper()
	tr, err := shred.ParseFragment(frag, shred.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func mustBuild(t *testing.T, doc string, opts Options) *Store {
	t.Helper()
	s, err := Build(mustParse(t, doc), opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatalf("fresh store violates invariants: %v", err)
	}
	return s
}

// liveNames walks the view and returns the element names / text values of
// live tuples in document order.
func liveNames(v xenc.DocView) []string {
	var out []string
	for p := xenc.SkipFree(v, 0); p < v.Len(); p = xenc.SkipFree(v, p+1) {
		switch v.Kind(p) {
		case xenc.KindElem:
			out = append(out, v.Names().Name(v.Name(p)))
		case xenc.KindText:
			out = append(out, "#"+v.Value(p))
		default:
			out = append(out, v.Kind(p).String())
		}
	}
	return out
}

func TestBuildPaperExample(t *testing.T) {
	s := mustBuild(t, paperDoc, Options{PageSize: 8, FillFactor: 0.875})
	// 10 nodes, 7 per page -> two logical pages of 8 tuples.
	if got := s.Pages(); got != 2 {
		t.Fatalf("pages = %d, want 2", got)
	}
	if s.Len() != 16 {
		t.Fatalf("view length = %d, want 16", s.Len())
	}
	if s.LiveNodes() != 10 {
		t.Fatalf("live nodes = %d, want 10", s.LiveNodes())
	}
	want := []string{"a", "b", "c", "d", "e", "f", "g", "h", "i", "j"}
	got := liveNames(s)
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("live names = %v, want %v", got, want)
	}
	// Sizes are live-descendant counts, unaffected by paging.
	wantSizes := map[string]int32{"a": 9, "b": 3, "c": 2, "f": 4, "h": 2, "g": 0}
	for p := xenc.SkipFree(s, 0); p < s.Len(); p = xenc.SkipFree(s, p+1) {
		name := s.Names().Name(s.Name(p))
		if w, ok := wantSizes[name]; ok && s.Size(p) != w {
			t.Errorf("size(%s) = %d, want %d", name, s.Size(p), w)
		}
	}
}

// TestPaperFigure4Insert replays the paper's running update: append
// <k><l/><m/></k> under g. It lands at pre 7, the one free tuple of g's
// page, which cannot take all three, so the whole fragment moves to a
// page spliced in after g's: k, l and m take pre 8-10 and pre 7 stays
// free. The ancestor sizes of g, f and a grow by 3, the exact numbers
// printed in Figure 4.
func TestPaperFigure4Insert(t *testing.T) {
	s := mustBuild(t, paperDoc, Options{PageSize: 8, FillFactor: 0.875})
	// Find g.
	var g xenc.Pre = -1
	for p := xenc.SkipFree(s, 0); p < s.Len(); p = xenc.SkipFree(s, p+1) {
		if s.Kind(p) == xenc.KindElem && s.Names().Name(s.Name(p)) == "g" {
			g = p
		}
	}
	if g < 0 {
		t.Fatal("g not found")
	}
	gID := s.NodeOf(g)
	aID, fID := s.NodeOf(s.Root()), s.parentOf(gID)

	if _, err := s.AppendChild(g, mustFragment(t, `<k><l/><m/></k>`)); err != nil {
		t.Fatal(err)
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	want := []string{"a", "b", "c", "d", "e", "f", "g", "k", "l", "m", "h", "i", "j"}
	if got := liveNames(s); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("live names = %v, want %v", got, want)
	}
	// Figure 4's final sizes: a=12, f=7, g=3 (delta +3 on every ancestor).
	for _, tc := range []struct {
		id   xenc.NodeID
		want int32
	}{{aID, 12}, {fID, 7}, {gID, 3}} {
		if got := s.Size(s.PreOf(tc.id)); got != tc.want {
			t.Errorf("size(node %d) = %d, want %d", tc.id, got, tc.want)
		}
	}
	// One page was spliced in: three logical pages now.
	if got := s.Pages(); got != 3 {
		t.Fatalf("pages = %d, want 3", got)
	}
	if s.Level(7) != xenc.LevelUnused {
		t.Errorf("pre 7 holds a node, want the free tuple left in g's page")
	}
	for i, name := range []string{"k", "l", "m"} {
		p := xenc.Pre(8 + i)
		if got := s.Names().Name(s.Name(p)); s.Level(p) == xenc.LevelUnused || got != name {
			t.Errorf("pre %d holds %q, want %s", p, got, name)
		}
		if s.PhysPage(p) != 2 {
			t.Errorf("%s is on physical page %d, want the spliced page 2", name, s.PhysPage(p))
		}
	}
}

func TestWithinPageInsertMovesNoPages(t *testing.T) {
	s := mustBuild(t, paperDoc, Options{PageSize: 16, FillFactor: 0.7})
	pages := s.Pages()
	root := s.Root()
	if _, err := s.AppendChild(root, mustFragment(t, `<z/>`)); err != nil {
		t.Fatal(err)
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if s.Pages() != pages {
		t.Fatalf("within-page insert spliced a page: %d -> %d", pages, s.Pages())
	}
	got := liveNames(s)
	if got[len(got)-1] != "z" {
		t.Fatalf("appended child not last: %v", got)
	}
}

func TestInsertBeforeAndAfter(t *testing.T) {
	s := mustBuild(t, paperDoc, Options{PageSize: 8, FillFactor: 0.875})
	var f xenc.Pre = -1
	for p := xenc.SkipFree(s, 0); p < s.Len(); p = xenc.SkipFree(s, p+1) {
		if s.Kind(p) == xenc.KindElem && s.Names().Name(s.Name(p)) == "f" {
			f = p
		}
	}
	if _, err := s.InsertBefore(f, mustFragment(t, `<x/>`)); err != nil {
		t.Fatal(err)
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	f = -1
	for p := xenc.SkipFree(s, 0); p < s.Len(); p = xenc.SkipFree(s, p+1) {
		if s.Kind(p) == xenc.KindElem && s.Names().Name(s.Name(p)) == "f" {
			f = p
		}
	}
	if _, err := s.InsertAfter(f, mustFragment(t, `<y1/><y2/>`)); err != nil {
		t.Fatal(err)
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	want := []string{"a", "b", "c", "d", "e", "x", "f", "g", "h", "i", "j", "y1", "y2"}
	if got := liveNames(s); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("live names = %v, want %v", got, want)
	}
	if got := s.Size(s.Root()); got != 12 {
		t.Fatalf("root size = %d, want 12", got)
	}
}

func TestInsertChildAt(t *testing.T) {
	s := mustBuild(t, `<r><a/><b/><c/></r>`, Options{PageSize: 8, FillFactor: 0.5})
	insertChildAt := func(idx int32, frag string) error {
		_, err := s.Apply(wal.Op{Kind: wal.OpInsertChildAt, Target: s.NodeOf(s.Root()), Child: idx, Frag: mustFragment(t, frag)})
		return err
	}
	if err := insertChildAt(1, `<x/>`); err != nil {
		t.Fatal(err)
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	want := []string{"r", "a", "x", "b", "c"}
	if got := liveNames(s); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("live names = %v, want %v", got, want)
	}
	// A past-the-end or negative index appends (a WAL record can carry
	// -1: its child index is read back as an int32).
	for _, idx := range []int32{99, -1} {
		if err := insertChildAt(idx, `<z/>`); err != nil {
			t.Fatal(err)
		}
		got := liveNames(s)
		if got[len(got)-1] != "z" || got[1] != "a" {
			t.Fatalf("child at %d not appended: %v", idx, got)
		}
	}
}

func TestDeleteLeavesTuplesInPlace(t *testing.T) {
	s := mustBuild(t, paperDoc, Options{PageSize: 8, FillFactor: 0.875})
	lenBefore, pagesBefore := s.Len(), s.Pages()
	var h xenc.Pre = -1
	for p := xenc.SkipFree(s, 0); p < s.Len(); p = xenc.SkipFree(s, p+1) {
		if s.Kind(p) == xenc.KindElem && s.Names().Name(s.Name(p)) == "h" {
			h = p
		}
	}
	if err := s.Delete(h); err != nil {
		t.Fatal(err)
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if s.Len() != lenBefore || s.Pages() != pagesBefore {
		t.Fatalf("delete changed the physical layout: len %d->%d pages %d->%d",
			lenBefore, s.Len(), pagesBefore, s.Pages())
	}
	want := []string{"a", "b", "c", "d", "e", "f", "g"}
	if got := liveNames(s); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("live names = %v, want %v", got, want)
	}
	if got := s.Size(s.Root()); got != 6 {
		t.Fatalf("root size = %d, want 6", got)
	}
	if s.LiveNodes() != 7 {
		t.Fatalf("live nodes = %d, want 7", s.LiveNodes())
	}
}

func TestDeleteThenReuseFreeSpace(t *testing.T) {
	s := mustBuild(t, paperDoc, Options{PageSize: 8, FillFactor: 1.0})
	var c xenc.Pre = -1
	for p := xenc.SkipFree(s, 0); p < s.Len(); p = xenc.SkipFree(s, p+1) {
		if s.Kind(p) == xenc.KindElem && s.Names().Name(s.Name(p)) == "c" {
			c = p
		}
	}
	if err := s.Delete(c); err != nil { // frees c,d,e: three tuples
		t.Fatal(err)
	}
	pages := s.Pages()
	var b xenc.Pre = -1
	for p := xenc.SkipFree(s, 0); p < s.Len(); p = xenc.SkipFree(s, p+1) {
		if s.Kind(p) == xenc.KindElem && s.Names().Name(s.Name(p)) == "b" {
			b = p
		}
	}
	if _, err := s.AppendChild(b, mustFragment(t, `<n1/><n2/><n3/>`)); err != nil {
		t.Fatal(err)
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if s.Pages() != pages {
		t.Fatalf("insert into freed space spliced a page: %d -> %d", pages, s.Pages())
	}
	want := []string{"a", "b", "n1", "n2", "n3", "f", "g", "h", "i", "j"}
	if got := liveNames(s); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("live names = %v, want %v", got, want)
	}
}

func TestNodeIDStableAcrossShifts(t *testing.T) {
	s := mustBuild(t, paperDoc, Options{PageSize: 8, FillFactor: 0.875})
	// Remember every node by name.
	idOf := map[string]xenc.NodeID{}
	for p := xenc.SkipFree(s, 0); p < s.Len(); p = xenc.SkipFree(s, p+1) {
		idOf[s.Names().Name(s.Name(p))] = s.NodeOf(p)
	}
	// A large insert before f shifts everything after it, possibly across
	// pages.
	var f = s.PreOf(idOf["f"])
	if _, err := s.InsertBefore(f, mustFragment(t, `<x1/><x2/><x3/><x4/><x5/><x6/><x7/><x8/><x9/>`)); err != nil {
		t.Fatal(err)
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	for name, id := range idOf {
		p := s.PreOf(id)
		if p == xenc.NoPre {
			t.Fatalf("node %s (id %d) lost", name, id)
		}
		if got := s.Names().Name(s.Name(p)); got != name {
			t.Fatalf("node id %d now resolves to %s, want %s", id, got, name)
		}
	}
	// Document order must still be intact.
	want := []string{"a", "b", "c", "d", "e", "x1", "x2", "x3", "x4", "x5", "x6", "x7", "x8", "x9", "f", "g", "h", "i", "j"}
	if got := liveNames(s); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("live names = %v, want %v", got, want)
	}
}

func TestAttributesSurviveTupleMoves(t *testing.T) {
	s := mustBuild(t, `<r><p id="1" cat="x"/><q id="2"/></r>`, Options{PageSize: 8, FillFactor: 1.0})
	idName, _ := s.Names().Lookup("id")
	// Insert before p: p and q move.
	var p xenc.Pre = -1
	for q := xenc.SkipFree(s, 0); q < s.Len(); q = xenc.SkipFree(s, q+1) {
		if s.Kind(q) == xenc.KindElem && s.Names().Name(s.Name(q)) == "p" {
			p = q
		}
	}
	if _, err := s.InsertBefore(p, mustFragment(t, `<w/>`)); err != nil {
		t.Fatal(err)
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	found := 0
	for q := xenc.SkipFree(s, 0); q < s.Len(); q = xenc.SkipFree(s, q+1) {
		if s.Kind(q) != xenc.KindElem {
			continue
		}
		switch s.Names().Name(s.Name(q)) {
		case "p":
			if v, ok := s.AttrValue(q, idName); !ok || v != "1" {
				t.Fatalf("p lost its id attribute: %q %v", v, ok)
			}
			if len(s.Attrs(q)) != 2 {
				t.Fatalf("p attrs = %v", s.Attrs(q))
			}
			found++
		case "q":
			if v, ok := s.AttrValue(q, idName); !ok || v != "2" {
				t.Fatalf("q lost its id attribute: %q %v", v, ok)
			}
			found++
		}
	}
	if found != 2 {
		t.Fatalf("found %d of 2 attributed elements", found)
	}
}

func TestValueUpdates(t *testing.T) {
	s := mustBuild(t, `<r><p>old</p></r>`, Options{})
	var txt xenc.Pre = -1
	for p := xenc.SkipFree(s, 0); p < s.Len(); p = xenc.SkipFree(s, p+1) {
		if s.Kind(p) == xenc.KindText {
			txt = p
		}
	}
	if err := s.SetValue(txt, "new"); err != nil {
		t.Fatal(err)
	}
	if s.Value(txt) != "new" {
		t.Fatalf("value = %q", s.Value(txt))
	}
	if err := s.SetValue(s.Root(), "x"); err == nil {
		t.Fatal("SetValue on element succeeded")
	}
	if err := s.Rename(s.Root(), "root2"); err != nil {
		t.Fatal(err)
	}
	if s.Names().Name(s.Name(s.Root())) != "root2" {
		t.Fatal("rename did not stick")
	}
	if err := s.Rename(txt, "x"); err == nil {
		t.Fatal("Rename on text succeeded")
	}
	if err := s.SetAttr(s.Root(), "k", "v"); err != nil {
		t.Fatal(err)
	}
	if v, ok := s.AttrValue(s.Root(), mustName(s, "k")); !ok || v != "v" {
		t.Fatalf("attr = %q %v", v, ok)
	}
	if err := s.SetAttr(s.Root(), "k", "v2"); err != nil {
		t.Fatal(err)
	}
	if v, _ := s.AttrValue(s.Root(), mustName(s, "k")); v != "v2" {
		t.Fatalf("attr after overwrite = %q", v)
	}
	if err := s.RemoveAttr(s.Root(), "k"); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.AttrValue(s.Root(), mustName(s, "k")); ok {
		t.Fatal("attr survived removal")
	}
	if err := s.RemoveAttr(s.Root(), "absent"); err != nil {
		t.Fatal(err)
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func mustName(s *Store, n string) int32 {
	id, ok := s.Names().Lookup(n)
	if !ok {
		return -2
	}
	return id
}

func TestRootGuards(t *testing.T) {
	s := mustBuild(t, paperDoc, Options{})
	if err := s.Delete(s.Root()); err == nil {
		t.Fatal("deleting the root succeeded")
	}
	if _, err := s.InsertBefore(s.Root(), mustFragment(t, `<x/>`)); err == nil {
		t.Fatal("insert before root succeeded")
	}
	if _, err := s.InsertAfter(s.Root(), mustFragment(t, `<x/>`)); err == nil {
		t.Fatal("insert after root succeeded")
	}
}

func TestBadOptions(t *testing.T) {
	tr := mustParse(t, paperDoc)
	if _, err := Build(tr, Options{PageSize: 100}); err == nil {
		t.Fatal("non-power-of-two page size accepted")
	}
	if _, err := Build(tr, Options{FillFactor: 1.5}); err == nil {
		t.Fatal("fill factor > 1 accepted")
	}
	if _, err := Build(&shred.Tree{}, Options{}); err == nil {
		t.Fatal("empty tree accepted")
	}
}

func TestOperationsOnUnusedTuples(t *testing.T) {
	s := mustBuild(t, paperDoc, Options{PageSize: 8, FillFactor: 0.5})
	// Find an unused tuple.
	var free xenc.Pre = -1
	for p := xenc.Pre(0); p < s.Len(); p++ {
		if s.Level(p) == xenc.LevelUnused {
			free = p
			break
		}
	}
	if free < 0 {
		t.Fatal("no unused tuple with fill factor 0.5")
	}
	if err := s.Delete(free); err == nil {
		t.Fatal("delete of unused tuple succeeded")
	}
	if _, err := s.AppendChild(free, mustFragment(t, `<x/>`)); err == nil {
		t.Fatal("append under unused tuple succeeded")
	}
	if err := s.SetValue(-1, "x"); err == nil {
		t.Fatal("SetValue out of range succeeded")
	}
	// The inserts refuse a rank past the view before resolving it to a
	// node id, which would panic.
	if _, err := s.InsertBefore(s.Len(), mustFragment(t, `<x/>`)); err == nil {
		t.Fatal("insert before a rank past the view succeeded")
	}
	if _, err := s.InsertAfter(-1, mustFragment(t, `<x/>`)); err == nil {
		t.Fatal("insert after a negative rank succeeded")
	}
}

// TestHugeFragmentInsert exercises the multi-page overflow path.
func TestHugeFragmentInsert(t *testing.T) {
	s := mustBuild(t, paperDoc, Options{PageSize: 8, FillFactor: 1.0})
	b := shred.NewBuilder().Start("big")
	for i := 0; i < 100; i++ {
		b.Elem("n", fmt.Sprintf("t%d", i))
	}
	frag := b.End().Tree()
	if _, err := s.AppendChild(s.Root(), frag); err != nil {
		t.Fatal(err)
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if s.LiveNodes() != 10+201 {
		t.Fatalf("live nodes = %d, want 211", s.LiveNodes())
	}
	if got := s.Size(s.Root()); got != 9+201 {
		t.Fatalf("root size = %d, want 210", got)
	}
}

// TestRandomOpsAgainstInvariants drives long random update sequences and
// validates the full invariant set after every operation.
func TestRandomOpsAgainstInvariants(t *testing.T) {
	for _, ps := range []int{8, 16, 64} {
		ps := ps
		t.Run(fmt.Sprintf("page%d", ps), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(ps)))
			s := mustBuild(t, paperDoc, Options{PageSize: ps, FillFactor: 0.8})
			for step := 0; step < 300; step++ {
				// Pick a random live node.
				var live []xenc.Pre
				for p := xenc.SkipFree(s, 0); p < s.Len(); p = xenc.SkipFree(s, p+1) {
					live = append(live, p)
				}
				target := live[rng.Intn(len(live))]
				frag := randomFragment(rng)
				var err error
				switch op := rng.Intn(4); {
				case op == 0 && target != s.Root():
					err = s.Delete(target)
				case op == 1 && target != s.Root():
					_, err = s.InsertBefore(target, frag)
				case op == 2 && target != s.Root():
					_, err = s.InsertAfter(target, frag)
				default:
					if s.Kind(target) != xenc.KindElem {
						continue
					}
					_, err = s.AppendChild(target, frag)
				}
				if err != nil {
					t.Fatalf("step %d: %v", step, err)
				}
				if err := s.CheckInvariants(); err != nil {
					t.Fatalf("step %d: invariants: %v", step, err)
				}
			}
		})
	}
}

func randomFragment(rng *rand.Rand) *shred.Tree {
	b := shred.NewBuilder()
	n := 1 + rng.Intn(6)
	depth := 0
	for i := 0; i < n; i++ {
		switch rng.Intn(3) {
		case 0:
			b.Start(fmt.Sprintf("e%d", rng.Intn(5)), shred.Attr{Name: "id", Value: fmt.Sprint(rng.Intn(100))})
			depth++
		case 1:
			b.Elem(fmt.Sprintf("leaf%d", rng.Intn(5)), "txt")
		default:
			if depth > 0 {
				b.End()
				depth--
			} else {
				b.Text(fmt.Sprintf("t%d", i))
			}
		}
	}
	for depth > 0 {
		b.End()
		depth--
	}
	return b.Tree()
}
