package core

import (
	"maps"
	"slices"
	"testing"

	"mxq/internal/xenc"
)

// ownedPages lists the page chunks s created since its last Snapshot
// (they carry its stamp): for a fresh snapshot, the ones its writes have
// copied or appended.
func ownedPages(s *Store) []int32 {
	var owned []int32
	for pg, p := range s.pages {
		if p.stamp == s.stamp.Load() {
			owned = append(owned, int32(pg))
		}
	}
	return owned
}

// firstNamed returns the first element named name at or after p.
func firstNamed(t *testing.T, s *Store, p xenc.Pre, name string) xenc.Pre {
	t.Helper()
	id, ok := s.Names().Lookup(name)
	for p = xenc.SkipFree(s, p); ok && p < s.Len(); p = xenc.SkipFree(s, p+1) {
		if s.Kind(p) == xenc.KindElem && s.Name(p) == id {
			return p
		}
	}
	t.Fatalf("no <%s> element", name)
	return xenc.NoPre
}

// TestInsertCopiesOnlyTouchedChunks is Section 3's cost argument as exact
// counts: a snapshot inserting one <bidder> under the first open_auction
// of an XMark store copies the pages of the insert point and of its
// ancestors (whose sizes grow), appends the spliced page(s) when the
// insert page is full, and copies the node chunks of the ids it touches —
// the new ones and those of the tuples it moves. Nothing else, so the
// count does not grow with the document.
func TestInsertCopiesOnlyTouchedChunks(t *testing.T) {
	const bidder = `<bidder><date>01/01/2000</date><time>12:00:00</time><personref person="person0"/><increase>1.50</increase></bidder>`
	for _, tc := range []struct {
		name     string
		fill     float64
		overflow bool
	}{{"within a page", 0.75, false}, {"across an overflow", 1.0, true}} {
		t.Run(tc.name, func(t *testing.T) {
			copied := map[float64]int{}
			for _, sf := range []float64{0.01, 0.1} {
				s := xmarkStore(t, sf, Options{FillFactor: tc.fill})
				oa := firstNamed(t, s, firstNamed(t, s, 0, "open_auctions"), "open_auction")
				at := s.NthChild(oa, 1) // after <initial>
				want := map[int32]bool{s.PhysPage(at): true}
				for p := oa; p != xenc.NoPre; p = s.ParentPre(p) {
					want[s.PhysPage(p)] = true
				}

				snap := s.Snapshot()
				ids, err := snap.InsertChildAt(oa, 1, fragTree(t, bidder))
				if err != nil {
					t.Fatal(err)
				}
				if err := snap.CheckInvariants(); err != nil {
					t.Fatal(err)
				}
				spliced := len(snap.pages) - len(s.pages)
				if tc.overflow != (spliced > 0) {
					t.Fatalf("SF %g: %d pages spliced in, want overflow %v", sf, spliced, tc.overflow)
				}
				for pg := len(s.pages); pg < len(snap.pages); pg++ {
					want[int32(pg)] = true
				}
				wantPages := slices.Sorted(maps.Keys(want))
				pages, nodes := ownedPages(snap), ownedNodeChunks(snap)
				if !slices.Equal(pages, wantPages) {
					t.Fatalf("SF %g: the insert copied page chunks %v, want %v", sf, pages, wantPages)
				}
				if touched := touchedNodeChunks(s, snap, ids); !slices.Equal(nodes, touched) {
					t.Fatalf("SF %g: the insert copied node chunks %v, touched %v", sf, nodes, touched)
				}
				if snap.Names() != s.Names() {
					t.Fatalf("SF %g: an insert of pooled names copied the pool", sf)
				}
				copied[sf] = len(pages) + len(nodes)
				t.Logf("SF %g: %d pages, %d chunks copied (%d pages, %d node chunks)", sf, s.Pages(), copied[sf], len(pages), len(nodes))
			}
			if copied[0.1] > copied[0.01] {
				t.Fatalf("the insert copied %d chunks at SF 0.1, %d at SF 0.01", copied[0.1], copied[0.01])
			}
		})
	}
}
