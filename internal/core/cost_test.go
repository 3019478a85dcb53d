package core

import (
	"maps"
	"slices"
	"testing"

	"mxq/internal/chunkstore"
	"mxq/internal/wal"
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
				ids, err := snap.Apply(wal.Op{Kind: wal.OpInsertChildAt, Target: snap.NodeOf(oa), Child: 1, Frag: fragTree(t, bidder)})
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

// TestInsertCheckpointWritesOnlyChangedChunks: the incremental
// checkpoint after one <bidder> insert into an XMark store writes
// exactly the chunks whose stored columns the insert changed — the pages
// its tuples were written to or moved out of (spliced pages included),
// the node chunks whose attributes it changed, and the name pool's tail
// if it interned a name — into a chunk store holding the previous image,
// and reuses every other chunk. In particular the pages of site and
// open_auctions, whose only change is a size no chunk encodes, are
// reused, so the count does not grow with the document.
func TestInsertCheckpointWritesOnlyChangedChunks(t *testing.T) {
	const bidder = `<bidder><date>01/01/2000</date><time>12:00:00</time><personref person="person0"/><increase>1.50</increase></bidder>`
	for _, tc := range []struct {
		name     string
		fill     float64
		overflow bool
	}{{"within a page", 0.75, false}, {"across an overflow", 1.0, true}} {
		t.Run(tc.name, func(t *testing.T) {
			written := map[float64]int{}
			for _, sf := range []float64{0.01, 0.1} {
				s := xmarkStore(t, sf, Options{FillFactor: tc.fill})
				cs := chunkstore.NewDir(t.TempDir())
				before, _ := mustSaveChunked(t, s, cs)
				site, auctions := s.Root(), firstNamed(t, s, 0, "open_auctions")
				// An open_auction halfway through, so that its pages are
				// not those of site and open_auctions.
				oa := firstNamed(t, s, auctions, "open_auction")
				for end := s.RegionEnd(auctions); oa < end/2+auctions/2; {
					oa = firstNamed(t, s, s.RegionEnd(oa)+1, "open_auction")
				}
				at := s.NthChild(oa, 1)
				if s.PhysPage(at) == s.PhysPage(site) || s.PhysPage(at) == s.PhysPage(auctions) {
					t.Fatalf("SF %g: the insert point shares a page with site or open_auctions", sf)
				}

				snap := s.Snapshot()
				ids, err := snap.Apply(wal.Op{Kind: wal.OpInsertChildAt, Target: snap.NodeOf(oa), Child: 1, Frag: fragTree(t, bidder)})
				if err != nil {
					t.Fatal(err)
				}
				if spliced := len(snap.pages) > len(s.pages); spliced != tc.overflow {
					t.Fatalf("SF %g: pages spliced in %v, want %v", sf, spliced, tc.overflow)
				}
				pages, nodes := map[int32]bool{}, map[int32]bool{}
				for _, id := range ids {
					pages[snap.posOf(id)>>snap.pageBits] = true
					if len(snap.attrRefs(id)) > 0 {
						nodes[id>>snap.pageBits] = true
					}
				}
				for id := xenc.NodeID(0); id < s.nodeLen; id++ {
					if from, to := s.posOf(id), snap.posOf(id); from != to {
						pages[from>>s.pageBits], pages[to>>snap.pageBits] = true, true
					}
				}
				for ch := len(s.nodes); ch < len(snap.nodes); ch++ {
					nodes[int32(ch)] = true
				}
				names := 0
				if snap.Names().Len() != s.Names().Len() {
					names = 1
				}
				after, stats := mustSaveChunked(t, snap, cs)
				if want := len(pages) + len(nodes) + names; stats.ChunksWritten != want {
					t.Fatalf("SF %g: the checkpoint wrote %d chunks, want %d (%d pages, %d node chunks, %d name groups)",
						sf, stats.ChunksWritten, want, len(pages), len(nodes), names)
				}
				for _, p := range []xenc.Pre{site, auctions} {
					if pg := s.PhysPage(p); after.Pages[pg] != before.Pages[pg] {
						t.Fatalf("SF %g: the page of the ancestor at pre %d, whose only change is a size, was rewritten", sf, p)
					}
				}
				written[sf] = stats.ChunksWritten
				t.Logf("SF %g: %d of %d chunks written (%d pages, %d node chunks)", sf, stats.ChunksWritten, stats.ChunksTotal, len(pages), len(nodes))
			}
			if written[0.1] > written[0.01] {
				t.Fatalf("the checkpoint wrote %d chunks at SF 0.1, %d at SF 0.01", written[0.1], written[0.01])
			}
		})
	}
}
