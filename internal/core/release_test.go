package core

import (
	"math/rand"
	"slices"
	"strings"
	"testing"

	"mxq/internal/shred"
	"mxq/internal/xenc"
)

// freeIDs lists the store's free node ids, lowest first: those below
// nodeLen whose node/pos entry is NULL.
func freeIDs(s *Store) []xenc.NodeID {
	var ids []xenc.NodeID
	for id := xenc.NodeID(0); id < s.nodeLen; id++ {
		if s.posOf(id) < 0 {
			ids = append(ids, id)
		}
	}
	return ids
}

// deleteChildren removes children of the root until at least wantFree
// node ids are free.
func deleteChildren(t *testing.T, s *Store, wantFree int) {
	t.Helper()
	for len(freeIDs(s)) < wantFree {
		root := s.Root()
		lvl := s.Level(root)
		// First child of the root.
		c := xenc.SkipFree(s, root+1)
		if c >= s.Len() || s.Level(c) <= lvl {
			t.Fatalf("ran out of deletable children with %d free ids", len(freeIDs(s)))
		}
		if err := s.Delete(c); err != nil {
			t.Fatalf("delete: %v", err)
		}
	}
}

func oneNodeFrag(name string) *shred.Tree {
	return shred.NewBuilder().Start(name).End().Tree()
}

// ownedNodeChunks lists the node chunks s created since its last
// Snapshot (they carry its stamp): for a fresh snapshot, the ones its
// writes have copied.
func ownedNodeChunks(s *Store) []int32 {
	var owned []int32
	for ch, c := range s.nodes {
		if c.stamp == s.stamp.Load() {
			owned = append(owned, int32(ch))
		}
	}
	return owned
}

// touchedNodeChunks lists the node chunks holding an id in ids or an id
// whose node/pos entry differs between base and snap.
func touchedNodeChunks(base, snap *Store, ids []xenc.NodeID) []int32 {
	in := map[int32]bool{}
	for _, id := range ids {
		in[id>>snap.pageBits] = true
	}
	for id := xenc.NodeID(0); id < base.nodeLen; id++ {
		if base.posOf(id) != snap.posOf(id) {
			in[id>>snap.pageBits] = true
		}
	}
	var out []int32
	for ch := range in {
		out = append(out, ch)
	}
	slices.Sort(out)
	return out
}

// TestFreeIDsCopyOnlyTouchedNodeChunks: free ids are the NULL entries of
// node/pos, spread over many node chunks after heavy deletes, and a small
// transaction image still copies only the node chunks holding the ids it
// touches — the taken id and the moved tuples' ids on an insert, the
// freed id on a delete — never the chunks that merely hold free ids.
func TestFreeIDsCopyOnlyTouchedNodeChunks(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	s, err := Build(randomDoc(rng, 1200), Options{PageSize: 16, FillFactor: 0.8})
	if err != nil {
		t.Fatal(err)
	}
	deleteChildren(t, s, 20*int(s.pageSize))
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	spread := 0
	for _, n := range s.nodeFree {
		if n > 0 {
			spread++
		}
	}
	if spread < 20 {
		t.Fatalf("free ids sit in only %d node chunks; need ≥ 20 for the property to bite", spread)
	}

	c := s.Snapshot()
	ids, err := c.AppendChild(c.Root(), oneNodeFrag("probe"))
	if err != nil {
		t.Fatal(err)
	}
	owned, touched := ownedNodeChunks(c), touchedNodeChunks(s, c, ids)
	if !slices.Equal(owned, touched) || len(owned) > 2 {
		t.Fatalf("1-node insert copied node chunks %v; it touched %v", owned, touched)
	}

	// Plant a known leaf first (the heavy deletes above may have emptied
	// the root), then delete it in a snapshot.
	planted, err := s.AppendChild(s.Root(), oneNodeFrag("victim"))
	if err != nil {
		t.Fatal(err)
	}
	c2 := s.Snapshot()
	if err := c2.Delete(c2.PreOf(planted[0])); err != nil {
		t.Fatal(err)
	}
	owned, touched = ownedNodeChunks(c2), touchedNodeChunks(s, c2, planted)
	if !slices.Equal(owned, touched) || len(owned) != 1 {
		t.Fatalf("1-node delete copied node chunks %v; it touched %v", owned, touched)
	}
	if err := c2.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestFreedIDsReusedLowestFirst: an insert takes the lowest free ids,
// whatever order they were freed in, and nodeLen grows only once none is
// left.
func TestFreedIDsReusedLowestFirst(t *testing.T) {
	s := mustBuild(t, `<r><a/><b/><c/><d/><e/><f/></r>`, Options{PageSize: 8})
	a, e := s.NthChild(s.Root(), 0), s.NthChild(s.Root(), 4)
	ida, ide := s.NodeOf(a), s.NodeOf(e)
	// a first, then e: the most recently freed id is not the lowest.
	for _, p := range []xenc.Pre{a, e} {
		if err := s.Delete(p); err != nil {
			t.Fatal(err)
		}
	}
	nodeLen := s.nodeLen
	var got []xenc.NodeID
	for i := 0; i < 3; i++ {
		ids, err := s.AppendChild(s.Root(), oneNodeFrag("x"))
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, ids...)
	}
	if want := []xenc.NodeID{ida, ide, nodeLen}; !slices.Equal(got, want) {
		t.Fatalf("inserts took ids %v, want %v (lowest free first, then fresh)", got, want)
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestCheckInvariantsRecountsNodeFree: a per-chunk free count that
// disagrees with node/pos, either way, fails the invariant check.
func TestCheckInvariantsRecountsNodeFree(t *testing.T) {
	s := mustBuild(t, `<r><a/><b/><c/></r>`, Options{PageSize: 8})
	if err := s.Delete(s.NthChild(s.Root(), 1)); err != nil {
		t.Fatal(err)
	}
	for _, delta := range []int32{1, -1} {
		c := s.Snapshot()
		c.nodeFree[0] += delta
		if err := c.CheckInvariants(); err == nil || !strings.Contains(err.Error(), "nodeFree[0]") {
			t.Fatalf("CheckInvariants with nodeFree[0] off by %d = %v", delta, err)
		}
	}
}

// TestSnapshotIsolationAfterPeerRelease: dropping one snapshot must not
// let the base write in place under a *different* still-live snapshot.
// Nothing tracks the sharers: a chunk the base shared with any snapshot
// it took is never written in place again.
func TestSnapshotIsolationAfterPeerRelease(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	s, err := Build(randomDoc(rng, 200), Options{PageSize: 16, FillFactor: 0.8})
	if err != nil {
		t.Fatal(err)
	}
	live := s.Snapshot()
	want := fingerprint(live)
	s.Snapshot() // a peer, dropped at once
	for i := 0; i < 25; i++ {
		applyRandomOp(rng, s)
	}
	if got := fingerprint(live); got != want {
		t.Fatal("live snapshot observed base writes after a peer snapshot was dropped")
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
