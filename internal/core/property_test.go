package core

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"mxq/internal/shred"
	"mxq/internal/xenc"
)

// Property: PreOf and NodeOf are mutually inverse over live nodes after
// arbitrary update sequences — the node/pos swizzle of Section 3.1 never
// loses a node.
func TestNodeMapBijectionProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s, err := Build(randomDoc(rng, 30), Options{PageSize: 16, FillFactor: 0.7})
		if err != nil {
			return false
		}
		for step := 0; step < 40; step++ {
			applyRandomOp(rng, s)
		}
		// Forward: every live view tuple round-trips through its id.
		for p := xenc.SkipFree(s, 0); p < s.Len(); p = xenc.SkipFree(s, p+1) {
			if s.PreOf(s.NodeOf(p)) != p {
				return false
			}
		}
		// Backward: every mapped node id lands on a live tuple with the
		// same id.
		for id := xenc.NodeID(0); id < s.nodeLen; id++ {
			p := s.PreOf(id)
			if p == xenc.NoPre {
				continue
			}
			if s.Level(p) == xenc.LevelUnused || s.NodeOf(p) != id {
				return false
			}
		}
		return s.CheckInvariants() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// Property: the root's size always equals liveNodes-1 — the global form
// of the commutative delta bookkeeping.
func TestRootSizeTracksLiveNodesProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s, err := Build(randomDoc(rng, 25), Options{PageSize: 16, FillFactor: 0.8})
		if err != nil {
			return false
		}
		for step := 0; step < 50; step++ {
			applyRandomOp(rng, s)
			if int(s.Size(s.Root())) != s.LiveNodes()-1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// Property: Snapshot produces an independent image — mutations on the
// snapshot never reach the base and vice versa, even though the two
// share pages copy-on-write (the isolation property transactions rely
// on).
func TestSnapshotIndependenceProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s, err := Build(randomDoc(rng, 25), Options{PageSize: 16, FillFactor: 0.8})
		if err != nil {
			return false
		}
		before := fingerprint(s)
		c := s.Snapshot()
		for step := 0; step < 30; step++ {
			applyRandomOp(rng, c)
		}
		if fingerprint(s) != before || s.CheckInvariants() != nil || c.CheckInvariants() != nil {
			return false
		}
		// The base keeps writing after the snapshot froze its pages;
		// the snapshot must not observe any of it.
		after := fingerprint(c)
		for step := 0; step < 30; step++ {
			applyRandomOp(rng, s)
		}
		return fingerprint(c) == after && s.CheckInvariants() == nil && c.CheckInvariants() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// Property: a snapshot's first write copies only the pages it touches —
// the copy-on-write cost is O(pages written), never O(document).
func TestSnapshotCopiesOnlyDirtyPagesProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s, err := Build(randomDoc(rng, 200), Options{PageSize: 16, FillFactor: 0.8})
		if err != nil {
			return false
		}
		c := s.Snapshot()
		if len(ownedPages(c)) != 0 || len(ownedPages(s)) != 0 {
			return false
		}
		// One value update dirties exactly one page.
		var texts []xenc.Pre
		for p := xenc.SkipFree(c, 0); p < c.Len(); p = xenc.SkipFree(c, p+1) {
			if c.Kind(p) == xenc.KindText {
				texts = append(texts, p)
			}
		}
		if len(texts) == 0 {
			return true
		}
		if err := c.SetValue(texts[rng.Intn(len(texts))], "x"); err != nil {
			return false
		}
		// The snapshot owns exactly the one page it copied; the base,
		// stamped afresh by the Snapshot, owns none until it writes.
		return len(ownedPages(c)) == 1 && len(ownedPages(s)) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// fingerprint summarizes a store's logical content.
func fingerprint(s *Store) string {
	out := ""
	for p := xenc.SkipFree(s, 0); p < s.Len(); p = xenc.SkipFree(s, p+1) {
		out += fmt.Sprintf("%d:%d:%d:%s;", s.Kind(p), s.Level(p), s.Name(p), s.Value(p))
	}
	return out
}

func randomDoc(rng *rand.Rand, n int) *shred.Tree {
	b := shred.NewBuilder().Start("root")
	depth := 1
	for i := 0; i < n; i++ {
		switch rng.Intn(3) {
		case 0:
			b.Start(fmt.Sprintf("e%d", rng.Intn(4)), shred.Attr{Name: "i", Value: fmt.Sprint(i)})
			depth++
		case 1:
			b.Text(fmt.Sprintf("t%d", i))
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
	return b.Tree()
}

func applyRandomOp(rng *rand.Rand, s *Store) {
	var live []xenc.Pre
	for p := xenc.SkipFree(s, 0); p < s.Len(); p = xenc.SkipFree(s, p+1) {
		live = append(live, p)
	}
	target := live[rng.Intn(len(live))]
	frag := &shred.Tree{Nodes: []shred.Node{
		{Kind: xenc.KindElem, Name: "n", Size: 1},
		{Kind: xenc.KindText, Value: "v", Level: 1},
	}}
	switch op := rng.Intn(5); {
	case op == 0 && target != s.Root():
		s.Delete(target)
	case op == 1 && target != s.Root():
		s.InsertBefore(target, frag)
	case op == 2 && target != s.Root():
		s.InsertAfter(target, frag)
	case op == 3 && s.Kind(target) == xenc.KindElem:
		s.SetAttr(target, "x", "y")
	default:
		if s.Kind(target) == xenc.KindElem {
			s.AppendChild(target, frag)
		}
	}
}
