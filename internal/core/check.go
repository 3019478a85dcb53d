package core

import (
	"fmt"
	"reflect"

	"mxq/internal/xenc"
)

// CheckInvariants verifies the store's structural invariants in O(N).
// Tests run it after every mutation; it is the executable form of the
// encoding rules in Section 3:
//
//   - logToPhys and physToLog are inverse bijections over the pages;
//   - the chunked columns hold exactly one page-sized chunk per physical
//     page;
//   - a page's cached live count and summary, if any, are what its
//     tuples give, and so is the live index, if built;
//   - free-run lengths count exactly the directly following unused
//     tuples within their logical page;
//   - node/pos and the node column are mutually consistent: every live
//     node has a valid node id, and an id below nodeLen is free (pos -1)
//     exactly when no tuple holds it;
//   - nodeFree counts each node chunk's free ids;
//   - size equals the number of live descendants (recomputed with a
//     stack over the view);
//   - levels form a valid pre-order (each node is at most one deeper
//     than its predecessor);
//   - parent links match the tree implied by the levels;
//   - a used tuple's name id is NoName or in the name pool, and an
//     attribute's name id is in the name pool;
//   - the live-node count and attribute owners agree with the view.
func (s *Store) CheckInvariants() error {
	nPages := len(s.logToPhys)
	if len(s.physToLog) != nPages {
		return fmt.Errorf("pageOffset tables have different lengths: %d vs %d", nPages, len(s.physToLog))
	}
	if len(s.pages) != nPages {
		return fmt.Errorf("store holds %d page chunks, want %d", len(s.pages), nPages)
	}
	for i, pg := range s.pages {
		if int32(len(pg.size)) != s.pageSize || int32(len(pg.level)) != s.pageSize ||
			int32(len(pg.kind)) != s.pageSize || int32(len(pg.name)) != s.pageSize ||
			int32(len(pg.text)) != s.pageSize || int32(len(pg.node)) != s.pageSize {
			return fmt.Errorf("page chunk %d has ragged columns", i)
		}
		if c := pg.live.Load(); c != 0 && c-1 != pg.used() {
			return fmt.Errorf("page chunk %d caches %d used tuples but holds %d (a write skipped dirtyPage)", i, c-1, pg.used())
		}
		if sum := pg.sum.Load(); sum != nil && !reflect.DeepEqual(sum, summarize(pg.level, pg.kind, pg.name)) {
			return fmt.Errorf("page chunk %d caches a summary its tuples do not give (a write skipped dirtyPage)", i)
		}
	}
	if cum := s.index.cum.Load(); cum != nil {
		if len(*cum) != nPages+1 {
			return fmt.Errorf("the live index has %d entries for %d pages", len(*cum), nPages)
		}
		for lg, ph := range s.logToPhys {
			if (*cum)[lg+1]-(*cum)[lg] != s.pages[ph].used() {
				return fmt.Errorf("the live index counts %d used tuples on logical page %d, which holds %d", (*cum)[lg+1]-(*cum)[lg], lg, s.pages[ph].used())
			}
		}
	}
	if len(s.nodeFree) != len(s.nodes) {
		return fmt.Errorf("nodeFree counts %d node chunks, store holds %d", len(s.nodeFree), len(s.nodes))
	}
	if maxIDs := int32(len(s.nodes)) << s.pageBits; s.nodeLen > maxIDs {
		return fmt.Errorf("nodeLen %d exceeds chunk capacity %d", s.nodeLen, maxIDs)
	}
	for lg, ph := range s.logToPhys {
		if ph < 0 || int(ph) >= nPages {
			return fmt.Errorf("logToPhys[%d] = %d out of range", lg, ph)
		}
		if s.physToLog[ph] != int32(lg) {
			return fmt.Errorf("pageOffset not a bijection: logToPhys[%d]=%d but physToLog[%d]=%d", lg, ph, ph, s.physToLog[ph])
		}
	}

	// Free runs, node map, level discipline, names, live count.
	names := int32(s.qn.Len())
	live := 0
	prevLevel := xenc.Level(-1)
	seen := make([]xenc.Pre, s.nodeLen) // by node id: 1 + the pre holding it
	for p := xenc.Pre(0); p < s.Len(); p++ {
		pos := s.physOf(p)
		if s.levelAt(pos) == xenc.LevelUnused {
			if s.nodeAt(pos) != xenc.NoNode {
				return fmt.Errorf("unused tuple at pre %d has node id %d", p, s.nodeAt(pos))
			}
			// Count the following unused tuples within the page.
			run := int32(0)
			for q := pos + 1; q&s.pageMask != 0 && s.levelAt(q) == xenc.LevelUnused; q++ {
				run++
			}
			if s.sizeAt(pos) != run {
				return fmt.Errorf("free run at pre %d (pos %d): size %d, want %d", p, pos, s.sizeAt(pos), run)
			}
			continue
		}
		live++
		id := s.nodeAt(pos)
		if id < 0 || id >= s.nodeLen {
			return fmt.Errorf("live tuple at pre %d has invalid node id %d", p, id)
		}
		if prev := seen[id]; prev != 0 {
			return fmt.Errorf("node id %d appears at pre %d and %d", id, prev-1, p)
		}
		seen[id] = p + 1
		if s.posOf(id) != pos {
			return fmt.Errorf("node/pos[%d] = %d, want %d", id, s.posOf(id), pos)
		}
		lvl := s.levelAt(pos)
		if lvl > prevLevel+1 {
			return fmt.Errorf("level jump at pre %d: %d after %d", p, lvl, prevLevel)
		}
		prevLevel = lvl
		if !xenc.Kind(s.kindAt(pos)).Valid() {
			return fmt.Errorf("invalid kind %d at pre %d", s.kindAt(pos), p)
		}
		if n := s.nameAt(pos); n < xenc.NoName || n >= names {
			return fmt.Errorf("tuple at pre %d has name id %d outside the name pool [0,%d)", p, n, names)
		}
		for _, r := range s.attrRefs(id) {
			if r.name < 0 || r.name >= names {
				return fmt.Errorf("attribute of the tuple at pre %d has name id %d outside the name pool [0,%d)", p, r.name, names)
			}
		}
	}
	if live != s.liveNodes {
		return fmt.Errorf("liveNodes = %d, but the view holds %d live tuples", s.liveNodes, live)
	}

	// Sizes and parents via a stack over the live view.
	type frame struct {
		id    xenc.NodeID
		pre   xenc.Pre
		level xenc.Level
		count int32
	}
	var stack []frame
	pop := func() error {
		top := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if got := s.Size(top.pre); got != top.count {
			return fmt.Errorf("size at pre %d = %d, want %d live descendants", top.pre, got, top.count)
		}
		if len(stack) > 0 {
			stack[len(stack)-1].count += top.count + 1
		}
		return nil
	}
	for p := xenc.SkipFree(s, 0); p < s.Len(); p = xenc.SkipFree(s, p+1) {
		lvl := s.Level(p)
		for len(stack) > 0 && stack[len(stack)-1].level >= lvl {
			if err := pop(); err != nil {
				return err
			}
		}
		id := s.NodeOf(p)
		wantParent := xenc.NoNode
		if len(stack) > 0 {
			wantParent = stack[len(stack)-1].id
		}
		if s.parentOf(id) != wantParent {
			return fmt.Errorf("parentOf[%d] (pre %d) = %d, want %d", id, p, s.parentOf(id), wantParent)
		}
		stack = append(stack, frame{id: id, pre: p, level: lvl})
	}
	for len(stack) > 0 {
		if err := pop(); err != nil {
			return err
		}
	}

	// An id no tuple holds is free, and a free one owns no attributes;
	// nodeFree counts them per chunk.
	free := make([]int32, len(s.nodes))
	for id := xenc.NodeID(0); id < s.nodeLen; id++ {
		pos := s.posOf(id)
		switch {
		case pos >= 0 && seen[id] == 0:
			return fmt.Errorf("node/pos[%d] = %d, but no tuple holds the id", id, pos)
		case pos < 0 && len(s.attrRefs(id)) > 0:
			return fmt.Errorf("attributes owned by free node id %d", id)
		case pos < 0:
			free[id>>s.pageBits]++
		}
	}
	for ch, n := range free {
		if s.nodeFree[ch] != n {
			return fmt.Errorf("nodeFree[%d] = %d, but node chunk %d holds %d free ids", ch, s.nodeFree[ch], ch, n)
		}
	}
	return nil
}
