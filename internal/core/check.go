package core

import (
	"fmt"
	"reflect"

	"mxq/internal/xenc"
)

// CheckInvariants verifies the store's structural invariants in O(N).
// Tests run it after every mutation; it is the executable form of the
// encoding rules in Section 3: everything deriveTree refuses, the size,
// parent and node/pos columns equal to what it derives (an id no tuple
// holds is free, pos -1), nodeFree equal to the free ids it counts, and
// a page's cached live count and summary, and the live index, if any,
// what the tuples give.
func (s *Store) CheckInvariants() error {
	for i, pg := range s.pages {
		if c := pg.live.Load(); c != 0 && c-1 != pg.used() {
			return fmt.Errorf("page chunk %d caches %d used tuples but holds %d (a write skipped dirtyPage)", i, c-1, pg.used())
		}
		if sum := pg.sum.Load(); sum != nil && !reflect.DeepEqual(sum, summarize(pg.level, pg.kind, pg.name)) {
			return fmt.Errorf("page chunk %d caches a summary its tuples do not give (a write skipped dirtyPage)", i)
		}
	}
	free, err := s.deriveTree(func(pos int32, id xenc.NodeID, size int32, parent xenc.NodeID) error {
		switch p := s.preOfPos(pos); {
		case s.sizeAt(pos) != size && id == xenc.NoNode:
			return fmt.Errorf("free run at pre %d (pos %d): size %d, want %d", p, pos, s.sizeAt(pos), size)
		case s.sizeAt(pos) != size:
			return fmt.Errorf("size at pre %d = %d, want %d live descendants", p, s.sizeAt(pos), size)
		case id == xenc.NoNode:
		case s.posOf(id) != pos: // also an id two tuples hold: one of them is not where node/pos says
			return fmt.Errorf("node/pos[%d] = %d, want %d (pre %d)", id, s.posOf(id), pos, p)
		case s.parentOf(id) != parent:
			return fmt.Errorf("parentOf[%d] (pre %d) = %d, want %d", id, p, s.parentOf(id), parent)
		}
		return nil
	})
	if err != nil {
		return err
	}
	if len(s.nodeFree) != len(free) {
		return fmt.Errorf("nodeFree counts %d node chunks, store holds %d", len(s.nodeFree), len(free))
	}
	for ch, n := range free {
		if s.nodeFree[ch] != n {
			return fmt.Errorf("nodeFree[%d] = %d, but node chunk %d holds %d free ids", ch, s.nodeFree[ch], ch, n)
		}
	}
	if cum := s.index.cum.Load(); cum != nil {
		if len(*cum) != len(s.pages)+1 {
			return fmt.Errorf("the live index has %d entries for %d pages", len(*cum), len(s.pages))
		}
		for lg, ph := range s.logToPhys {
			if (*cum)[lg+1]-(*cum)[lg] != s.pages[ph].used() {
				return fmt.Errorf("the live index counts %d used tuples on logical page %d, which holds %d", (*cum)[lg+1]-(*cum)[lg], lg, s.pages[ph].used())
			}
		}
	}
	return nil
}

// deriveTree is the one pass that recovers the columns no chunk stores:
// it walks the view in logical order with a stack of open nodes and
// emits each tuple's position, id and what the levels imply — a free
// tuple's (id NoNode) run length within its page, a used one's live-
// descendant count and parent id. LoadChunked fills the columns from
// it, CheckInvariants compares them. It refuses bad page tables, a level
// jump (across pages too), a free tuple holding an id, a used one with
// an id not below nodeLen or a bad kind or name, and a live count other
// than liveNodes; then it returns the free ids per node chunk, refusing
// a free id with attributes and a node/pos placing more ids than that.
func (s *Store) deriveTree(emit func(pos int32, id xenc.NodeID, size int32, parent xenc.NodeID) error) ([]int32, error) {
	nPages := len(s.logToPhys)
	if len(s.physToLog) != nPages || len(s.pages) != nPages {
		return nil, fmt.Errorf("pageOffset tables of %d and %d entries over %d page chunks", nPages, len(s.physToLog), len(s.pages))
	}
	for lg, ph := range s.logToPhys {
		if ph < 0 || int(ph) >= nPages || s.physToLog[ph] != int32(lg) {
			return nil, fmt.Errorf("pageOffset not a bijection at logToPhys[%d] = %d", lg, ph)
		}
	}
	for i, pg := range s.pages {
		if n := s.pageSize; int32(len(pg.size)) != n || int32(len(pg.level)) != n || int32(len(pg.kind)) != n ||
			int32(len(pg.name)) != n || int32(len(pg.text)) != n || int32(len(pg.node)) != n {
			return nil, fmt.Errorf("page chunk %d has ragged columns", i)
		}
	}
	if maxIDs := int32(len(s.nodes)) << s.pageBits; s.nodeLen < 0 || s.nodeLen > maxIDs {
		return nil, fmt.Errorf("nodeLen %d outside the chunk capacity %d", s.nodeLen, maxIDs)
	}

	type frame struct {
		pos, id, count int32
		level          xenc.Level
	}
	var stack []frame
	pop := func() error {
		top, parent := stack[len(stack)-1], xenc.NoNode
		if stack = stack[:len(stack)-1]; len(stack) > 0 {
			stack[len(stack)-1].count += top.count + 1
			parent = stack[len(stack)-1].id
		}
		return emit(top.pos, top.id, top.count, parent)
	}
	names, live, prevLevel := int32(s.qn.Len()), 0, xenc.Level(-1)
	for lg, ph := range s.logToPhys {
		pg, base, end := s.pages[ph], ph<<s.pageBits, int32(0) // end: of the free run o is in
		for o := int32(0); o < s.pageSize; o++ {
			pre, id, lvl := int32(lg)<<s.pageBits|o, pg.node[o], pg.level[o]
			if lvl == xenc.LevelUnused {
				for end = max(end, o+1); end < s.pageSize && pg.level[end] == xenc.LevelUnused; end++ {
				}
				if id != xenc.NoNode {
					return nil, fmt.Errorf("unused tuple at pre %d has node id %d", pre, id)
				}
				if err := emit(base|o, xenc.NoNode, end-o-1, xenc.NoNode); err != nil {
					return nil, err
				}
				continue
			}
			switch {
			case id < 0 || id >= s.nodeLen:
				return nil, fmt.Errorf("live tuple at pre %d has node id %d outside [0,%d)", pre, id, s.nodeLen)
			case lvl < 0 || lvl > prevLevel+1:
				return nil, fmt.Errorf("level jump at pre %d: %d after %d", pre, lvl, prevLevel)
			case !xenc.Kind(pg.kind[o]).Valid():
				return nil, fmt.Errorf("invalid kind %d at pre %d", pg.kind[o], pre)
			case pg.name[o] < xenc.NoName || pg.name[o] >= names:
				return nil, fmt.Errorf("tuple at pre %d has name id %d outside the name pool [0,%d)", pre, pg.name[o], names)
			}
			for _, r := range s.attrRefs(id) {
				if r.name < 0 || r.name >= names {
					return nil, fmt.Errorf("attribute of the tuple at pre %d has name id %d outside the name pool [0,%d)", pre, r.name, names)
				}
			}
			for len(stack) > 0 && stack[len(stack)-1].level >= lvl {
				if err := pop(); err != nil {
					return nil, err
				}
			}
			stack = append(stack, frame{pos: base | o, id: id, level: lvl})
			prevLevel = lvl
			live++
		}
	}
	for len(stack) > 0 {
		if err := pop(); err != nil {
			return nil, err
		}
	}
	if live != s.liveNodes {
		return nil, fmt.Errorf("liveNodes = %d, but the view holds %d live tuples", s.liveNodes, live)
	}
	free, held := make([]int32, len(s.nodes)), 0
	for id := xenc.NodeID(0); id < s.nodeLen; id++ {
		switch {
		case s.posOf(id) >= 0:
			held++
		case len(s.attrRefs(id)) > 0:
			return nil, fmt.Errorf("attributes owned by free node id %d", id)
		default:
			free[id>>s.pageBits]++
		}
	}
	if held != live {
		return nil, fmt.Errorf("node/pos places %d ids, but the view holds %d live tuples", held, live)
	}
	return free, nil
}
