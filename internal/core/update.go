package core

import (
	"fmt"
	"strings"

	"mxq/internal/shred"
	"mxq/internal/staircase"
	"mxq/internal/wal"
	"mxq/internal/xenc"
)

// Structural update entry points. All positions are view ranks (pre).
//
// Figure 7's insert is one move (placeTuples): the used tuples behind the
// insert point move with the new nodes, into the same page when it has
// room (7a) or into appended pages spliced in after it (7b). Either way
// the only ancestor maintenance is size += k on the chain of ancestors
// of the insert point, which the transaction layer turns into
// commutative delta increments (Section 3.2).
//
// Every write funnels through the dirtyPage / dirtyNodeChunk hooks, so on
// a copy-on-write snapshot each path materializes exactly the pages it
// touches (Section 3.2's copy-on-write discipline).

// errIsRoot guards operations that are illegal on the document root.
var errIsRoot = fmt.Errorf("core: operation not allowed on the document root")

// Apply performs one resolved operation — a wal.Op, whose target is a
// node id — and returns the ids of the nodes it inserted (op.NewIDs is
// not read). It is the one switch over wal.OpKind that mutates a store:
// a transaction's image, its commit, recovery and a follower all change
// a store through it, so the op a transaction logs is the op it applied.
func (s *Store) Apply(op wal.Op) ([]xenc.NodeID, error) {
	p := s.PreOf(op.Target)
	if p == xenc.NoPre {
		return nil, fmt.Errorf("core: target node %d not found", op.Target)
	}
	switch op.Kind {
	case wal.OpInsertBefore, wal.OpInsertAfter, wal.OpAppendChild, wal.OpInsertChildAt:
		at, parent, err := s.landing(op, p)
		if err != nil {
			return nil, err
		}
		return s.insertAt(at, parent, op.Frag), nil
	case wal.OpDelete:
		return nil, s.Delete(p)
	case wal.OpSetValue:
		return nil, s.SetValue(p, op.Value)
	case wal.OpRename:
		return nil, s.Rename(p, op.Name)
	case wal.OpSetAttr:
		return nil, s.SetAttr(p, op.Name, op.Value)
	case wal.OpRemoveAttr:
		return nil, s.RemoveAttr(p, op.Name)
	}
	return nil, fmt.Errorf("core: unknown op kind %d", op.Kind)
}

// Footprint returns the view span [from, to] whose pages op writes,
// resolved as Apply resolves op: for an insert the tuple before the point
// where it lands and that point, for a delete its target's region, for
// any other op its target. The span may reach one tuple past either end
// of the view. An insert that Apply refuses has no span: Footprint
// returns Apply's error. The transaction layer write-locks the pages
// behind the span before it applies op.
//
// Ancestors are not in the span: their sizes move by commutative delta
// increments, which is how the paper keeps the document root from
// becoming a locking bottleneck. One end of an insert's span always
// lies in its anchor's region (the anchor, the region's last used tuple
// or a child), so an insert always shares a page with a concurrent
// delete of that region, and the two conflict.
func (s *Store) Footprint(op wal.Op) (from, to xenc.Pre, err error) {
	p := s.PreOf(op.Target)
	if p == xenc.NoPre {
		return 0, 0, fmt.Errorf("core: target node %d not found", op.Target)
	}
	switch op.Kind {
	case wal.OpInsertBefore, wal.OpInsertAfter, wal.OpAppendChild, wal.OpInsertChildAt:
		at, _, err := s.landing(op, p)
		return at - 1, at, err
	case wal.OpDelete:
		return p, s.RegionEnd(p), nil
	}
	return p, p, nil
}

// landing resolves where the insert op, whose target is at view rank p,
// lands: the view rank at its first node takes and the element parent it
// goes under. Before a node it lands on the node; after one, or as an
// append, behind the region's last used tuple (RegionEnd); at a child
// position on that child, or as an append if the position holds none.
// It refuses an insert beside the root, under a node other than an
// element and one that would nest deeper than xenc.MaxLevel.
func (s *Store) landing(op wal.Op, p xenc.Pre) (at, parent xenc.Pre, err error) {
	switch op.Kind {
	case wal.OpInsertBefore, wal.OpInsertAfter:
		if parent = s.ParentPre(p); parent == xenc.NoPre {
			return 0, 0, errIsRoot
		}
		at = p
		if op.Kind == wal.OpInsertAfter {
			at = s.RegionEnd(p) + 1
		}
	default:
		if s.Kind(p) != xenc.KindElem {
			return 0, 0, fmt.Errorf("core: append target at pre %d is a %v, not an element", p, s.Kind(p))
		}
		parent, at = p, xenc.NoPre
		if op.Kind == wal.OpInsertChildAt {
			at = s.NthChild(p, int(op.Child))
		}
		if at == xenc.NoPre {
			at = s.RegionEnd(p) + 1
		}
	}
	base := int(s.Level(parent)) + 1
	for i := range op.Frag.Nodes {
		if base+int(op.Frag.Nodes[i].Level) > xenc.MaxLevel {
			return 0, 0, fmt.Errorf("core: resulting tree too deep")
		}
	}
	return at, parent, nil
}

// InsertBefore inserts the fragment as the directly preceding sibling(s)
// of the node at target (XUpdate insert-before).
func (s *Store) InsertBefore(target xenc.Pre, frag *shred.Tree) ([]xenc.NodeID, error) {
	return s.applyInsert(wal.OpInsertBefore, target, frag)
}

// InsertAfter inserts the fragment directly after the subtree of the node
// at target (XUpdate insert-after).
func (s *Store) InsertAfter(target xenc.Pre, frag *shred.Tree) ([]xenc.NodeID, error) {
	return s.applyInsert(wal.OpInsertAfter, target, frag)
}

// AppendChild inserts the fragment as the last child(ren) of the element
// at parent (XUpdate append without a child position).
func (s *Store) AppendChild(parent xenc.Pre, frag *shred.Tree) ([]xenc.NodeID, error) {
	return s.applyInsert(wal.OpAppendChild, parent, frag)
}

// applyInsert is Apply of an insert whose target is the node at view
// rank p, which it first checks is one.
func (s *Store) applyInsert(kind wal.OpKind, p xenc.Pre, frag *shred.Tree) ([]xenc.NodeID, error) {
	if err := s.checkLive(p); err != nil {
		return nil, err
	}
	return s.Apply(wal.Op{Kind: kind, Target: s.NodeOf(p), Frag: frag})
}

// Delete removes the subtree rooted at target: the tuples stay in place
// as unused tuples ("structural deletes just leave the tuples of the
// deleted nodes in place without causing any shifts in pre numbers").
func (s *Store) Delete(target xenc.Pre) error {
	if err := s.checkLive(target); err != nil {
		return err
	}
	parent := s.ParentPre(target)
	if parent == xenc.NoPre {
		return errIsRoot
	}
	k := s.Size(target) + 1
	end := s.RegionEnd(target)
	s.index = new(liveIndex) // live counts change
	// Mark the whole region unused, release node ids and attributes.
	touched := map[int32]bool{}
	for p := target; p <= end; p = xenc.SkipFree(s, p+1) {
		pos := s.physOf(p)
		wp := s.dirtyPage(pos >> s.pageBits)
		o := pos & s.pageMask
		id := wp.node[o]
		s.setAttrs(id, nil)
		s.setPos(id, -1)
		s.setParent(id, xenc.NoNode)
		wp.level[o] = xenc.LevelUnused
		wp.node[o] = xenc.NoNode
		wp.text[o] = ""
		touched[pos>>s.pageBits] = true
	}
	for pg := range touched {
		s.recomputeFreeRuns(pg)
	}
	s.liveNodes -= int(k)
	s.addAncestorSizes(s.NodeOf(parent), -k)
	return nil
}

// SetValue replaces the content of a text, comment or PI node (a value
// update, which maps trivially to an in-place column update).
func (s *Store) SetValue(p xenc.Pre, val string) error {
	if err := s.checkLive(p); err != nil {
		return err
	}
	if k := s.Kind(p); k == xenc.KindElem {
		return fmt.Errorf("core: SetValue on an element (pre %d); update its text child instead", p)
	}
	pos := s.physOf(p)
	s.dirtyText(pos >> s.pageBits).text[pos&s.pageMask] = val
	return nil
}

// Rename changes the qualified name of an element or PI node.
func (s *Store) Rename(p xenc.Pre, name string) error {
	if err := s.checkLive(p); err != nil {
		return err
	}
	if k := s.Kind(p); k != xenc.KindElem && k != xenc.KindPI {
		return fmt.Errorf("core: Rename on a %v node (pre %d)", k, p)
	}
	pos := s.physOf(p)
	s.dirtyPage(pos >> s.pageBits).name[pos&s.pageMask] = s.intern(name)
	return nil
}

// SetAttr adds or replaces an attribute on the element at p. The
// attribute list is rebuilt rather than patched in place: the old slice
// may be shared with a copy-on-write snapshot. The value is copied: it
// may be a slice of a request or a log record.
func (s *Store) SetAttr(p xenc.Pre, name, val string) error {
	if err := s.checkLive(p); err != nil {
		return err
	}
	if s.Kind(p) != xenc.KindElem {
		return fmt.Errorf("core: SetAttr on a %v node (pre %d)", s.Kind(p), p)
	}
	id := s.NodeOf(p)
	nameID := s.intern(name)
	val = strings.Clone(val)
	refs := s.attrRefs(id)
	nrefs := make([]attrRef, len(refs), len(refs)+1)
	copy(nrefs, refs)
	for i := range nrefs {
		if nrefs[i].name == nameID {
			nrefs[i].val = val
			s.setAttrs(id, nrefs)
			return nil
		}
	}
	s.setAttrs(id, append(nrefs, attrRef{name: nameID, val: val}))
	return nil
}

// RemoveAttr deletes an attribute from the element at p. Removing an
// absent attribute is not an error (XUpdate remove semantics). Like
// SetAttr, the surviving attributes go into a fresh slice so snapshots
// sharing the old one are unaffected.
func (s *Store) RemoveAttr(p xenc.Pre, name string) error {
	if err := s.checkLive(p); err != nil {
		return err
	}
	nameID, ok := s.qn.Lookup(name)
	if !ok {
		return nil
	}
	id := s.NodeOf(p)
	refs := s.attrRefs(id)
	for i := range refs {
		if refs[i].name == nameID {
			nrefs := make([]attrRef, 0, len(refs)-1)
			nrefs = append(nrefs, refs[:i]...)
			nrefs = append(nrefs, refs[i+1:]...)
			if len(nrefs) == 0 {
				nrefs = nil
			}
			s.setAttrs(id, nrefs)
			return nil
		}
	}
	return nil
}

// --- navigation used by updates ------------------------------------------

func (s *Store) checkLive(p xenc.Pre) error {
	if p < 0 || p >= s.Len() {
		return fmt.Errorf("core: pre %d out of range [0,%d)", p, s.Len())
	}
	if s.Level(p) == xenc.LevelUnused {
		return fmt.Errorf("core: pre %d is an unused tuple", p)
	}
	return nil
}

// ParentPre returns the view rank of p's parent (NoPre for the root),
// resolved through the parent column in O(1).
func (s *Store) ParentPre(p xenc.Pre) xenc.Pre {
	id := s.parentOf(s.NodeOf(p))
	if id == xenc.NoNode {
		return xenc.NoPre
	}
	return s.PreOf(id)
}

// RegionEnd returns the view rank of the last used tuple of p's region
// (p itself for a leaf): the position after which "directly after the
// subtree of p" content goes. It is the last match of the staircase
// descendant scan, not the first used tuple behind the region: free
// tuples between the two are where an insert after p lands.
func (s *Store) RegionEnd(p xenc.Pre) xenc.Pre {
	last := p
	staircase.Scan(s, p, staircase.AxisDescendant, staircase.AnyNode(), func(q xenc.Pre) bool {
		last = q
		return true
	})
	return last
}

// NthChild returns the view rank of the idx-th (0-based) child of the
// node at parent, or NoPre for a negative or past-the-end idx: an insert
// at a child position lands on that child, or appends (landing).
func (s *Store) NthChild(parent xenc.Pre, idx int) xenc.Pre {
	return staircase.Nth(s, parent, staircase.AxisChild, staircase.AnyNode(), idx+1)
}

// addAncestorSizes walks the ancestor chain starting at node id and adds
// delta to each ancestor's size. This is the operation the transaction
// protocol performs with commutative delta increments.
func (s *Store) addAncestorSizes(id xenc.NodeID, delta int32) {
	for id != xenc.NoNode {
		pos := s.posOf(id)
		s.dirtySize(pos >> s.pageBits).size[pos&s.pageMask] += delta
		id = s.parentOf(id)
	}
}

// --- the insert engine ----------------------------------------------------

// insertAt inserts the fragment so that its first node lands at view rank
// at, as content under the element at parent, where landing put it. It
// returns the node ids of all inserted nodes in fragment order
// (transactions record them so a commit replay can map transaction-local
// ids to base-store ids).
func (s *Store) insertAt(at, parent xenc.Pre, frag *shred.Tree) []xenc.NodeID {
	if len(frag.Nodes) == 0 {
		return nil
	}
	parentID := s.NodeOf(parent)
	k := int32(len(frag.Nodes))

	s.index = new(liveIndex) // live counts and page order change
	ids := s.placeTuples(at, frag, s.Level(parent)+1)

	// Wire parent links: fragment roots hang off parentID, inner nodes
	// follow the fragment's own structure.
	var stack []xenc.NodeID
	for i := range frag.Nodes {
		lvl := int(frag.Nodes[i].Level)
		stack = stack[:lvl]
		if lvl == 0 {
			s.setParent(ids[i], parentID)
		} else {
			s.setParent(ids[i], stack[lvl-1])
		}
		stack = append(stack, ids[i])
	}
	s.liveNodes += int(k)
	s.addAncestorSizes(parentID, k)
	return ids
}

// placeTuples is Figure 7's one move. It writes the fragment's tuples at
// view rank at, followed by the used tuples behind the point where they
// land, and returns the node ids it allocated in fragment order.
//
// The landing point is, at a page boundary, the unused tail of the
// previous logical page if the fragment fits there; otherwise at, in the
// page that holds it; at the end of the view, no page (the end of the
// last one). From the landing point on, the fragment and the used
// tuples behind it are written into the landing page if they fit
// (Figure 7a, "within page": the moved tuples' node/pos entries follow
// them and no other page is touched); otherwise into freshly appended
// physical pages, spliced into the logical order directly after the
// landing page, which keeps its head while the rest of it becomes an
// unused run (Figure 7b, "page overflow"). All pre numbers after the
// splice shift at no cost, because pre is a virtual column of the view.
// Either way only the landing page and appended pages are written, so a
// transaction's writes stay inside its lock footprint (Footprint).
func (s *Store) placeTuples(at xenc.Pre, frag *shred.Tree, baseLevel xenc.Level) []xenc.NodeID {
	k := int32(len(frag.Nodes))
	lg, off := at>>s.pageBits, at&s.pageMask // the landing point's logical page and offset
	if off == 0 && at > 0 {
		prev := s.pages[s.logToPhys[lg-1]]
		tail := s.pageSize
		for tail > 0 && prev.level[tail-1] == xenc.LevelUnused {
			tail--
		}
		if s.pageSize-tail >= k {
			lg, off = lg-1, tail
		}
	}
	if lg == int32(len(s.logToPhys)) {
		lg, off = lg-1, s.pageSize
	}
	phys := s.logToPhys[lg]
	base := phys << s.pageBits
	moved := s.pages[phys].usedFrom(off)
	n := k + int32(len(moved.level))
	start := base + off
	if n > s.pageSize-off {
		s.markFreeRun(start, base+s.pageSize)
		start = int32(len(s.pages)) << s.pageBits
		for i := int32(0); i<<s.pageBits < n; i++ {
			s.spliceLogical(lg+1+i, s.appendPhysPage())
		}
	}
	ids := s.newIDs(k)
	var wp *page
	for i := int32(0); i < n; i++ {
		pos := start + i
		if i < k {
			// The store copies the text: a fragment parsed out of an
			// XUpdate program aliases the program's.
			node := frag.Nodes[i]
			node.Level += baseLevel
			s.writeNode(pos, &node, strings.Clone(node.Value), ids[i])
			continue
		}
		o := pos & s.pageMask
		if wp == nil || o == 0 {
			wp = s.dirtyPage(pos >> s.pageBits) // once per page: it resets the page's caches
		}
		wp.copyTuple(o, moved, i-k)
		s.setPos(wp.node[o], pos)
	}
	if end := start + n; end&s.pageMask != 0 {
		s.markFreeRun(end, (end>>s.pageBits+1)<<s.pageBits)
	}
	if off < s.pageSize {
		// A run of unused tuples that ended directly before off may
		// carry run lengths reaching past it; rebuild the page's.
		s.recomputeFreeRuns(phys)
	}
	return ids
}

// usedFrom returns the used tuples from offset off to the end of the
// page, in order, as a page of their own.
func (p *page) usedFrom(off int32) *page {
	n := 0
	for _, l := range p.level[off:] {
		if l != xenc.LevelUnused {
			n++
		}
	}
	u, i := newPage(n), int32(0)
	for o := off; o < int32(len(p.level)); o++ {
		if p.level[o] != xenc.LevelUnused {
			u.copyTuple(i, p, o)
			i++
		}
	}
	return u
}

// copyTuple copies the tuple at offset src of page from to offset dst.
func (p *page) copyTuple(dst int32, from *page, src int32) {
	p.size[dst] = from.size[src]
	p.level[dst] = from.level[src]
	p.kind[dst] = from.kind[src]
	p.name[dst] = from.name[src]
	p.text[dst] = from.text[src]
	p.node[dst] = from.node[src]
}

// spliceLogical inserts physical page phys at logical index logIdx: the
// pageOffset maintenance of Figure 7(b) ("a new entry for it is appended
// to the pageOffset table, and the offset of all pages after the insert
// point is incremented"). The pageOffset tables are private per store
// (copied at snapshot time), so no copy-on-write hook is needed here.
func (s *Store) spliceLogical(logIdx, phys int32) {
	s.logToPhys = append(s.logToPhys, 0)
	copy(s.logToPhys[logIdx+1:], s.logToPhys[logIdx:])
	s.logToPhys[logIdx] = phys
	// physToLog: every logical index >= logIdx shifted by one.
	s.physToLog = append(s.physToLog, 0)
	for ph, lg := range s.physToLog[:len(s.physToLog)-1] {
		if lg >= logIdx {
			s.physToLog[ph] = lg + 1
		}
	}
	s.physToLog[phys] = logIdx
}
