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
// The two insert scenarios of Figure 7:
//
//	(a) "within page": the logical page holding the insert point has
//	    enough unused tuples at or after it. The used tuples after the
//	    insert point move towards the page end, their new positions are
//	    written to node/pos, and the new nodes fill the gap. No other
//	    page is touched.
//	(b) "page overflow": the insert does not fit. The used tuples after
//	    the insert point and the new nodes are written into freshly
//	    appended physical pages, the old tail becomes an unused run, and
//	    the new pages are spliced into the pageOffset order directly
//	    after the insert page. All pre numbers after the splice shift
//	    automatically because pre is a virtual column of the view.
//
// In both cases the only ancestor maintenance is size += k on the chain
// of ancestors of the insert point, which the transaction layer turns
// into commutative delta increments (Section 3.2).
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
	case wal.OpInsertBefore:
		return s.InsertBefore(p, op.Frag)
	case wal.OpInsertAfter:
		return s.InsertAfter(p, op.Frag)
	case wal.OpAppendChild:
		return s.AppendChild(p, op.Frag)
	case wal.OpInsertChildAt:
		return s.InsertChildAt(p, int(op.Child), op.Frag)
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

// InsertBefore inserts the fragment as the directly preceding sibling(s)
// of the node at target (XUpdate insert-before).
func (s *Store) InsertBefore(target xenc.Pre, frag *shred.Tree) ([]xenc.NodeID, error) {
	if err := s.checkLive(target); err != nil {
		return nil, err
	}
	parent := s.ParentPre(target)
	if parent == xenc.NoPre {
		return nil, errIsRoot
	}
	return s.insertAt(target, parent, frag)
}

// InsertAfter inserts the fragment directly after the subtree of the node
// at target (XUpdate insert-after).
func (s *Store) InsertAfter(target xenc.Pre, frag *shred.Tree) ([]xenc.NodeID, error) {
	if err := s.checkLive(target); err != nil {
		return nil, err
	}
	parent := s.ParentPre(target)
	if parent == xenc.NoPre {
		return nil, errIsRoot
	}
	return s.insertAt(s.RegionEnd(target)+1, parent, frag)
}

// AppendChild inserts the fragment as the last child(ren) of the element
// at parent (XUpdate append without a child position).
func (s *Store) AppendChild(parent xenc.Pre, frag *shred.Tree) ([]xenc.NodeID, error) {
	if err := s.checkLive(parent); err != nil {
		return nil, err
	}
	if s.Kind(parent) != xenc.KindElem {
		return nil, fmt.Errorf("core: append target at pre %d is a %v, not an element", parent, s.Kind(parent))
	}
	return s.insertAt(s.RegionEnd(parent)+1, parent, frag)
}

// InsertChildAt inserts the fragment as child number idx (0-based) of the
// element at parent (XUpdate append with a child position). If idx is
// past the last child the fragment is appended.
func (s *Store) InsertChildAt(parent xenc.Pre, idx int, frag *shred.Tree) ([]xenc.NodeID, error) {
	if err := s.checkLive(parent); err != nil {
		return nil, err
	}
	if s.Kind(parent) != xenc.KindElem {
		return nil, fmt.Errorf("core: append target at pre %d is a %v, not an element", parent, s.Kind(parent))
	}
	c := s.NthChild(parent, idx)
	if c == xenc.NoPre {
		return s.insertAt(s.RegionEnd(parent)+1, parent, frag)
	}
	return s.insertAt(c, parent, frag)
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
// node at parent, or NoPre for a negative or past-the-end idx. The
// transaction layer uses it to find the pages an InsertChildAt will
// write.
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
// at, as content under the element at parent. It returns the node ids of
// all inserted nodes in fragment order (transactions record them so a
// commit replay can map transaction-local ids to base-store ids).
func (s *Store) insertAt(at xenc.Pre, parent xenc.Pre, frag *shred.Tree) ([]xenc.NodeID, error) {
	if len(frag.Nodes) == 0 {
		return nil, nil
	}
	if err := s.checkLive(parent); err != nil {
		return nil, err
	}
	baseLevel := s.Level(parent) + 1
	if int(baseLevel)+maxFragLevel(frag) > xenc.MaxLevel {
		return nil, fmt.Errorf("core: resulting tree too deep")
	}
	parentID := s.NodeOf(parent)
	k := int32(len(frag.Nodes))

	s.index = new(liveIndex) // live counts and page order change
	ids := s.placeTuples(at, frag, baseLevel)

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
	return ids, nil
}

// writeFragNode is writeNode for a node of an inserted fragment, which
// lands baseLevel deep and whose text the store copies: a fragment
// parsed out of an XUpdate program aliases the program's text.
func (s *Store) writeFragNode(pos int32, n *shred.Node, baseLevel xenc.Level, id xenc.NodeID) {
	placed := *n
	placed.Level += baseLevel
	s.writeNode(pos, &placed, strings.Clone(n.Value), id)
}

func maxFragLevel(frag *shred.Tree) int {
	m := 0
	for i := range frag.Nodes {
		if l := int(frag.Nodes[i].Level); l > m {
			m = l
		}
	}
	return m
}

// placeTuples writes the fragment's tuples into the view starting at view
// rank at, using the within-page path when the page has room and the
// page-overflow path otherwise. It returns the allocated node ids in
// fragment order.
func (s *Store) placeTuples(at xenc.Pre, frag *shred.Tree, baseLevel xenc.Level) []xenc.NodeID {
	k := int32(len(frag.Nodes))

	// At a page boundary, prefer the unused tail of the *previous*
	// logical page (this is how the paper's example places node k on the
	// free tuple of page 0).
	if at&s.pageMask == 0 && at > 0 {
		prevPg := (at - 1) >> s.pageBits
		physBase := s.logToPhys[prevPg] << s.pageBits
		tailStart := s.pageSize
		for tailStart > 0 && s.levelAt(physBase+tailStart-1) == xenc.LevelUnused {
			tailStart--
		}
		if s.pageSize-tailStart >= k {
			ids := s.newIDs(k)
			for i := range frag.Nodes {
				s.writeFragNode(physBase+tailStart+int32(i), &frag.Nodes[i], baseLevel, ids[i])
			}
			s.markFreeRun(physBase+tailStart+k, physBase+s.pageSize)
			return ids
		}
	}

	pg := at >> s.pageBits
	if pg < int32(len(s.logToPhys)) {
		off := at & s.pageMask
		physBase := s.logToPhys[pg] << s.pageBits
		free := int32(0)
		for i := off; i < s.pageSize; i++ {
			if s.levelAt(physBase+i) == xenc.LevelUnused {
				free++
			}
		}
		if free >= k {
			return s.insertWithinPage(physBase, off, frag, baseLevel)
		}
		return s.insertOverflow(pg, physBase, off, frag, baseLevel)
	}
	// at == Len(): append fresh pages at the very end.
	return s.insertOverflow(pg-1, -1, 0, frag, baseLevel)
}

// insertWithinPage is Figure 7(a): tuples after the insert point move
// towards the page end (their node/pos entries are updated), the new
// nodes fill the gap. Exactly one physical page is dirtied.
func (s *Store) insertWithinPage(physBase, off int32, frag *shred.Tree, baseLevel xenc.Level) []xenc.NodeID {
	k := int32(len(frag.Nodes))
	wp := s.dirtyPage(physBase >> s.pageBits)
	// Save the used tail in order.
	type saved struct {
		size  int32
		level int16
		kind  uint8
		name  int32
		text  string
		node  int32
	}
	var tail []saved
	for i := off; i < s.pageSize; i++ {
		if wp.level[i] != xenc.LevelUnused {
			tail = append(tail, saved{wp.size[i], wp.level[i], wp.kind[i], wp.name[i], wp.text[i], wp.node[i]})
		}
	}
	ids := s.newIDs(k)
	// New nodes at [off, off+k).
	for i := range frag.Nodes {
		s.writeFragNode(physBase+off+int32(i), &frag.Nodes[i], baseLevel, ids[i])
	}
	// Moved tail directly after them.
	w := off + k
	for _, t := range tail {
		wp.size[w] = t.size
		wp.level[w] = t.level
		wp.kind[w] = t.kind
		wp.name[w] = t.name
		wp.text[w] = t.text
		wp.node[w] = t.node
		s.setPos(t.node, physBase+w)
		w++
	}
	s.markFreeRun(physBase+w, physBase+s.pageSize)
	// An unused run that ended directly before off may have interior runs
	// recorded before the compaction; rebuild the whole page's run lengths
	// so no stale run length can jump over the freshly written tuples.
	s.recomputeFreeRuns(physBase >> s.pageBits)
	return ids
}

// insertOverflow is Figure 7(b): the new nodes plus the used tail of the
// insert page are written into freshly appended physical pages, which are
// then spliced into the logical page order directly after the insert
// page. Only appended pages are written (bulk updates are "written only
// in newly appended logical pages"), so a transaction can keep them
// private until commit; besides the appended pages only the insert page
// itself is dirtied (its tail becomes an unused run).
//
// physBase < 0 means "append at the very end of the document" (no tail to
// move, splice after logical page pg).
func (s *Store) insertOverflow(pg, physBase, off int32, frag *shred.Tree, baseLevel xenc.Level) []xenc.NodeID {
	k := int32(len(frag.Nodes))
	type saved struct {
		size  int32
		level int16
		kind  uint8
		name  int32
		text  string
		node  int32
		isNew int32 // index into frag, or -1
	}
	seq := make([]saved, 0, k)
	for i := range frag.Nodes {
		seq = append(seq, saved{isNew: int32(i)})
	}
	if physBase >= 0 {
		op := s.pages[physBase>>s.pageBits]
		for i := off; i < s.pageSize; i++ {
			if op.level[i] != xenc.LevelUnused {
				seq = append(seq, saved{
					size: op.size[i], level: op.level[i], kind: op.kind[i],
					name: op.name[i], text: op.text[i], node: op.node[i], isNew: -1,
				})
			}
		}
		// The old tail becomes an unused run; rebuild the page's run
		// lengths so a run that ended directly before off absorbs it.
		s.markFreeRun(physBase+off, physBase+s.pageSize)
		s.recomputeFreeRuns(physBase >> s.pageBits)
	}
	ids := s.newIDs(k)
	nNew := (int32(len(seq)) + s.pageSize - 1) >> s.pageBits
	for p := int32(0); p < nNew; p++ {
		phys := s.appendPhysPage()
		base := phys << s.pageBits
		wp := s.pages[phys]
		chunk := seq[p<<s.pageBits : min((p+1)<<s.pageBits, int32(len(seq)))]
		for i := range chunk {
			t := chunk[i]
			if t.isNew >= 0 {
				s.writeFragNode(base+int32(i), &frag.Nodes[t.isNew], baseLevel, ids[t.isNew])
			} else {
				wp.size[i] = t.size
				wp.level[i] = t.level
				wp.kind[i] = t.kind
				wp.name[i] = t.name
				wp.text[i] = t.text
				wp.node[i] = t.node
				s.setPos(t.node, base+int32(i))
			}
		}
		s.markFreeRun(base+int32(len(chunk)), base+s.pageSize)
		s.spliceLogical(pg+1+p, phys)
	}
	return ids
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
