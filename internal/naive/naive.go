// Package naive implements the baseline the paper argues against
// (Section 2.2, "Structural Update Problems"): a pre/size/level store
// with a *materialized* pre column and no free space. Every structural
// insert or delete shifts all following tuples in every column and
// renumbers every attribute owner after the update point, so the
// physical cost is O(N) in document size rather than O(update volume).
// (In MonetDB itself this scheme is outright impossible — void columns
// may never be modified — so this package materializes what the paper
// calls prohibitive.)
package naive

import (
	"fmt"
	"slices"

	"mxq/internal/shred"
	"mxq/internal/xenc"
)

// Store is the naive mutable pre/size/level document store.
type Store struct {
	pre   []int32 // materialized; always the identity, re-enumerated on update
	size  []int32
	level []int16
	kind  []uint8
	name  []int32
	text  []string

	// Attribute table keyed by owner *pre*: every structural update must
	// renumber the tail of this column too.
	attrOwner []int32
	attrName  []int32
	attrVal   []string // the oracle needs no value encoding

	qn *xenc.QNamePool
}

// Build encodes a shredded tree.
func Build(t *shred.Tree) (*Store, error) {
	if len(t.Nodes) == 0 {
		return nil, fmt.Errorf("naive: cannot build a store from an empty tree")
	}
	s := &Store{qn: xenc.NewQNamePool()}
	for i := range t.Nodes {
		nd := &t.Nodes[i]
		s.pre = append(s.pre, int32(i))
		s.size = append(s.size, nd.Size)
		s.level = append(s.level, nd.Level)
		s.kind = append(s.kind, uint8(nd.Kind))
		s.text = append(s.text, nd.Value)
		if nd.Kind == xenc.KindElem || nd.Kind == xenc.KindPI {
			s.name = append(s.name, s.qn.Intern(nd.Name))
		} else {
			s.name = append(s.name, xenc.NoName)
		}
		for _, a := range nd.Attrs {
			s.attrOwner = append(s.attrOwner, int32(i))
			s.attrName = append(s.attrName, s.qn.Intern(a.Name))
			s.attrVal = append(s.attrVal, a.Value)
		}
	}
	return s, nil
}

// Clone returns an independent deep copy of the store. The concurrent
// differential harness uses it to freeze the oracle at each committed
// version while the original keeps advancing; the clone shares only the
// qualified-name pool, which is append-only and internally synchronized.
func (s *Store) Clone() *Store {
	return &Store{
		pre:       append([]int32(nil), s.pre...),
		size:      append([]int32(nil), s.size...),
		level:     append([]int16(nil), s.level...),
		kind:      append([]uint8(nil), s.kind...),
		name:      append([]int32(nil), s.name...),
		text:      append([]string(nil), s.text...),
		attrOwner: append([]int32(nil), s.attrOwner...),
		attrName:  append([]int32(nil), s.attrName...),
		attrVal:   append([]string(nil), s.attrVal...),
		qn:        s.qn,
	}
}

// --- DocView --------------------------------------------------------------

// Len returns the number of tuples.
func (s *Store) Len() xenc.Pre { return int32(len(s.size)) }

// LiveNodes returns the number of live nodes.
func (s *Store) LiveNodes() int { return len(s.size) }

// Size returns the descendant count at p.
func (s *Store) Size(p xenc.Pre) xenc.Size { return s.size[p] }

// Level returns the depth at p.
func (s *Store) Level(p xenc.Pre) xenc.Level { return s.level[p] }

// Kind returns the node kind at p.
func (s *Store) Kind(p xenc.Pre) xenc.Kind { return xenc.Kind(s.kind[p]) }

// Name returns the interned name id at p.
func (s *Store) Name(p xenc.Pre) int32 { return s.name[p] }

// Value returns the text content at p.
func (s *Store) Value(p xenc.Pre) string { return s.text[p] }

// NodeOf returns p itself: the naive schema has no stable node identity,
// which is one of the problems the paper's node/pos table solves.
func (s *Store) NodeOf(p xenc.Pre) xenc.NodeID { return p }

// PreOf is the identity.
func (s *Store) PreOf(n xenc.NodeID) xenc.Pre {
	if n < 0 || n >= s.Len() {
		return xenc.NoPre
	}
	return n
}

// Attrs returns the attributes of the element at p (linear probe of the
// sorted owner column).
func (s *Store) Attrs(p xenc.Pre) []xenc.Attr {
	lo, hi := s.attrRange(p)
	if lo == hi {
		return nil
	}
	out := make([]xenc.Attr, 0, hi-lo)
	for i := lo; i < hi; i++ {
		out = append(out, xenc.Attr{Name: s.attrName[i], Val: s.attrVal[i]})
	}
	return out
}

// AttrValue returns the value of the named attribute at p.
func (s *Store) AttrValue(p xenc.Pre, name int32) (string, bool) {
	lo, hi := s.attrRange(p)
	for i := lo; i < hi; i++ {
		if s.attrName[i] == name {
			return s.attrVal[i], true
		}
	}
	return "", false
}

func (s *Store) attrRange(p xenc.Pre) (int, int) {
	// Binary search the sorted owner column.
	lo, hi := 0, len(s.attrOwner)
	for lo < hi {
		mid := (lo + hi) / 2
		if s.attrOwner[mid] < p {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	start := lo
	for lo < len(s.attrOwner) && s.attrOwner[lo] == p {
		lo++
	}
	return start, lo
}

// Names exposes the document's interned names.
func (s *Store) Names() *xenc.QNamePool { return s.qn }

// Root returns the pre rank of the root element.
func (s *Store) Root() xenc.Pre { return 0 }

// Cols implements xenc.ColumnView: the dense columns are one run, as in
// the read-only store, so the oracle runs the staircase kernels over them.
func (s *Store) Cols(p xenc.Pre) (xenc.Columns, int) {
	return xenc.Columns{Size: s.size, Level: s.level, Kind: s.kind, Name: s.name, Text: s.text}, int(p)
}

// Live implements xenc.ColumnView: the single run holds every node.
func (s *Store) Live(xenc.Pre) (int, xenc.Pre) { return s.LiveNodes(), s.Len() }

var _ xenc.ColumnView = (*Store)(nil)

// --- structural updates (all O(N)) ----------------------------------------

// InsertBefore inserts the fragment directly before target.
func (s *Store) InsertBefore(target xenc.Pre, frag *shred.Tree) error {
	if target <= 0 || target >= s.Len() {
		return fmt.Errorf("naive: invalid insert target %d", target)
	}
	return s.insertAt(target, s.parent(target), frag)
}

// InsertAfter inserts the fragment directly after target's subtree.
func (s *Store) InsertAfter(target xenc.Pre, frag *shred.Tree) error {
	if target <= 0 || target >= s.Len() {
		return fmt.Errorf("naive: invalid insert target %d", target)
	}
	return s.insertAt(target+s.size[target]+1, s.parent(target), frag)
}

// AppendChild inserts the fragment as the last child of parent.
func (s *Store) AppendChild(parent xenc.Pre, frag *shred.Tree) error {
	if parent < 0 || parent >= s.Len() || s.Kind(parent) != xenc.KindElem {
		return fmt.Errorf("naive: invalid append target %d", parent)
	}
	return s.insertAt(parent+s.size[parent]+1, parent, frag)
}

func (s *Store) insertAt(at xenc.Pre, parent xenc.Pre, frag *shred.Tree) error {
	k := int32(len(frag.Nodes))
	if k == 0 {
		return nil
	}
	baseLevel := s.level[parent] + 1
	// Shift every column: this is the O(N) tail move.
	newSize := make([]int32, k)
	newLevel := make([]int16, k)
	newKind := make([]uint8, k)
	newName := make([]int32, k)
	newText := make([]string, k)
	for i := range frag.Nodes {
		nd := &frag.Nodes[i]
		newSize[i] = nd.Size
		newLevel[i] = nd.Level + baseLevel
		newKind[i] = uint8(nd.Kind)
		newText[i] = nd.Value
		newName[i] = xenc.NoName
		if nd.Kind == xenc.KindElem || nd.Kind == xenc.KindPI {
			newName[i] = s.qn.Intern(nd.Name)
		}
	}
	s.size = slices.Insert(s.size, int(at), newSize...)
	s.level = slices.Insert(s.level, int(at), newLevel...)
	s.kind = slices.Insert(s.kind, int(at), newKind...)
	s.name = slices.Insert(s.name, int(at), newName...)
	s.text = slices.Insert(s.text, int(at), newText...)
	// Re-enumerate the materialized pre column (the update a void column
	// cannot absorb).
	s.pre = append(s.pre, make([]int32, k)...)
	for i := int(at); i < len(s.pre); i++ {
		s.pre[i] = int32(i)
	}
	// Renumber attribute owners after the insert point and splice in the
	// new attributes.
	for i := range s.attrOwner {
		if s.attrOwner[i] >= at {
			s.attrOwner[i] += k
		}
	}
	for i := range frag.Nodes {
		for _, a := range frag.Nodes[i].Attrs {
			s.spliceAttr(at+int32(i), a.Name, a.Value)
		}
	}
	// Grow all ancestors.
	for a := parent; ; {
		s.size[a] += k
		if s.level[a] == 0 {
			break
		}
		a = s.parent(a)
	}
	return nil
}

func (s *Store) spliceAttr(owner xenc.Pre, name, val string) {
	// Keep the owner column sorted.
	i := 0
	for i < len(s.attrOwner) && s.attrOwner[i] <= owner {
		i++
	}
	s.attrOwner = slices.Insert(s.attrOwner, i, owner)
	s.attrName = slices.Insert(s.attrName, i, s.qn.Intern(name))
	s.attrVal = slices.Insert(s.attrVal, i, val)
}

// Delete removes the subtree rooted at target, shifting the tail left.
func (s *Store) Delete(target xenc.Pre) error {
	if target <= 0 || target >= s.Len() {
		return fmt.Errorf("naive: invalid delete target %d", target)
	}
	k := s.size[target] + 1
	parent := s.parent(target)
	end := int(target + k)
	s.size = slices.Delete(s.size, int(target), end)
	s.level = slices.Delete(s.level, int(target), end)
	s.kind = slices.Delete(s.kind, int(target), end)
	s.name = slices.Delete(s.name, int(target), end)
	s.text = slices.Delete(s.text, int(target), end)
	s.pre = s.pre[:len(s.size)]
	for i := int(target); i < len(s.pre); i++ {
		s.pre[i] = int32(i)
	}
	// Drop the deleted owners' attributes and renumber the rest.
	w := 0
	for i := range s.attrOwner {
		o := s.attrOwner[i]
		if o >= target && o < target+k {
			continue
		}
		if o >= target+k {
			o -= k
		}
		s.attrOwner[w] = o
		s.attrName[w] = s.attrName[i]
		s.attrVal[w] = s.attrVal[i]
		w++
	}
	s.attrOwner = s.attrOwner[:w]
	s.attrName = s.attrName[:w]
	s.attrVal = s.attrVal[:w]
	for a := parent; ; {
		s.size[a] -= k
		if s.level[a] == 0 {
			break
		}
		a = s.parent(a)
	}
	return nil
}

// --- value updates (in place; the naive schema handles these fine) ---------

// SetValue replaces the content of a text, comment or PI node.
func (s *Store) SetValue(p xenc.Pre, val string) error {
	if p < 0 || p >= s.Len() {
		return fmt.Errorf("naive: pre %d out of range", p)
	}
	if s.Kind(p) == xenc.KindElem {
		return fmt.Errorf("naive: SetValue on an element (pre %d)", p)
	}
	s.text[p] = val
	return nil
}

// Rename changes the qualified name of an element or PI node.
func (s *Store) Rename(p xenc.Pre, name string) error {
	if p < 0 || p >= s.Len() {
		return fmt.Errorf("naive: pre %d out of range", p)
	}
	if k := s.Kind(p); k != xenc.KindElem && k != xenc.KindPI {
		return fmt.Errorf("naive: Rename on a %v node (pre %d)", k, p)
	}
	s.name[p] = s.qn.Intern(name)
	return nil
}

// SetAttr adds or replaces an attribute on the element at p. A replaced
// attribute keeps its position; a new one goes last, matching the paged
// store's semantics so differential tests can compare serializations.
func (s *Store) SetAttr(p xenc.Pre, name, val string) error {
	if p < 0 || p >= s.Len() {
		return fmt.Errorf("naive: pre %d out of range", p)
	}
	if s.Kind(p) != xenc.KindElem {
		return fmt.Errorf("naive: SetAttr on a %v node (pre %d)", s.Kind(p), p)
	}
	nameID := s.qn.Intern(name)
	lo, hi := s.attrRange(p)
	for i := lo; i < hi; i++ {
		if s.attrName[i] == nameID {
			s.attrVal[i] = val
			return nil
		}
	}
	s.spliceAttr(p, name, val)
	return nil
}

// RemoveAttr deletes an attribute from the element at p. Removing an
// absent attribute is not an error (XUpdate remove semantics).
func (s *Store) RemoveAttr(p xenc.Pre, name string) error {
	if p < 0 || p >= s.Len() {
		return fmt.Errorf("naive: pre %d out of range", p)
	}
	nameID, ok := s.qn.Lookup(name)
	if !ok {
		return nil
	}
	lo, hi := s.attrRange(p)
	for i := lo; i < hi; i++ {
		if s.attrName[i] == nameID {
			s.attrOwner = slices.Delete(s.attrOwner, i, i+1)
			s.attrName = slices.Delete(s.attrName, i, i+1)
			s.attrVal = slices.Delete(s.attrVal, i, i+1)
			return nil
		}
	}
	return nil
}

// parent finds the parent by the backward level scan every pre/size/level
// store supports.
func (s *Store) parent(p xenc.Pre) xenc.Pre {
	lvl := s.level[p]
	for q := p - 1; q >= 0; q-- {
		if s.level[q] < lvl {
			return q
		}
	}
	return xenc.NoPre
}
