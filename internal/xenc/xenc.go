// Package xenc defines the shared XML encoding types of the
// MonetDB/XQuery reproduction: the pre/size/level node numbering scheme
// (Grust's pre/post plane in its pre/size/level form, cf. Figure 2 of the
// paper), node kinds, interned qualified names, and the DocView interface
// that every document store (read-only, paged-updatable, naive) implements.
// Three interfaces sit beside it. ColumnView hands the bulk operators the
// raw column slices one contiguous run at a time (and a run's used-tuple
// count); every store implements it, and Columnar presents any other
// DocView as one. ParentView answers parent lookups from a store's parent
// table, where a store keeps one. IndexView adds two summaries over the
// runs, where a store keeps them, so a kernel can pass runs uncounted.
//
// Encoding invariants:
//
//   - Nodes are identified by their pre rank: the order in which opening
//     tags are seen during a sequential parse.
//   - size(v) is the number of live descendant nodes of v. In a store
//     without free space (the read-only schema) the classic equivalence
//     post = pre + size - level holds exactly.
//   - level(v) is the depth of v (the document root element has level 0).
//   - A store may interleave *unused tuples* between live nodes (the
//     updatable schema of Section 3). Unused tuples report
//     Level() == LevelUnused; their Size() is the number of directly
//     following consecutive unused tuples within the same logical page, so
//     scans can skip over free space in O(1) per run.
package xenc

import "fmt"

// Pre is a rank in the logical document-order view (the paper's "pre").
type Pre = int32

// Pos is a physical tuple position in the pos/size/level table (the
// paper's "pos"). In the read-only store Pre and Pos coincide.
type Pos = int32

// NodeID is an immutable node number that never changes during the node's
// lifetime (Section 3.1). External tables (attributes) reference NodeIDs.
type NodeID = int32

// Level is a tree depth. LevelUnused marks an unused tuple.
type Level = int16

// Size counts live descendant nodes (or, on an unused tuple, the length of
// the free run that directly follows it).
type Size = int32

const (
	// LevelUnused is the NULL level of an unused tuple.
	LevelUnused Level = -1
	// MaxLevel is the deepest level a node may have. The shredder
	// refuses a document nested past it and the store an insert that
	// would grow past it, which keeps every depth count far from where
	// a Level wraps.
	MaxLevel = 32000
	// NoNode marks a tuple with no live node (unused tuples).
	NoNode NodeID = -1
	// NoName marks kinds without a qualified name (text, comment).
	NoName int32 = -1
	// NoPre reports a failed NodeID -> Pre translation.
	NoPre Pre = -1
)

// Kind classifies a live node.
type Kind uint8

// Node kinds, following the paper's schema (Figure 5): elements, text
// nodes, comments and processing instructions live in the pre/size/level
// table; attributes live in a side table.
const (
	KindElem Kind = iota
	KindText
	KindComment
	KindPI
	KindAttr
	kindSentinel
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case KindElem:
		return "element"
	case KindText:
		return "text"
	case KindComment:
		return "comment"
	case KindPI:
		return "processing-instruction"
	case KindAttr:
		return "attribute"
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// Valid reports whether k is a defined node kind.
func (k Kind) Valid() bool { return k < kindSentinel }

// Attr is one attribute of an element: an interned name and its value.
type Attr struct {
	Name int32  // qname id in the document's QNamePool
	Val  string // attribute value
}

// DocView is the read interface over an encoded XML document. The
// staircase join, the XPath evaluator and the serializer operate purely on
// this interface, so they run unmodified on the read-only schema and on
// the paged updatable schema — exactly the property the paper obtains by
// rebuilding the pre/size/level view with memory mapping.
//
// Pre ranges over [0, Len()). Tuples with Level(p) == LevelUnused are free
// space and must be skipped; all other accessors are only meaningful on
// used tuples.
type DocView interface {
	// Len returns the number of tuples in the view, including unused ones.
	Len() Pre
	// LiveNodes returns the number of live (used) nodes.
	LiveNodes() int
	// Size returns the live descendant count of the node at p, or the
	// free-run length if p is unused.
	Size(p Pre) Size
	// Level returns the depth of the node at p, or LevelUnused.
	Level(p Pre) Level
	// Kind returns the node kind at p (undefined for unused tuples).
	Kind(p Pre) Kind
	// Name returns the interned qualified-name id at p, or NoName.
	Name(p Pre) int32
	// Value returns the textual content for text/comment/PI nodes ("" for
	// elements).
	Value(p Pre) string
	// NodeOf returns the immutable node id of the tuple at p, or NoNode.
	NodeOf(p Pre) NodeID
	// PreOf translates an immutable node id back to its current pre rank,
	// or NoPre if the node does not exist (deleted or never allocated).
	PreOf(n NodeID) Pre
	// Attrs returns the attributes of the element at p in document order.
	// The returned slice must not be modified.
	Attrs(p Pre) []Attr
	// AttrValue returns the value of the named attribute of the element at
	// p, if present.
	AttrValue(p Pre, name int32) (string, bool)
	// Names exposes the document's interned qualified names.
	Names() *QNamePool
	// Root returns the pre rank of the root element (the first used
	// tuple).
	Root() Pre
}

// Columns is a window onto the size, level, kind, name and text columns
// of one run: a maximal stretch of consecutive view ranks whose tuples
// are also consecutive in memory (one logical page of the paged store,
// the whole document in the read-only store, one tuple behind Columnar's
// adapter). The five slices have equal length and share their indexing.
// They alias the store's own memory: they are read-only, and they must
// not be retained across a mutation of the view, which may rewrite them
// in place or replace the page behind a rank by a private copy.
type Columns struct {
	Size  []Size
	Level []Level
	Kind  []uint8 // Kind values
	Name  []int32
	Text  []string // Value at each rank
}

// ColumnView is a DocView that exposes its columns directly. The
// staircase operators and the serializer loop over the slices a run at a
// time instead of making accessor calls per tuple, each redoing the
// rank-to-page translation. They take any DocView and read it through
// Columnar.
type ColumnView interface {
	DocView
	// Cols returns the columns of the run that holds view rank p and
	// p's index in them, for 0 <= p < Len(). Index 0 is view rank p
	// minus the returned index; a run never extends past Len().
	Cols(p Pre) (Columns, int)
	// Live returns the used tuples of the run that holds view rank p and
	// the rank just past that run, without the columns (0 <= p < Len()).
	Live(p Pre) (n int, end Pre)
}

// IndexView is a ColumnView that keeps two summaries over its runs, so
// the kernels pass whole runs they only cross without loading their
// columns. A positional child step passes a run that lies inside its
// context's region by the run's count of matching tuples at the child
// level (Summary); a subtree hop that leaves its run finds the run where
// the subtree ends by the used tuples ahead of each run (SeekUsed). A
// view without them is walked run by run.
type IndexView interface {
	ColumnView
	// Summary returns the summary of the run that holds view rank p and
	// the rank just past that run (0 <= p < Len()). The summary is
	// shared and must not be modified.
	Summary(p Pre) (*RunSummary, Pre)
	// SeekUsed returns the start of the run that holds the m-th used
	// tuple (m >= 1) counted from q, the start of a run, and m less the
	// used tuples of the runs between q and that run. When fewer than m
	// used tuples remain it returns Len().
	SeekUsed(q Pre, m int) (Pre, int)
}

// RunSummary counts the used tuples of one run by level, kind and name.
type RunSummary struct {
	// MinLevel is the smallest level of a used tuple in the run, or
	// MaxLevel+1 when the run holds none.
	MinLevel Level
	// Counts holds one entry per distinct (level, kind, name) of the
	// run's used tuples, ordered by level.
	Counts []LevelCount
}

// LevelCount is the number of used tuples of a run at one level with
// one kind and name.
type LevelCount struct {
	Level Level
	Kind  uint8
	Name  int32
	N     int32
}

// ParentView is implemented by views that keep a parent table and can
// answer a parent lookup without scanning the level column backwards
// over every preceding sibling's subtree. The read-only schema has no
// such table.
type ParentView interface {
	// ParentPre returns the view rank of the parent of the used tuple at
	// p, or NoPre if p is the root.
	ParentPre(p Pre) Pre
}

// Columnar returns v as a ColumnView: v itself if it has columns, else
// an adapter that presents each tuple as a run of one, read through v's
// accessors. A used tuple costs four reads — Level, Size, Kind, then Name
// (element, PI) or Value (any other kind), and both for a PI — and a free
// tuple one, Level: the adapter presents it as a free run of one, since a
// Size read in the middle of a free run is not a run length. The adapter
// is one allocation; each Cols call overwrites the run the previous call
// returned.
func Columnar(v DocView) ColumnView {
	if cv, ok := v.(ColumnView); ok {
		return cv
	}
	return &tuples{DocView: v}
}

// tuples is Columnar's adapter: the columns of the one tuple read last.
type tuples struct {
	DocView
	size  [1]Size
	level [1]Level
	kind  [1]uint8
	name  [1]int32
	text  [1]string
}

func (a *tuples) Cols(p Pre) (Columns, int) {
	l := a.DocView.Level(p)
	a.level[0], a.size[0], a.kind[0], a.name[0], a.text[0] = l, 0, 0, NoName, ""
	if l != LevelUnused {
		k := a.DocView.Kind(p)
		a.size[0], a.kind[0] = a.DocView.Size(p), uint8(k)
		if k == KindElem || k == KindPI {
			a.name[0] = a.DocView.Name(p)
		}
		if k != KindElem {
			a.text[0] = a.DocView.Value(p)
		}
	}
	return Columns{Size: a.size[:], Level: a.level[:], Kind: a.kind[:], Name: a.name[:], Text: a.text[:]}, 0
}

func (a *tuples) Live(p Pre) (int, Pre) {
	if a.DocView.Level(p) == LevelUnused {
		return 0, p + 1
	}
	return 1, p + 1
}

// PostOf computes the post rank of a used tuple under the classic
// equivalence post = pre + size - level. It is exact on stores without
// free space and is exercised by the Figure 2 property tests.
func PostOf(v DocView, p Pre) int32 {
	return p + v.Size(p) - int32(v.Level(p))
}

// IsUsed reports whether the tuple at p holds a live node.
func IsUsed(v DocView, p Pre) bool {
	return p >= 0 && p < v.Len() && v.Level(p) != LevelUnused
}

// SkipFree returns the first used tuple at or after p, hopping over free
// runs using their stored run lengths (the paper: "the size column holds
// the amount of directly following consecutive unused tuples. This allows
// the staircase-join to skip over unused tuples quickly."). It returns
// v.Len() if no used tuple remains.
func SkipFree(v DocView, p Pre) Pre {
	n := v.Len()
	for p < n && v.Level(p) == LevelUnused {
		p += v.Size(p) + 1
	}
	if p > n {
		p = n
	}
	return p
}
