// Package core implements the paper's contribution: an *updatable*
// pre/size/level XML store (Sections 3–3.2, Figures 4, 6 and 7).
//
// The physical table is pos/size/level: it is divided into logical pages,
// each logical page may contain unused tuples, and new logical pages are
// only ever appended. The pre/size/level view that queries run against is
// the physical table with its pages presented in *logical* order; the
// pageOffset tables (logToPhys / physToLog) carry that order. Because the
// pre column of the view is virtual (a void column — here: the slice
// index), all pre numbers after an insert point shift "at no update cost
// at all" when a page is spliced into the logical order.
//
// Every node carries an immutable NodeID; the node/pos table translates
// NodeIDs to physical positions, and the attribute table references
// NodeIDs, so attribute rows never need maintenance when tuples move
// (Figure 6). Translating a NodeID to a pre rank is the paper's swizzle:
// a positional lookup in node/pos followed by
// physToLog[pos>>pageBits]<<pageBits | pos&pageMask.
//
// Unused tuples have level == NULL (xenc.LevelUnused) and their size
// column holds the number of directly following consecutive unused tuples
// *within the same logical page*, so scans skip free space in O(1) per
// run and page splices can never corrupt a run.
//
// size, parent and node/pos are in-memory columns, derived and never
// stored: in pre order the level column fixes the tree, so a checkpoint
// stores level, kind, name, node, text and the attributes, and
// LoadChunked derives the other three in one pass over the levels.
//
// # Copy-on-write snapshots
//
// All columns are physically chunked per page: the pos/size/level table
// is a slice of *page chunks, and the NodeID-keyed tables (node/pos,
// parent, attributes) are chunks of the same granularity. A free node id
// is one whose node/pos entry is NULL (-1), as in Figure 6: there is no
// second list of them. Snapshot reproduces Section 3.2's "temporary view
// backed by a copy-on-write memory-map on the base table": it shares
// every chunk between the base store and the snapshot and copies only
// the per-page directories, so taking a snapshot is O(pages), not
// O(document). Every chunk carries the birth stamp of the store that
// created it, and Snapshot gives both sides fresh stamps, so a shared
// chunk belongs to neither. Every write path funnels through the
// dirtyPage / dirtyNodeChunk hooks, which privately copy a chunk the
// first time a store writes one it did not create — "only those parts
// of the table that are actually updated get copied"; the base table is
// never altered through a snapshot. A transaction therefore
// materializes only the logical pages it touches. Nothing counts
// references: as in the paper's memory map, a copy is made on the first
// write, and a chunk no store holds any more is the garbage collector's.
// Rodeh's shadowing B-trees ("B-trees, Shadowing, and Clones", ACM TOS
// 2008) free a shadowed block by the same rule: it is writable in place
// only by the version that created it.
//
// A snapshot borrows its base's qualified-name pool (it is append-only
// and internally synchronized) until it interns its first new name; then
// it copies the pool, keeping every id, and interns into the copy. Names
// reach the base only when a transaction's image becomes the next
// version (or its operations are replayed onto one), so an aborted
// transaction leaves no name behind.
//
// Attribute values are stored inline, like text: a string in the owner's
// attribute refs, carried by the node chunk as a page chunk carries its
// texts. This departs on purpose from Figure 5's property table, which
// the base, every snapshot and every transaction shared and mutated: an
// abort leaked into it, every checkpoint re-encoded it, and taking the
// leaks back took a pass over the whole document.
package core

import (
	"fmt"
	"iter"
	"math/bits"
	"sort"
	"strings"
	"sync/atomic"

	"mxq/internal/par"
	"mxq/internal/shred"
	"mxq/internal/xenc"
)

// DefaultPageSize is the logical page size in tuples. The paper sets the
// logical page to the virtual-memory mapping granularity; for an in-Go
// store the tuple count is the tunable that matters (ablation AB2).
const DefaultPageSize = 1024

// DefaultFillFactor is the fraction of each logical page the shredder
// fills; the remainder is left unused for future inserts. The Figure 9
// scenario keeps ~20% of the logical pages unused, i.e. fill factor 0.8.
const DefaultFillFactor = 0.8

// Options configure a paged store at build time.
type Options struct {
	// PageSize is the logical page size in tuples (power of two ≥ 8).
	// 0 means DefaultPageSize.
	PageSize int
	// FillFactor in (0,1] is the fraction of each page the shredder
	// fills. 0 means DefaultFillFactor.
	FillFactor float64
}

func (o Options) withDefaults() (Options, error) {
	if o.PageSize == 0 {
		o.PageSize = DefaultPageSize
	}
	if o.FillFactor == 0 {
		o.FillFactor = DefaultFillFactor
	}
	if o.PageSize < 8 || o.PageSize&(o.PageSize-1) != 0 {
		return o, fmt.Errorf("core: page size %d is not a power of two ≥ 8", o.PageSize)
	}
	if o.FillFactor < 0 || o.FillFactor > 1 {
		return o, fmt.Errorf("core: fill factor %g out of (0,1]", o.FillFactor)
	}
	return o, nil
}

type attrRef struct {
	name int32  // qname id
	val  string // the value, owned by the store
}

// page is one physical page's worth of the pos/size/level table (plus the
// kind/name/text/node columns).
//
// stamp is the birth stamp of the store that created the chunk: only
// that store may write it in place, and only while it still holds that
// stamp (Snapshot gives both sides fresh ones). Any other writer takes a
// private copy through Store.dirtyPage. So a chunk two stores share is
// immutable, and nothing counts who shares it: the garbage collector
// frees a chunk once no store holds it. live caches the used tuples + 1
// for Store.Live (0: unknown) and sum the page's xenc.RunSummary for
// Store.Summary (nil: unknown). Both read only the level, kind and name
// columns: like hash, dirtyPage resets them, but dirtyText, for a write
// to the text column alone, keeps them, and dirtySize, for one to the
// size column (derived on load, never encoded), keeps all three. A new
// or decoded page starts without them, a clone with its original's. A
// shared page is read by concurrent snapshots, so all three are
// published atomically, and a summary is immutable once published.
type page struct {
	stamp uint64
	live  atomic.Int32
	sum   atomic.Pointer[xenc.RunSummary]
	hash  chunkHash // content address of the serialized chunk (see chunked.go)
	size  []int32
	level []int16
	kind  []uint8
	name  []int32
	text  []string
	node  []int32 // pos -> NodeID (NoNode on unused tuples)
}

func newPage(n int) *page {
	return &page{
		size:  make([]int32, n),
		level: make([]int16, n),
		kind:  make([]uint8, n),
		name:  make([]int32, n),
		text:  make([]string, n),
		node:  make([]int32, n),
	}
}

func (p *page) clone(stamp uint64) *page {
	c := &page{
		stamp: stamp,
		size:  append([]int32(nil), p.size...),
		level: append([]int16(nil), p.level...),
		kind:  append([]uint8(nil), p.kind...),
		name:  append([]int32(nil), p.name...),
		text:  append([]string(nil), p.text...),
		node:  append([]int32(nil), p.node...),
	}
	c.live.Store(p.live.Load())
	c.sum.Store(p.sum.Load())
	c.hash.p.Store(p.hash.p.Load())
	return c
}

// nodeChunk holds one page-sized chunk of the NodeID-keyed tables:
// node/pos, the parent column, and the attribute table (Figure 6). It is
// copy-on-write with the same stamp discipline as page. Only the
// attributes are encoded; node/pos and parent are derived on load.
type nodeChunk struct {
	stamp  uint64
	hash   chunkHash
	pos    []int32     // NodeID -> Pos (-1 when the id is free)
	parent []int32     // NodeID -> parent NodeID (NoNode for a root)
	attrs  [][]attrRef // NodeID -> attribute refs
}

func newNodeChunk(n int) *nodeChunk {
	return &nodeChunk{
		pos:    make([]int32, n),
		parent: make([]int32, n),
		attrs:  make([][]attrRef, n),
	}
}

func (c *nodeChunk) clone(stamp uint64) *nodeChunk {
	cl := &nodeChunk{
		stamp:  stamp,
		pos:    append([]int32(nil), c.pos...),
		parent: append([]int32(nil), c.parent...),
		attrs:  append([][]attrRef(nil), c.attrs...),
	}
	cl.hash.p.Store(c.hash.p.Load())
	return cl
}

// Store is the paged updatable document store.
//
// A Store is safe for concurrent readers. Writes require external
// serialization (the transaction layer provides it); a Store obtained
// from Snapshot may be written by exactly one goroutine, which is what
// isolates a write transaction from the base.
type Store struct {
	pageBits uint
	pageMask int32
	pageSize int32

	// stamp is the store's birth stamp: the chunks stamped with it are
	// private to this store and written in place, every other chunk is
	// copied via dirtyPage before its first write. Snapshot gives both
	// sides a fresh one, so neither writes what the other still reads.
	// It is an integer, not a *Store, so a shared chunk pins no store.
	stamp atomic.Uint64

	// Physical pos/size/level table, chunked per physical page.
	pages []*page

	// pageOffset tables: logical page order over physical pages.
	logToPhys []int32
	physToLog []int32

	// NodeID-keyed tables, chunked at page granularity with the same
	// copy-on-write discipline. nodeLen is the number of NodeIDs ever
	// allocated (the tail of the last chunk is unallocated headroom).
	nodes   []*nodeChunk
	nodeLen int32

	// nodeFree counts, per node chunk, the free ids below nodeLen (pos
	// -1), so newIDs skips the chunks that hold none. It is derived from
	// node/pos — setPos keeps it, LoadChunked counts it — private per
	// store like the pageOffset tables, and never encoded.
	nodeFree []int32

	// The qualified-name pool: append-only and internally synchronized.
	// While qnBorrowed is set (a snapshot that has interned nothing new)
	// it is the base's pool, which intern copies before adding a name.
	qn         *xenc.QNamePool
	qnBorrowed bool

	// index is the cumulative live count by logical page (SeekUsed),
	// shared with snapshots; see liveIndex.
	index *liveIndex

	liveNodes int
}

// Build copies a shredded tree into a fresh paged store: the tree's nodes
// fed to the builder BuildXML feeds from the shredder directly. Each page
// receives at most FillFactor*PageSize nodes; the page tail is left as an
// unused run.
func Build(t *shred.Tree, opts Options) (*Store, error) {
	b, err := newBuilder(opts)
	if err != nil {
		return nil, err
	}
	for i := range t.Nodes {
		b.Node(&t.Nodes[i])
	}
	return b.finish()
}

// BuildXML shreds a complete document straight into a fresh paged store,
// by shred.Parse's acceptance rule and with its errors, but with no tree
// between: the shredder's pass feeds the builder node by node. The store
// keeps no reference to doc.
func BuildXML(doc string, opts Options) (*Store, error) {
	b, err := newBuilder(opts)
	if err != nil {
		return nil, err
	}
	if err := shred.Shred(doc, shred.Options{}, b); err != nil {
		return nil, err
	}
	return b.finish()
}

// builder fills a fresh store in document order, as a shred.Sink: node
// number i lands in slot i%perPage of page i/perPage, with node id i, its
// parent the open element one level up. An element's size is patched in
// at its end tag (Close), or arrives with the node from a tree. Texts and
// attribute values are kept as they come — substrings of the input,
// perhaps — until finish detaches every page and node chunk from it.
type builder struct {
	s       *Store
	perPage int32
	n       int32            // nodes placed
	open    []xenc.NodeID    // the open elements, by level
	names   map[string]int32 // s.qn's ids, without its lock
}

func newBuilder(opts Options) (*builder, error) {
	opts, err := opts.withDefaults()
	if err != nil {
		return nil, err
	}
	s := &Store{
		pageBits: uint(bits.TrailingZeros(uint(opts.PageSize))),
		pageMask: int32(opts.PageSize - 1),
		pageSize: int32(opts.PageSize),
		qn:       xenc.NewQNamePool(),
		index:    new(liveIndex),
	}
	s.stamp.Store(newStamp())
	return &builder{s: s, perPage: max(1, int32(float64(opts.PageSize)*opts.FillFactor)), names: map[string]int32{}}, nil
}

// intern is s.qn.Intern, in document order, through the builder's own
// map: the store is not shared yet, so nothing else interns meanwhile.
func (b *builder) intern(name string) int32 {
	id, ok := b.names[name]
	if !ok {
		id = b.s.qn.Intern(name)
		b.names[b.s.qn.Name(id)] = id
	}
	return id
}

// pos returns the physical (and logical) position of node number i.
func (b *builder) pos(i int32) int32 { return i/b.perPage<<b.s.pageBits | i%b.perPage }

// Node implements shred.Sink: it places the next node.
func (b *builder) Node(n *shred.Node) {
	s := b.s
	if b.n%b.perPage == 0 {
		pg := s.appendPhysPage()
		s.logToPhys = append(s.logToPhys, pg)
		s.physToLog = append(s.physToLog, pg)
	}
	// Node ids are numbered like the nodes; the chunks are fresh and
	// private, so they are written without the copy-on-write hooks.
	pos, id := b.pos(b.n), b.n
	if id&s.pageMask == 0 {
		s.appendNodeChunk()
	}
	s.nodeLen++
	wp, o := s.pages[pos>>s.pageBits], pos&s.pageMask
	wp.size[o] = n.Size
	wp.level[o] = n.Level
	wp.kind[o] = uint8(n.Kind)
	wp.text[o] = n.Value
	wp.node[o] = id
	wp.name[o] = xenc.NoName
	if n.Kind == xenc.KindElem || n.Kind == xenc.KindPI {
		wp.name[o] = b.intern(n.Name)
	}
	nc, off := s.nodes[id>>s.pageBits], id&s.pageMask
	nc.pos[off] = pos
	nc.parent[off] = xenc.NoNode
	if len(n.Attrs) > 0 {
		refs := make([]attrRef, len(n.Attrs))
		for i, a := range n.Attrs {
			refs[i] = attrRef{name: b.intern(a.Name), val: a.Value}
		}
		nc.attrs[off] = refs
	}
	b.open = b.open[:n.Level]
	if n.Level > 0 {
		nc.parent[off] = b.open[n.Level-1]
	}
	b.open = append(b.open, id)
	b.n++
}

// Close implements shred.Sink: it sets the size of node number i.
func (b *builder) Close(i int, size int32) {
	pos := b.pos(int32(i))
	b.s.pages[pos>>b.s.pageBits].size[pos&b.s.pageMask] = size
}

// finish marks each page's unused tail as a free run and detaches the
// store from its input on every core: a page's texts are copied into one
// string sliced per tuple (the shape decodePageChunk gives a recovered
// page) and a node chunk's attribute values likewise.
func (b *builder) finish() (*Store, error) {
	s := b.s
	if b.n == 0 {
		return nil, fmt.Errorf("core: cannot build a store from an empty tree")
	}
	for pg := range s.pages {
		base := int32(pg) << s.pageBits
		s.markFreeRun(base+min(b.perPage, b.n-int32(pg)*b.perPage), base+s.pageSize)
	}
	s.liveNodes = int(b.n)
	par.Do(len(s.pages), func(i int) error {
		texts := s.pages[i].text
		detach(func(yield func(*string) bool) {
			for j := range texts {
				yield(&texts[j])
			}
		})
		return nil
	})
	par.Do(len(s.nodes), func(i int) error {
		detach(func(yield func(*string) bool) {
			for _, refs := range s.nodes[i].attrs {
				for j := range refs {
					yield(&refs[j].val)
				}
			}
		})
		return nil
	})
	return s, nil
}

// detach copies the strings strs yields into one allocation and points
// each at its copy.
func detach(strs iter.Seq[*string]) {
	n := 0
	for str := range strs {
		n += len(*str)
	}
	if n == 0 {
		return
	}
	var sb strings.Builder
	sb.Grow(n)
	for str := range strs {
		sb.WriteString(*str)
	}
	block := sb.String()
	for str := range strs {
		*str, block = block[:len(*str)], block[len(*str):]
	}
}

// --- copy-on-write plumbing ----------------------------------------------

// newStamp returns a birth stamp no store has held: stamps only grow,
// and 0, the stamp of a decoded or fresh chunk before a store claims it,
// is never handed out.
func newStamp() uint64 { return stamps.Add(1) }

var stamps atomic.Uint64

// dirtyPage is the copy-on-write hook of every physical write path: it
// returns a copy of physical page pg private to this store, copying the
// chunk first unless this store created it since its last Snapshot. It
// drops the chunk's cached hash, live count and summary, which the write
// to come may change.
func (s *Store) dirtyPage(pg int32) *page {
	p := s.dirtyText(pg)
	p.live.Store(0)
	p.sum.Store(nil)
	return p
}

// dirtyText is dirtyPage for a write to the text column alone (a value
// update), which keeps the page's live count and summary.
func (s *Store) dirtyText(pg int32) *page {
	p := s.dirtySize(pg)
	// The caller is about to write: the content hash the chunk had cached
	// no longer describes it. (The shared original keeps its — still
	// valid — one.)
	p.hash.invalidate()
	return p
}

// dirtySize is dirtyPage for a write to the size column alone (an
// ancestor's count), which no chunk encodes and no cache reads: the
// page keeps its hash, live count and summary.
func (s *Store) dirtySize(pg int32) *page {
	p := s.pages[pg]
	if stamp := s.stamp.Load(); p.stamp != stamp {
		p = p.clone(stamp)
		s.pages[pg] = p
	}
	return p
}

// dirtyNodeChunk is dirtySize for the NodeID-keyed tables: of their
// columns only the attributes are encoded, and setAttrs drops the hash.
func (s *Store) dirtyNodeChunk(ch int32) *nodeChunk {
	c := s.nodes[ch]
	if stamp := s.stamp.Load(); c.stamp != stamp {
		c = c.clone(stamp)
		s.nodes[ch] = c
	}
	return c
}

// --- raw column access ----------------------------------------------------

func (s *Store) sizeAt(pos int32) int32  { return s.pages[pos>>s.pageBits].size[pos&s.pageMask] }
func (s *Store) levelAt(pos int32) int16 { return s.pages[pos>>s.pageBits].level[pos&s.pageMask] }
func (s *Store) kindAt(pos int32) uint8  { return s.pages[pos>>s.pageBits].kind[pos&s.pageMask] }
func (s *Store) nameAt(pos int32) int32  { return s.pages[pos>>s.pageBits].name[pos&s.pageMask] }
func (s *Store) textAt(pos int32) string { return s.pages[pos>>s.pageBits].text[pos&s.pageMask] }
func (s *Store) nodeAt(pos int32) int32  { return s.pages[pos>>s.pageBits].node[pos&s.pageMask] }

// posOf returns the physical position of a node id (-1 when free).
func (s *Store) posOf(id xenc.NodeID) int32 {
	return s.nodes[id>>s.pageBits].pos[id&s.pageMask]
}

// setPos writes node/pos, counting the id in nodeFree while it is free.
func (s *Store) setPos(id xenc.NodeID, pos int32) {
	ch := id >> s.pageBits
	slot := &s.dirtyNodeChunk(ch).pos[id&s.pageMask]
	switch {
	case *slot >= 0 && pos < 0:
		s.nodeFree[ch]++
	case *slot < 0 && pos >= 0:
		s.nodeFree[ch]--
	}
	*slot = pos
}

// parentOf returns the parent node id (NoNode for roots).
func (s *Store) parentOf(id xenc.NodeID) xenc.NodeID {
	return s.nodes[id>>s.pageBits].parent[id&s.pageMask]
}

func (s *Store) setParent(id, parent xenc.NodeID) {
	s.dirtyNodeChunk(id >> s.pageBits).parent[id&s.pageMask] = parent
}

// attrRefs is the positional join into the attribute table. The returned
// slice may be shared with snapshots and must not be mutated in place.
func (s *Store) attrRefs(id xenc.NodeID) []attrRef {
	if id < 0 || id >= s.nodeLen {
		return nil
	}
	return s.nodes[id>>s.pageBits].attrs[id&s.pageMask]
}

func (s *Store) setAttrs(id xenc.NodeID, refs []attrRef) {
	c := s.dirtyNodeChunk(id >> s.pageBits)
	c.attrs[id&s.pageMask] = refs
	c.hash.invalidate()
}

// appendPhysPage grows the physical table by one (privately owned) page
// and returns the new physical page number.
func (s *Store) appendPhysPage() int32 {
	pg := int32(len(s.pages))
	p := newPage(int(s.pageSize))
	p.stamp = s.stamp.Load()
	s.pages = append(s.pages, p)
	return pg
}

// appendNodeChunk grows the NodeID-keyed tables by one (privately owned)
// chunk of free ids.
func (s *Store) appendNodeChunk() {
	c := newNodeChunk(int(s.pageSize))
	c.stamp = s.stamp.Load()
	s.nodes = append(s.nodes, c)
	s.nodeFree = append(s.nodeFree, 0)
}

// newIDs allocates k node ids, the lowest free ones first: the paper
// finds a free id by scanning node/pos for NULL, and nodeFree lets the
// scan pass over every chunk without one. Taking a free id writes
// nothing — placing its node does — so which ids a store hands out
// depends on node/pos alone, and a primary, a store recovered from its
// image and a follower all hand out the same ones. Fresh ids are
// appended after those.
func (s *Store) newIDs(k int32) []xenc.NodeID {
	ids := make([]xenc.NodeID, 0, k)
	for ch := 0; ch < len(s.nodeFree) && int32(len(ids)) < k; ch++ {
		if s.nodeFree[ch] == 0 {
			continue
		}
		base := int32(ch) << s.pageBits
		for off, pos := range s.nodes[ch].pos[:min(s.pageSize, s.nodeLen-base)] {
			if pos < 0 {
				if ids = append(ids, base+int32(off)); int32(len(ids)) == k {
					break
				}
			}
		}
	}
	for int32(len(ids)) < k {
		ids = append(ids, s.appendNodeID())
	}
	return ids
}

// appendNodeID appends a fresh id to the NodeID-keyed tables, free until
// its node is placed.
func (s *Store) appendNodeID() xenc.NodeID {
	id := s.nodeLen
	ch := id >> s.pageBits
	if int(ch) == len(s.nodes) {
		s.appendNodeChunk()
	}
	nc := s.dirtyNodeChunk(ch)
	off := id & s.pageMask
	nc.pos[off] = -1
	nc.parent[off] = xenc.NoNode
	nc.attrs[off] = nil
	s.nodeFree[ch]++
	s.nodeLen++
	return id
}

// writeNode materializes one shredded node at physical position pos,
// with text — n.Value in memory the store owns — as its value and copies
// of its attribute values (a tree may alias the text it was parsed from).
func (s *Store) writeNode(pos int32, n *shred.Node, text string, id xenc.NodeID) {
	wp := s.dirtyPage(pos >> s.pageBits)
	o := pos & s.pageMask
	wp.size[o] = n.Size
	wp.level[o] = n.Level
	wp.kind[o] = uint8(n.Kind)
	wp.text[o] = text
	wp.node[o] = id
	s.setPos(id, pos)
	switch n.Kind {
	case xenc.KindElem, xenc.KindPI:
		wp.name[o] = s.intern(n.Name)
	default:
		wp.name[o] = xenc.NoName
	}
	if len(n.Attrs) > 0 {
		refs := make([]attrRef, len(n.Attrs))
		for i, a := range n.Attrs {
			refs[i] = attrRef{name: s.intern(a.Name), val: strings.Clone(a.Value)}
		}
		s.setAttrs(id, refs)
	}
}

// markFreeRun marks physical positions [from, to) as one unused run with
// descending run lengths ("size set to unite consecutive space"). Both
// bounds must lie within a single physical page.
func (s *Store) markFreeRun(from, to int32) {
	if from >= to {
		return
	}
	wp := s.dirtyPage(from >> s.pageBits)
	for pos := from; pos < to; pos++ {
		o := pos & s.pageMask
		wp.level[o] = xenc.LevelUnused
		wp.size[o] = to - pos - 1
		wp.kind[o] = 0
		wp.name[o] = 0
		wp.text[o] = ""
		wp.node[o] = xenc.NoNode
	}
}

// recomputeFreeRuns rebuilds the free-run lengths of one physical page.
func (s *Store) recomputeFreeRuns(physPage int32) {
	wp := s.dirtyPage(physPage)
	run := int32(0)
	for off := s.pageSize - 1; off >= 0; off-- {
		if wp.level[off] == xenc.LevelUnused {
			wp.size[off] = run
			run++
		} else {
			run = 0
		}
	}
}

// --- DocView -------------------------------------------------------------

// physOf translates a view rank (pre) to a physical position.
func (s *Store) physOf(p xenc.Pre) int32 {
	return s.logToPhys[p>>s.pageBits]<<s.pageBits | p&s.pageMask
}

// preOfPos translates a physical position to its view rank — the paper's
// pageOffset swizzle.
func (s *Store) preOfPos(pos int32) xenc.Pre {
	return s.physToLog[pos>>s.pageBits]<<s.pageBits | pos&s.pageMask
}

// Len returns the view length, including unused tuples.
func (s *Store) Len() xenc.Pre { return int32(len(s.pages)) << s.pageBits }

// LiveNodes returns the number of live nodes.
func (s *Store) LiveNodes() int { return s.liveNodes }

// Size returns the live descendant count (or free-run length) at p.
func (s *Store) Size(p xenc.Pre) xenc.Size { return s.sizeAt(s.physOf(p)) }

// Level returns the depth at p, or xenc.LevelUnused.
func (s *Store) Level(p xenc.Pre) xenc.Level { return s.levelAt(s.physOf(p)) }

// Kind returns the node kind at p.
func (s *Store) Kind(p xenc.Pre) xenc.Kind { return xenc.Kind(s.kindAt(s.physOf(p))) }

// Name returns the interned name id at p.
func (s *Store) Name(p xenc.Pre) int32 { return s.nameAt(s.physOf(p)) }

// Value returns the text content at p.
func (s *Store) Value(p xenc.Pre) string { return s.textAt(s.physOf(p)) }

// NodeOf returns the immutable node id at p.
func (s *Store) NodeOf(p xenc.Pre) xenc.NodeID { return s.nodeAt(s.physOf(p)) }

// PreOf translates a node id to its current view rank.
func (s *Store) PreOf(n xenc.NodeID) xenc.Pre {
	if n < 0 || n >= s.nodeLen {
		return xenc.NoPre
	}
	pos := s.posOf(n)
	if pos < 0 {
		return xenc.NoPre
	}
	return s.preOfPos(pos)
}

// Attrs returns the attributes of the element at p. Note the extra
// node/pos hop the updatable schema pays here, which the paper calls out
// as part of the measured overhead.
func (s *Store) Attrs(p xenc.Pre) []xenc.Attr {
	refs := s.attrRefs(s.NodeOf(p))
	if len(refs) == 0 {
		return nil
	}
	out := make([]xenc.Attr, len(refs))
	for i, r := range refs {
		out[i] = xenc.Attr{Name: r.name, Val: r.val}
	}
	return out
}

// AttrValue returns the value of the named attribute of the element at p.
func (s *Store) AttrValue(p xenc.Pre, name int32) (string, bool) {
	for _, r := range s.attrRefs(s.NodeOf(p)) {
		if r.name == name {
			return r.val, true
		}
	}
	return "", false
}

// Names exposes the document's interned names.
func (s *Store) Names() *xenc.QNamePool { return s.qn }

// intern returns name's id, adding it to s's pool if new. A snapshot
// answers from the borrowed pool while it can; on its first new name it
// copies what the pool holds now (ids keep their values, so its columns
// and cached page summaries still read right) and interns into the copy.
func (s *Store) intern(name string) int32 {
	if s.qnBorrowed {
		if id, ok := s.qn.Lookup(name); ok {
			return id
		}
		own := xenc.NewQNamePool()
		for _, n := range s.qn.Table() {
			own.Intern(n)
		}
		s.qn, s.qnBorrowed = own, false
	}
	return s.qn.Intern(name)
}

// Cols implements xenc.ColumnView. A run is one logical page: the page
// chunk behind p, whichever physical page the pageOffset table maps it
// to. The slices are the chunk's own columns, shared with every snapshot
// that shares the chunk; a later write to this store may update them in
// place or swap the chunk for a private copy.
func (s *Store) Cols(p xenc.Pre) (xenc.Columns, int) {
	pg := s.pages[s.logToPhys[p>>s.pageBits]]
	return xenc.Columns{Size: pg.size, Level: pg.level, Kind: pg.kind, Name: pg.name, Text: pg.text}, int(p & s.pageMask)
}

// Live implements xenc.ColumnView: the used tuples of p's logical page,
// counted once and cached on the chunk until its next write.
func (s *Store) Live(p xenc.Pre) (int, xenc.Pre) {
	return int(s.pages[s.logToPhys[p>>s.pageBits]].liveCount()), (p>>s.pageBits + 1) << s.pageBits
}

func (p *page) liveCount() int32 {
	n := p.live.Load() - 1
	if n < 0 {
		n = p.used()
		p.live.Store(n + 1)
	}
	return n
}

func (p *page) used() int32 {
	n := int32(0)
	for _, l := range p.level {
		if l != xenc.LevelUnused {
			n++
		}
	}
	return n
}

// Summary implements xenc.IndexView: the summary of p's logical page,
// built by one pass on first use and cached on the chunk until its next
// write, as Live's count is.
func (s *Store) Summary(p xenc.Pre) (*xenc.RunSummary, xenc.Pre) {
	pg := s.pages[s.logToPhys[p>>s.pageBits]]
	sum := pg.sum.Load()
	if sum == nil {
		sum = summarize(pg.level, pg.kind, pg.name)
		pg.sum.Store(sum)
	}
	return sum, (p>>s.pageBits + 1) << s.pageBits
}

// summarize counts the used tuples of a page by level, kind and name.
func summarize(level []xenc.Level, kind []uint8, name []int32) *xenc.RunSummary {
	s := &xenc.RunSummary{MinLevel: xenc.MaxLevel + 1}
	hi := xenc.LevelUnused
	for _, l := range level {
		if l != xenc.LevelUnused {
			s.MinLevel, hi = min(s.MinLevel, l), max(hi, l)
		}
	}
	if hi == xenc.LevelUnused {
		return s
	}
	// One short list per level: a level holds few distinct names.
	byLevel := make([][]xenc.LevelCount, hi-s.MinLevel+1)
	n := 0
	for i, l := range level {
		if l == xenc.LevelUnused {
			continue
		}
		b := byLevel[l-s.MinLevel]
		j := len(b) - 1
		for j >= 0 && (b[j].Kind != kind[i] || b[j].Name != name[i]) {
			j--
		}
		if j >= 0 {
			b[j].N++
			continue
		}
		byLevel[l-s.MinLevel] = append(b, xenc.LevelCount{Level: l, Kind: kind[i], Name: name[i], N: 1})
		n++
	}
	s.Counts = make([]xenc.LevelCount, 0, n)
	for _, b := range byLevel {
		s.Counts = append(s.Counts, b...)
	}
	return s
}

// liveIndex holds cum, the cumulative live count by logical page: cum[i]
// is the used tuples ahead of logical page i, and the last entry all of
// them. It is built on first use and shared by pointer between a store
// and its snapshots until one of them inserts or deletes (which changes
// a page's live count or the page order) and takes a fresh, empty one;
// a value, name or attribute update keeps it, so back-to-back commits
// of those reuse one table. Concurrent readers of a shared store may
// build it at once: each publishes an equal table.
type liveIndex struct{ cum atomic.Pointer[[]int32] }

// SeekUsed implements xenc.IndexView by a binary search of the
// cumulative live counts, O(log pages).
func (s *Store) SeekUsed(q xenc.Pre, m int) (xenc.Pre, int) {
	cum := s.cumLive()
	lp := int(q >> s.pageBits)
	want := cum[lp] + int32(m)
	last := len(cum) - 1
	// The first logical page from lp on whose end has passed want used
	// tuples.
	j := lp + sort.Search(last-lp, func(i int) bool { return cum[lp+i+1] >= want })
	if j == last {
		return s.Len(), int(want - cum[j])
	}
	return xenc.Pre(j) << s.pageBits, int(want - cum[j])
}

func (s *Store) cumLive() []int32 {
	if cum := s.index.cum.Load(); cum != nil {
		return *cum
	}
	cum := make([]int32, len(s.logToPhys)+1)
	for i, ph := range s.logToPhys {
		cum[i+1] = cum[i] + s.pages[ph].liveCount()
	}
	s.index.cum.Store(&cum)
	return cum
}

var (
	_ xenc.IndexView  = (*Store)(nil)
	_ xenc.ParentView = (*Store)(nil)
)

// Root returns the view rank of the root element.
func (s *Store) Root() xenc.Pre { return xenc.SkipFree(s, 0) }

// Pages returns the number of logical pages.
func (s *Store) Pages() int { return len(s.logToPhys) }

// PhysPage returns the physical page number backing the logical page that
// contains view rank p. Physical page numbers are stable for the lifetime
// of the store — splices only append new physical pages — which is why
// the transaction lock table uses them as lock names.
func (s *Store) PhysPage(p xenc.Pre) int32 { return s.logToPhys[p>>s.pageBits] }

// PageSize returns the logical page size in tuples.
func (s *Store) PageSize() int { return int(s.pageSize) }

var _ xenc.DocView = (*Store)(nil)
