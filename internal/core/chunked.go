package core

import (
	"fmt"
	"math"
	"sync/atomic"

	"mxq/internal/chunkstore"
	"mxq/internal/par"
	"mxq/internal/wire"
	"mxq/internal/xenc"
)

// This file is the content-addressed face of the store: the chunked
// column layout (store.go) serialized chunk by chunk. Each page chunk,
// node chunk and name group has a deterministic binary encoding
// whose SHA-256 names it in a chunkstore.Store; a checkpoint image is a
// ChunkManifest — the list of those names in column order plus the
// store's scalars.
//
// A chunk stores only what cannot be derived. In pre order the level
// column fixes the tree, so a tuple's size (its live-descendant count,
// or a free tuple's run length), its parent and node/pos follow from
// the levels and the pages' node column: LoadChunked rebuilds all three
// in one pass (deriveTree), and no chunk encodes them. What is stored
// is treated as what the paper says it is — narrow, locally dense
// integer columns: varints, and deltas where neighbours are close
// (level, node), so a tuple of a freshly shredded document costs about
// 6 bytes of structure next to its text (TestChunkBytesPerTuple).
// There is one codec and no version switch: see the layout table below.
//
// The payoff is the COW layer's own bookkeeping reused as a dirty map:
// every write path funnels through the dirty* hooks, which invalidate
// the touched chunk's cached content hash. At save time an untouched
// chunk's hash is read from the cache (no serialization, no hashing)
// and — the store already holding a chunk of that name — no bytes move.
// A checkpoint after small churn therefore costs O(dirtied chunks) in
// both CPU and I/O, not O(document), and two stores that share content
// (a primary and its follower) dedupe chunk transfer the same way.
//
// Hash caching is safe under the COW protocol: a chunk shared with any
// other store is frozen — writers clone it, hash and all — so a pinned
// checkpoint version's chunks never change under the save. A chunk's
// bytes depend on its stored columns alone, and every write to those
// drops the hash; a write to size, node/pos or parent alone keeps it.

// chunkHash caches a chunk's content address. The zero value is the
// "unknown" state; dirty* hooks reset to it before any write.
type chunkHash struct {
	p atomic.Pointer[chunkstore.Hash]
}

func (c *chunkHash) get() (chunkstore.Hash, bool) {
	if h := c.p.Load(); h != nil {
		return *h, true
	}
	return chunkstore.Hash{}, false
}

func (c *chunkHash) set(h chunkstore.Hash) { c.p.Store(&h) }
func (c *chunkHash) invalidate()           { c.p.Store(nil) }

// Chunk encoding kind tags (first byte of every chunk). Tags 1–4 were
// the fixed-width encodings this codec replaced, tag 6 the node chunk
// whose attribute refs named values in a shared dictionary, tag 7 a run
// of the recycled-NodeID stack that free ids are no longer kept in, and
// tags 5 and 9 the page chunk that stored size and the node chunk that
// stored node/pos and parent; nothing was ever deployed with them, so
// they are rejected, not migrated.
const (
	chunkKindDict = 8  // a group of qualified names
	chunkKindPage = 10 // level/kind/name/node/text columns of one page
	chunkKindNode = 11 // attribute columns of one node chunk
)

// dictGroupSize is the number of names per dict chunk. The name pool is
// append-only, so grouping keeps every group but the tail byte-stable
// across checkpoints — they dedupe like data chunks.
const dictGroupSize = 4096

// ChunkManifest is a checkpoint image in the content-addressed format:
// the store's scalars and offset tables inline, every bulk column as a
// list of chunk hashes (lowercase hex) in column order. A manifest is
// self-contained — it names every chunk of the full document, so
// recovery never mixes two images; "incremental" is purely a write-side
// property (chunks already in the store are not rewritten).
type ChunkManifest struct {
	PageBits  uint     `json:"pageBits"`
	LogToPhys []int32  `json:"logToPhys"`
	PhysToLog []int32  `json:"physToLog"`
	NodeLen   int32    `json:"nodeLen"`
	LiveNodes int      `json:"liveNodes"`
	Pages     []string `json:"pages"`
	Nodes     []string `json:"nodes"`
	Names     []string `json:"names,omitempty"`
}

// TotalChunks returns the number of chunk references in the manifest.
func (m *ChunkManifest) TotalChunks() int {
	return len(m.Pages) + len(m.Nodes) + len(m.Names)
}

// ChunkHashes parses every chunk reference, in manifest order.
func (m *ChunkManifest) ChunkHashes() ([]chunkstore.Hash, error) {
	out := make([]chunkstore.Hash, 0, m.TotalChunks())
	for _, list := range [][]string{m.Pages, m.Nodes, m.Names} {
		for _, s := range list {
			h, err := chunkstore.ParseHash(s)
			if err != nil {
				return nil, fmt.Errorf("core: manifest is corrupt: %w", err)
			}
			out = append(out, h)
		}
	}
	return out, nil
}

// ChunkSaveStats reports what one SaveChunked actually moved — the
// observable incremental-checkpoint win (Stats surfaces it).
type ChunkSaveStats struct {
	ChunksTotal   int   // chunk references in the manifest
	ChunksWritten int   // chunks the store was missing (bytes moved)
	ChunksReused  int   // ChunksTotal - ChunksWritten
	BytesWritten  int64 // serialized bytes actually written
}

// --- deterministic chunk encoding ----------------------------------------
//
// Chunks are column-wise, and every integer is a canonical LEB128
// uvarint of at most 32 bits (shortest form only, so a byte string the
// decoder accepts is the one the encoder would have produced — a
// chunk's name covers its meaning, not just its bytes). "uv" below is
// such a uvarint; "zz-delta" is the zigzag of the wrapping difference
// to the previous value of the same column (first value against 0), as
// a uv. The arithmetic wraps at 32 bits, so every int32 round-trips
// whatever its neighbours are (level is 16 bits wide: its deltas never
// wrap, and a decoded level outside int16 is refused).
//
//	page  tag 10 | uv n | level: n × zz-delta | kind: n raw bytes |
//	      name: n × uv(name+1) (NoName → 0) | node: n × zz-delta |
//	      text lengths: n × uv | text bytes
//	node  tag 11 | uv n | attribute counts: n × uv |
//	      attribute names: Σcounts × uv | value lengths: Σcounts × uv |
//	      value bytes
//	dict  tag 8 | uv count | lengths: count × uv | string bytes
//
// The text (attribute value, name) bytes are one block closing the
// chunk; the decoder converts it to one string and slices it per tuple,
// so a page costs one text allocation, not one per text node, and a node
// chunk one for all its values.
//
// A chunk is written with a wire.PayloadBuilder and read with a
// wire.PayloadReader, whose first error sticks: a decoder reads a
// whole chunk and checks the reader's error once, and a count read off
// a failed reader is 0, so nothing is allocated for it.

// zigzag maps d to a uv: small magnitudes of either sign stay short.
func zigzag(d int32) uint64 { return uint64(uint32(d<<1) ^ uint32(d>>31)) }

// uv32 reads a uv, refusing a value wider than 32 bits.
func uv32(r *wire.PayloadReader) uint32 { return uint32(r.UvarintMax(math.MaxUint32)) }

// unzigzag reads a zigzag-coded uv.
func unzigzag(r *wire.PayloadReader) int32 {
	u := uv32(r)
	return int32(u>>1) ^ -int32(u&1)
}

// appendDeltas appends col zz-delta coded.
func appendDeltas[T int16 | int32](p *wire.PayloadBuilder, col []T) {
	prev := int32(0)
	for _, v := range col {
		p.Uvarint(zigzag(int32(v) - prev))
		prev = int32(v)
	}
}

// readDeltas reads a zz-delta coded column, refusing a value T cannot
// hold.
func readDeltas[T int16 | int32](r *wire.PayloadReader, col []T) {
	prev := int32(0)
	for i := range col {
		if prev += unzigzag(r); prev != int32(T(prev)) {
			r.Fail(fmt.Errorf("core: chunk column value %d overflows %T", prev, col[i]))
			return
		}
		col[i] = T(prev)
	}
}

// appendStrs appends a lengths column followed by the concatenated bytes.
func appendStrs(p *wire.PayloadBuilder, col []string) {
	for _, s := range col {
		p.Uvarint(uint64(len(s)))
	}
	for _, s := range col {
		p.RawString(s)
	}
}

func strsLen(col []string) int {
	n := 0
	for _, s := range col {
		n += len(s)
	}
	return n
}

// readStrs reads a lengths column and slices the rest of the chunk —
// which the lengths must cover exactly, so no byte trails a chunk —
// into col, sharing one allocation.
func readStrs(r *wire.PayloadReader, col []string) {
	lens := make([]uint32, len(col))
	total := uint64(0)
	for i := range lens {
		lens[i] = uv32(r)
		total += uint64(lens[i])
	}
	if r.Err() != nil {
		return
	}
	if rest := uint64(r.Remaining()); total != rest {
		r.Fail(fmt.Errorf("core: chunk string lengths total %d, %d bytes follow", total, rest))
		return
	}
	block := string(r.Rest())
	at := 0
	for i, n := range lens {
		col[i] = block[at : at+int(n)]
		at += int(n)
	}
}

// beginChunk checks the kind tag and reads the entry count, which may
// not exceed limit nor what the rest of the chunk holds at minBytes per
// entry — so whatever the decoder allocates next is bounded by the input.
func beginChunk(r *wire.PayloadReader, kind byte, what string, limit int32, minBytes int) int {
	switch tag, err := r.Byte(); {
	case err != nil, tag == kind:
	case tag == chunkKindPage, tag == chunkKindDict, tag == chunkKindNode:
		r.Fail(fmt.Errorf("core: chunk kind %d, want %s (%d)", tag, what, kind))
	default:
		r.Fail(fmt.Errorf("core: unsupported chunk format (kind tag %d); no migration from older builds", tag))
	}
	n, _ := r.Count(minBytes)
	if n > uint64(limit) {
		r.Fail(fmt.Errorf("core: %s chunk count %d exceeds limit %d", what, n, limit))
		return 0
	}
	return int(n)
}

func encodePageChunk(pg *page) []byte {
	var p wire.PayloadBuilder
	p.Reset(6*len(pg.level) + strsLen(pg.text) + 8)
	p.Byte(chunkKindPage).Uvarint(uint64(len(pg.level)))
	appendDeltas(&p, pg.level)
	p.Raw(pg.kind)
	for _, v := range pg.name {
		p.Uvarint(uint64(uint32(v + 1)))
	}
	appendDeltas(&p, pg.node)
	appendStrs(&p, pg.text)
	return p.Bytes()
}

// decodePageChunk leaves the size column for LoadChunked to derive.
func decodePageChunk(data []byte, pageSize int32) (*page, error) {
	r := wire.NewPayloadReader(data)
	// level, kind, name, node and text length: ≥ 5 bytes a tuple.
	if n := beginChunk(r, chunkKindPage, "page", pageSize, 5); r.Err() != nil {
		return nil, r.Err()
	} else if int32(n) != pageSize {
		return nil, fmt.Errorf("core: page chunk holds %d tuples, store page size is %d", n, pageSize)
	}
	p := newPage(int(pageSize))
	readDeltas(r, p.level)
	copy(p.kind, r.Next(len(p.kind)))
	for i := range p.name {
		p.name[i] = int32(uv32(r)) - 1
	}
	readDeltas(r, p.node)
	readStrs(r, p.text)
	if err := r.Err(); err != nil {
		return nil, err
	}
	return p, nil
}

func encodeNodeChunk(c *nodeChunk) []byte {
	var p wire.PayloadBuilder
	p.Reset(len(c.attrs) + 8)
	p.Byte(chunkKindNode).Uvarint(uint64(len(c.attrs)))
	for _, refs := range c.attrs {
		p.Uvarint(uint64(len(refs)))
	}
	eachRef := func(fn func(r attrRef)) {
		for _, refs := range c.attrs {
			for _, r := range refs {
				fn(r)
			}
		}
	}
	eachRef(func(r attrRef) { p.Uvarint(uint64(uint32(r.name))) })
	eachRef(func(r attrRef) { p.Uvarint(uint64(len(r.val))) })
	eachRef(func(r attrRef) { p.RawString(r.val) })
	return p.Bytes()
}

// decodeNodeChunk leaves node/pos and parent for LoadChunked to derive.
func decodeNodeChunk(data []byte, pageSize int32) (*nodeChunk, error) {
	r := wire.NewPayloadReader(data)
	// An attribute count: ≥ 1 byte an id.
	if n := beginChunk(r, chunkKindNode, "node", pageSize, 1); r.Err() != nil {
		return nil, r.Err()
	} else if int32(n) != pageSize {
		return nil, fmt.Errorf("core: node chunk holds %d ids, store page size is %d", n, pageSize)
	}
	c := newNodeChunk(int(pageSize))
	counts := make([]uint32, pageSize)
	total := uint64(0)
	for i := range counts {
		counts[i] = uv32(r)
		total += uint64(counts[i])
	}
	// Each attribute ref costs ≥ 2 bytes of what is left (name, length).
	if total > uint64(r.Remaining())/2 {
		r.Fail(fmt.Errorf("core: node chunk claims %d attribute refs in %d bytes", total, r.Remaining()))
	}
	if err := r.Err(); err != nil {
		return nil, err
	}
	refs := make([]attrRef, total)
	for i := range refs {
		refs[i].name = int32(uv32(r))
	}
	vals := make([]string, total)
	readStrs(r, vals)
	for i := range refs {
		refs[i].val = vals[i]
	}
	at := 0
	for i, n := range counts {
		if n > 0 {
			// Capped, so an append to one node's refs can never grow into
			// its neighbour's.
			c.attrs[i] = refs[at : at+int(n) : at+int(n)]
			at += int(n)
		}
	}
	if err := r.Err(); err != nil {
		return nil, err
	}
	return c, nil
}

func encodeDictChunk(vals []string) []byte {
	var p wire.PayloadBuilder
	p.Reset(2*len(vals) + strsLen(vals) + 8)
	p.Byte(chunkKindDict).Uvarint(uint64(len(vals)))
	appendStrs(&p, vals)
	return p.Bytes()
}

func decodeDictChunk(data []byte) ([]string, error) {
	r := wire.NewPayloadReader(data)
	vals := make([]string, beginChunk(r, chunkKindDict, "dict", dictGroupSize, 1))
	readStrs(r, vals)
	if err := r.Err(); err != nil {
		return nil, err
	}
	return vals, nil
}

// --- save / load ----------------------------------------------------------

// chunkRef is one manifest chunk reference plus a way to (re)produce
// its bytes: data is non-nil when serialization already happened (cache
// miss), ser re-serializes on demand (cache hit whose bytes turn out to
// be needed after all — e.g. the chunk store lost the chunk). cache is
// where the chunk keeps its hash — a scratch one if it may not.
type chunkRef struct {
	hash  chunkstore.Hash
	data  []byte
	ser   func() []byte
	cache *chunkHash
}

func (r *chunkRef) bytes() []byte {
	if r.data == nil {
		r.data = r.ser()
	}
	return r.data
}

// collectChunks computes the store's manifest, reading cached chunk
// hashes where the COW layer proves the chunk unchanged and serializing
// (then caching) the rest — on every core: a first image has them all to
// do. The returned refs parallel the manifest's chunk references in order.
func (s *Store) collectChunks() (*ChunkManifest, []chunkRef) {
	m := &ChunkManifest{
		PageBits:  s.pageBits,
		LogToPhys: append([]int32(nil), s.logToPhys...),
		PhysToLog: append([]int32(nil), s.physToLog...),
		NodeLen:   s.nodeLen,
		LiveNodes: s.liveNodes,
	}
	refs := make([]chunkRef, 0, len(s.pages)+len(s.nodes)+2)

	var lists []*[]string // the manifest list each ref is named in
	add := func(cache *chunkHash, ser func() []byte, list *[]string) {
		refs = append(refs, chunkRef{ser: ser, cache: cache})
		lists = append(lists, list)
	}

	for _, p := range s.pages {
		p := p
		add(&p.hash, func() []byte { return encodePageChunk(p) }, &m.Pages)
	}
	for _, c := range s.nodes {
		c := c
		add(&c.hash, func() []byte { return encodeNodeChunk(c) }, &m.Nodes)
	}
	names := s.qn.NamesList()
	for at := 0; at < len(names); at += dictGroupSize {
		group := names[at:min(at+dictGroupSize, len(names))]
		add(new(chunkHash), func() []byte { return encodeDictChunk(group) }, &m.Names)
	}

	par.Do(len(refs), func(i int) error { // never fails
		ref, ok := &refs[i], false
		if ref.hash, ok = ref.cache.get(); !ok {
			ref.data = ref.ser()
			ref.hash = chunkstore.Sum(ref.data)
			ref.cache.set(ref.hash)
		}
		return nil
	})
	for i := range refs {
		*lists[i] = append(*lists[i], refs[i].hash.String())
	}
	return m, refs
}

// SaveChunked writes the store into cs in content-addressed form and
// returns the manifest describing it. Only chunks cs does not already
// hold are serialized in full and written — after small churn that is
// the dirtied chunks plus the name pool's tail, never the whole
// document. They go out through chunkstore.PutAll: as one batch when cs
// is a BatchPutter (the local Dir writes it as one pack file), else one
// Put each, so a store that wraps Put sees every chunk. cs is synced
// before returning, so a caller may durably publish the manifest
// immediately.
//
// SaveChunked requires the store to be free of concurrent writes; a
// pinned checkpoint snapshot satisfies that by construction.
func (s *Store) SaveChunked(cs chunkstore.Store) (*ChunkManifest, ChunkSaveStats, error) {
	m, refs := s.collectChunks()
	stats := ChunkSaveStats{ChunksTotal: len(refs)}

	// One existence probe per unique hash (a document full of identical
	// pages — fill pages, say — references one chunk many times).
	firstRef := make(map[chunkstore.Hash]int, len(refs))
	order := make([]chunkstore.Hash, 0, len(refs))
	for i := range refs {
		if _, ok := firstRef[refs[i].hash]; !ok {
			firstRef[refs[i].hash] = i
			order = append(order, refs[i].hash)
		}
	}
	have, err := cs.HasMany(order)
	if err != nil {
		return nil, stats, fmt.Errorf("core: probing chunk store: %w", err)
	}
	var missing []chunkstore.Hash
	for j, h := range order {
		if !have[j] {
			missing = append(missing, h)
		}
	}
	datas := make([][]byte, len(missing))
	par.Do(len(missing), func(j int) error { // never fails
		datas[j] = refs[firstRef[missing[j]]].bytes() // serializes, where only the hash was cached
		return nil
	})
	if err := chunkstore.PutAll(cs, missing, datas); err != nil {
		return nil, stats, fmt.Errorf("core: writing %d chunks: %w", len(missing), err)
	}
	stats.ChunksWritten = len(missing)
	for _, data := range datas {
		stats.BytesWritten += int64(len(data))
	}
	stats.ChunksReused = stats.ChunksTotal - stats.ChunksWritten
	if err := cs.Sync(); err != nil {
		return nil, stats, fmt.Errorf("core: syncing chunk store: %w", err)
	}
	return m, stats, nil
}

// BuildManifest computes the store's manifest without writing anywhere
// and returns a resolver that serializes any referenced chunk on
// demand. The replication sender uses it to serve a chunked bootstrap
// straight from a pinned snapshot: the manifest ships first, then only
// the chunks the follower asks for — no chunk-store round trip, no GC
// race (the pin freezes every chunk the resolver closes over).
func (s *Store) BuildManifest() (*ChunkManifest, func(chunkstore.Hash) ([]byte, bool)) {
	m, refs := s.collectChunks()
	byHash := make(map[chunkstore.Hash]*chunkRef, len(refs))
	for i := range refs {
		if _, ok := byHash[refs[i].hash]; !ok {
			byHash[refs[i].hash] = &refs[i]
		}
	}
	return m, func(h chunkstore.Hash) ([]byte, bool) {
		r, ok := byHash[h]
		if !ok {
			return nil, false
		}
		return r.bytes(), true
	}
}

// LoadChunked materializes a store from a manifest, fetching every
// referenced chunk from cs, and derives size, parent and node/pos in
// one pass (deriveTree) that refuses a tree no store holds — and an id
// two tuples hold. The chunk store verifies each chunk against its
// name, so a torn chunk is a load error too: recovery then degrades to
// an older image.
//
// Loaded chunks arrive with their content hashes already cached, so the
// first SaveChunked after a load (a follower's post-bootstrap
// checkpoint, a primary's first checkpoint after restart) re-serializes
// nothing that did not change.
func LoadChunked(m *ChunkManifest, cs chunkstore.Store) (*Store, error) {
	if m.PageBits < 3 || m.PageBits > 30 {
		return nil, fmt.Errorf("core: manifest is corrupt: page bits %d out of range [3,30]", m.PageBits)
	}
	pageSize := int32(1) << m.PageBits
	if m.NodeLen < 0 {
		return nil, fmt.Errorf("core: manifest is corrupt: negative node count %d", m.NodeLen)
	}
	if want := int((m.NodeLen + pageSize - 1) >> m.PageBits); len(m.Nodes) != want {
		return nil, fmt.Errorf("core: manifest is corrupt: %d node chunks for %d ids (want %d)", len(m.Nodes), m.NodeLen, want)
	}
	s := &Store{
		pageBits:  m.PageBits,
		pageMask:  pageSize - 1,
		pageSize:  pageSize,
		logToPhys: append([]int32(nil), m.LogToPhys...),
		physToLog: append([]int32(nil), m.PhysToLog...),
		nodeLen:   m.NodeLen,
		qn:        xenc.NewQNamePool(),
		index:     new(liveIndex),
		liveNodes: m.LiveNodes,
	}
	stamp := newStamp()
	s.stamp.Store(stamp)
	var err error
	s.pages, err = loadChunks(cs, m.Pages, func(_ int, h chunkstore.Hash, data []byte) (*page, error) {
		p, err := decodePageChunk(data, pageSize)
		if err == nil {
			p.hash.set(h)
			p.stamp = stamp
		}
		return p, err
	})
	if err != nil {
		return nil, err
	}
	s.nodes, err = loadChunks(cs, m.Nodes, func(i int, h chunkstore.Hash, data []byte) (*nodeChunk, error) {
		c, err := decodeNodeChunk(data, pageSize)
		if err != nil {
			return nil, err
		}
		c.hash.set(h)
		c.stamp = stamp
		// Every allocated id is free until deriveTree finds its tuple.
		for off := range c.pos[:min(pageSize, m.NodeLen-int32(i)<<m.PageBits)] {
			c.pos[off], c.parent[off] = -1, xenc.NoNode
		}
		return c, nil
	})
	if err != nil {
		return nil, err
	}
	// Name ids are positions: decoded side by side, interned in order.
	groups, err := loadChunks(cs, m.Names, func(_ int, _ chunkstore.Hash, data []byte) ([]string, error) {
		return decodeDictChunk(data)
	})
	if err != nil {
		return nil, err
	}
	for _, names := range groups {
		for _, name := range names {
			if id := s.qn.Intern(name); int(id) != s.qn.Len()-1 {
				return nil, fmt.Errorf("core: manifest state is corrupt: name %q is in the pool twice", name)
			}
		}
	}
	s.nodeFree, err = s.deriveTree(func(pos int32, id xenc.NodeID, size int32, parent xenc.NodeID) error {
		s.pages[pos>>s.pageBits].size[pos&s.pageMask] = size
		if id == xenc.NoNode {
			return nil
		}
		c, off := s.nodes[id>>s.pageBits], id&s.pageMask
		if c.pos[off] >= 0 {
			return fmt.Errorf("node id %d is held at pre %d and at pre %d", id, s.preOfPos(c.pos[off]), s.preOfPos(pos))
		}
		c.pos[off], c.parent[off] = pos, parent
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("core: manifest state is corrupt: %w", err)
	}
	return s, nil
}

// loadChunks fetches the chunks a manifest list names from cs and
// decodes each into its slot, on every core (a fetch from the local store
// is a pread, an inflate and a hash). The error is the one a loop over
// the list would have met first, and names the chunk.
func loadChunks[T any](cs chunkstore.Store, list []string, decode func(i int, h chunkstore.Hash, data []byte) (T, error)) ([]T, error) {
	out := make([]T, len(list))
	return out, par.Do(len(list), func(i int) error {
		h, err := chunkstore.ParseHash(list[i])
		if err != nil {
			return fmt.Errorf("core: manifest is corrupt: %w", err)
		}
		data, err := cs.Get(h)
		if err != nil {
			return fmt.Errorf("core: manifest chunk: %w", err)
		}
		if out[i], err = decode(i, h, data); err != nil {
			return fmt.Errorf("core: chunk %s: %w", h, err)
		}
		return nil
	})
}
