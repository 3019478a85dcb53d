package core

import (
	"encoding/gob"
	"fmt"
	"io"

	"mxq/internal/xenc"
)

// Snapshot returns a page-granular copy-on-write snapshot of the store:
// the paper's "temporary view backed by a copy-on-write memory-map on the
// base table" (Section 3.2). The snapshot shares every page chunk, node
// chunk and free-list chunk with the base by incrementing each chunk's
// reference count, so taking it costs O(pages), not O(document).
// Whichever side writes a shared page first (the snapshot through a
// transaction's updates, the base through a later commit) copies just
// that page via the dirty* hooks — "the base table is never altered"
// through the snapshot, and only touched pages are ever materialized.
//
// Snapshot never mutates base-private state (it only performs atomic
// reference-count increments), so any number of snapshots may be taken
// concurrently with each other and with readers; the caller need only
// exclude concurrent *writes* to s (the transaction manager holds its
// shared read lock, which excludes commits). The returned store may be
// read concurrently; writes to it must come from a single goroutine.
// Call Release when the snapshot is no longer needed so the base regains
// exclusive ownership of the shared chunks; an unreleased snapshot keeps
// them copy-on-write forever (the garbage collector still reclaims the
// memory, but later base writes keep paying the copy).
func (s *Store) Snapshot() *Store {
	for _, p := range s.pages {
		p.refs.Add(1)
	}
	for _, c := range s.nodes {
		c.refs.Add(1)
	}
	for _, c := range s.freeChunks {
		c.refs.Add(1)
	}
	return &Store{
		pageBits:   s.pageBits,
		pageMask:   s.pageMask,
		pageSize:   s.pageSize,
		pages:      append([]*page(nil), s.pages...),
		logToPhys:  append([]int32(nil), s.logToPhys...),
		physToLog:  append([]int32(nil), s.physToLog...),
		nodes:      append([]*nodeChunk(nil), s.nodes...),
		nodeLen:    s.nodeLen,
		freeChunks: append([]*freeChunk(nil), s.freeChunks...),
		freeLen:    s.freeLen,
		prop:       s.prop, // shared: append-only, synchronized
		qn:         s.qn,   // shared: append-only, synchronized
		liveNodes:  s.liveNodes,
	}
}

// snapshot is the gob wire form of a store. The wire format flattens the
// page chunks back into one slice per column, so checkpoints written
// before the chunked layout still load.
type snapshot struct {
	PageBits  uint
	Size      []int32
	Level     []int16
	Kind      []uint8
	Name      []int32
	Text      []string
	Node      []int32
	LogToPhys []int32
	PhysToLog []int32
	NodePos   []int32
	FreeNodes []int32
	ParentOf  []int32
	AttrKeys  []int32
	AttrVals  [][]int32 // name/val id pairs, flattened per owner
	PropVals  []string
	Names     []string
	LiveNodes int
}

// Save writes a snapshot of the store (the checkpoint the WAL recovers
// from).
func (s *Store) Save(w io.Writer) error {
	n := int(s.Len())
	snap := snapshot{
		PageBits:  s.pageBits,
		Size:      make([]int32, 0, n),
		Level:     make([]int16, 0, n),
		Kind:      make([]uint8, 0, n),
		Name:      make([]int32, 0, n),
		Text:      make([]string, 0, n),
		Node:      make([]int32, 0, n),
		LogToPhys: s.logToPhys,
		PhysToLog: s.physToLog,
		NodePos:   make([]int32, 0, s.nodeLen),
		FreeNodes: make([]int32, 0, s.freeLen),
		ParentOf:  make([]int32, 0, s.nodeLen),
		PropVals:  s.prop.values(),
		LiveNodes: s.liveNodes,
	}
	s.forEachFree(func(id int32) { snap.FreeNodes = append(snap.FreeNodes, id) })
	for _, pg := range s.pages {
		snap.Size = append(snap.Size, pg.size...)
		snap.Level = append(snap.Level, pg.level...)
		snap.Kind = append(snap.Kind, pg.kind...)
		snap.Name = append(snap.Name, pg.name...)
		snap.Text = append(snap.Text, pg.text...)
		snap.Node = append(snap.Node, pg.node...)
	}
	for id := xenc.NodeID(0); id < s.nodeLen; id++ {
		snap.NodePos = append(snap.NodePos, s.posOf(id))
		snap.ParentOf = append(snap.ParentOf, s.parentOf(id))
	}
	snap.Names = s.qn.NamesList()
	for id := xenc.NodeID(0); id < s.nodeLen; id++ {
		refs := s.attrRefs(id)
		if len(refs) == 0 {
			continue
		}
		snap.AttrKeys = append(snap.AttrKeys, id)
		flat := make([]int32, 0, 2*len(refs))
		for _, r := range refs {
			flat = append(flat, r.name, r.val)
		}
		snap.AttrVals = append(snap.AttrVals, flat)
	}
	return gob.NewEncoder(w).Encode(&snap)
}

// Load reads a snapshot written by Save.
func Load(r io.Reader) (*Store, error) {
	var snap snapshot
	if err := gob.NewDecoder(r).Decode(&snap); err != nil {
		return nil, fmt.Errorf("core: loading snapshot: %w", err)
	}
	// Page size must be a power of two in [8, 2^30] (Options enforces the
	// lower bound at build time); anything else is corruption, and an
	// oversized PageBits would make the chunking arithmetic below loop
	// forever on a zero page size.
	if snap.PageBits < 3 || snap.PageBits > 30 {
		return nil, fmt.Errorf("core: snapshot is corrupt: page bits %d out of range [3,30]", snap.PageBits)
	}
	pageSize := int32(1) << snap.PageBits
	s := &Store{
		pageBits:  snap.PageBits,
		pageMask:  pageSize - 1,
		pageSize:  pageSize,
		logToPhys: snap.LogToPhys,
		physToLog: snap.PhysToLog,
		prop:      newPropDict(),
		qn:        xenc.NewQNamePool(),
		liveNodes: snap.LiveNodes,
	}
	if int32(len(snap.Size))&s.pageMask != 0 {
		return nil, fmt.Errorf("core: snapshot is corrupt: %d tuples is not a whole number of %d-tuple pages", len(snap.Size), pageSize)
	}
	if len(snap.Level) != len(snap.Size) || len(snap.Kind) != len(snap.Size) ||
		len(snap.Name) != len(snap.Size) || len(snap.Text) != len(snap.Size) ||
		len(snap.Node) != len(snap.Size) {
		return nil, fmt.Errorf("core: snapshot is corrupt: ragged columns (%d/%d/%d/%d/%d/%d tuples)",
			len(snap.Size), len(snap.Level), len(snap.Kind), len(snap.Name), len(snap.Text), len(snap.Node))
	}
	if len(snap.ParentOf) != len(snap.NodePos) {
		return nil, fmt.Errorf("core: snapshot is corrupt: node/pos holds %d ids, parent column %d", len(snap.NodePos), len(snap.ParentOf))
	}
	for base := 0; base < len(snap.Size); base += int(pageSize) {
		end := base + int(pageSize)
		// Copy each range into per-page arrays rather than subslicing the
		// decoded columns: a chunk that later survives COW divergence must
		// not pin the whole flat document-sized array behind it.
		pg := newPage(int(pageSize))
		copy(pg.size, snap.Size[base:end])
		copy(pg.level, snap.Level[base:end])
		copy(pg.kind, snap.Kind[base:end])
		copy(pg.name, snap.Name[base:end])
		copy(pg.text, snap.Text[base:end])
		copy(pg.node, snap.Node[base:end])
		s.pages = append(s.pages, pg)
	}
	s.nodeLen = int32(len(snap.NodePos))
	for base := int32(0); base < s.nodeLen; base += pageSize {
		nc := newNodeChunk(int(pageSize))
		copy(nc.pos, snap.NodePos[base:min32(base+pageSize, s.nodeLen)])
		copy(nc.parent, snap.ParentOf[base:min32(base+pageSize, s.nodeLen)])
		s.nodes = append(s.nodes, nc)
	}
	for _, id := range snap.FreeNodes {
		if id < 0 || id >= s.nodeLen {
			return nil, fmt.Errorf("core: snapshot is corrupt: free node id %d out of range [0,%d)", id, s.nodeLen)
		}
		s.pushFree(id)
	}
	if len(snap.AttrVals) != len(snap.AttrKeys) {
		return nil, fmt.Errorf("core: snapshot is corrupt: %d attribute owners, %d value lists", len(snap.AttrKeys), len(snap.AttrVals))
	}
	for i, id := range snap.AttrKeys {
		if id < 0 || id >= s.nodeLen {
			return nil, fmt.Errorf("core: snapshot is corrupt: attribute owner %d out of range [0,%d)", id, s.nodeLen)
		}
		flat := snap.AttrVals[i]
		refs := make([]attrRef, 0, len(flat)/2)
		for j := 0; j+1 < len(flat); j += 2 {
			refs = append(refs, attrRef{name: flat[j], val: flat[j+1]})
		}
		s.setAttrs(id, refs)
	}
	for _, v := range snap.PropVals {
		s.prop.add(v)
	}
	for _, n := range snap.Names {
		s.qn.Intern(n)
	}
	if err := s.CheckInvariants(); err != nil {
		return nil, fmt.Errorf("core: snapshot is corrupt: %w", err)
	}
	return s, nil
}
