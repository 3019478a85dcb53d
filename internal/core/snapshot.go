package core

// Snapshot returns a page-granular copy-on-write snapshot of the store:
// the paper's "temporary view backed by a copy-on-write memory-map on the
// base table" (Section 3.2). The snapshot shares every page chunk and
// node chunk with the base by incrementing each chunk's reference count,
// and copies the small tables kept per page beside them (the pageOffset
// tables and nodeFree), so taking it costs O(pages), not O(document).
// Whichever side writes a shared page first (the snapshot through a
// transaction's updates, the base through a later commit) copies just
// that page via the dirty* hooks — "the base table is never altered"
// through the snapshot, and only touched pages are ever materialized.
// The qualified-name pool is the base's until the snapshot interns a
// name the pool lacks; it then copies the pool (see intern), so names a
// transaction adds reach the base only when its commit replays them.
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
	return &Store{
		pageBits:   s.pageBits,
		pageMask:   s.pageMask,
		pageSize:   s.pageSize,
		pages:      append([]*page(nil), s.pages...),
		logToPhys:  append([]int32(nil), s.logToPhys...),
		physToLog:  append([]int32(nil), s.physToLog...),
		nodes:      append([]*nodeChunk(nil), s.nodes...),
		nodeLen:    s.nodeLen,
		nodeFree:   append([]int32(nil), s.nodeFree...),
		qn:         s.qn, // borrowed until the first new name (intern)
		qnBorrowed: true,
		index:      s.index,
		liveNodes:  s.liveNodes,
	}
}
