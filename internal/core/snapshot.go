package core

// Snapshot returns a page-granular copy-on-write snapshot of the store:
// the paper's "temporary view backed by a copy-on-write memory-map on the
// base table" (Section 3.2). The snapshot shares every page chunk and
// node chunk with the base and copies the small tables kept per page
// beside them (the chunk directories, the pageOffset tables and
// nodeFree), so taking it costs O(pages), not O(document). Both stores
// then get fresh birth stamps, so neither owns a chunk they share:
// whichever side writes a shared page first (the snapshot through a
// transaction's updates, the base through a later write) copies just
// that page via the dirty* hooks — "the base table is never altered"
// through the snapshot, and only touched pages are ever materialized.
// Nothing counts the sharers: a chunk no store holds any more is the
// garbage collector's.
//
// The qualified-name pool is the base's until the snapshot interns a
// name the pool lacks; it then copies the pool (see intern), so names a
// transaction adds reach the base only when its image is installed or
// its operations replayed there.
//
// On s, Snapshot writes only the stamp, atomically, so any number of
// snapshots may be taken concurrently with each other and with readers;
// the caller need only exclude concurrent *writes* to s (the transaction
// manager never writes a version it has published). The returned store
// may be read concurrently; writes to it must come from a single
// goroutine.
func (s *Store) Snapshot() *Store {
	s.stamp.Store(newStamp())
	c := &Store{
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
	c.stamp.Store(newStamp())
	return c
}
