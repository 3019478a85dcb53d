package server

import (
	"sync"
	"time"

	"mxq"
)

// catalog is the server's refcounted document registry. Documents open
// once per name on first use (mxq.Database.OpenDocument attaches them
// from their durability artifacts) and close on idle: when the
// last reference is released, a timer starts, and if no one re-acquires
// the document before it fires, the catalog detaches it (final
// checkpoint, WAL released) so an mxqd fronting thousands of documents
// holds memory only for the working set. Idle close is enabled only
// when the database is durable — detaching an in-memory document would
// discard it.
type catalog struct {
	db        *mxq.Database
	idleClose time.Duration // 0 = never close idle documents

	mu      sync.Mutex
	entries map[string]*catEntry
	// closing marks names whose idle detach is in flight. It makes the
	// refcount check and the detach one step: closeIdle sees no
	// reference and marks the name under mu, so no acquire can take a
	// reference to the instance in between, before CloseDocument has
	// fenced the name in the database. An acquire waits for the channel
	// to close; detaches counts the detaches begun, so an acquire whose
	// OpenDocument raced one looks again.
	closing  map[string]chan struct{}
	detaches uint64
}

type catEntry struct {
	doc   *mxq.Document
	refs  int
	timer *time.Timer
	// wmu serializes the server's write transactions on this document:
	// the engine's page locking is optimistic (a racing writer gets
	// tx.ErrConflict back), so concurrent update frames queue here
	// instead of bouncing off each other. Readers never take it.
	wmu sync.Mutex
}

func newCatalog(db *mxq.Database, idleClose time.Duration) *catalog {
	return &catalog{
		db:        db,
		idleClose: idleClose,
		entries:   make(map[string]*catEntry),
		closing:   make(map[string]chan struct{}),
	}
}

// acquire returns the named document with a reference held; the caller
// must call release exactly once when done with it.
func (c *catalog) acquire(name string) (*mxq.Document, error) {
	e, err := c.acquireEntry(name)
	if err != nil {
		return nil, err
	}
	return e.doc, nil
}

// acquireEntry is acquire for callers that also need the entry's write
// mutex (updates). The reference pins the entry: it cannot be detached
// until release, so holding e.wmu past the catalog lock is safe.
func (c *catalog) acquireEntry(name string) (*catEntry, error) {
	for {
		c.mu.Lock()
		done, detaching := c.closing[name]
		detaches := c.detaches
		c.mu.Unlock()
		if detaching {
			<-done // wait out the in-flight detach, then retry
			continue
		}
		// Open outside the catalog lock: recovery is O(document) and must
		// not stall other names.
		doc, err := c.db.OpenDocument(name)
		if err != nil {
			return nil, err
		}
		c.mu.Lock()
		if c.detaches != detaches {
			c.mu.Unlock()
			continue // doc may be the instance that detach is closing
		}
		e, ok := c.entries[name]
		if !ok || e.doc != doc {
			// New, or stale: a follower bootstrap replaces the document
			// instance wholesale, which this catalog cannot see, and an
			// entry on the detached instance would serve reads frozen at
			// the old LSN line. References already out on a stale entry
			// release by name against the new one; the refcount only
			// times idle close, so the worst a miscount causes is an
			// early or late detach, which acquire recovers from by
			// reopening.
			e = &catEntry{doc: doc}
			c.entries[name] = e
		}
		e.refs++
		if e.timer != nil {
			e.timer.Stop()
			e.timer = nil
		}
		c.mu.Unlock()
		return e, nil
	}
}

// release drops one reference; the last one arms the idle-close timer.
func (c *catalog) release(name string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[name]
	if !ok {
		return
	}
	e.refs--
	if e.refs > 0 || c.idleClose <= 0 {
		return
	}
	e.timer = time.AfterFunc(c.idleClose, func() { c.closeIdle(name) })
}

// closeIdle detaches the document if it is still unreferenced when the
// timer fires.
func (c *catalog) closeIdle(name string) {
	c.mu.Lock()
	e, ok := c.entries[name]
	if !ok || e.refs > 0 {
		c.mu.Unlock()
		return
	}
	delete(c.entries, name)
	done := make(chan struct{})
	c.closing[name] = done
	c.detaches++
	c.mu.Unlock()
	// Outside the lock: the final checkpoint streams O(document).
	// Acquires for this name park on the closing channel meanwhile.
	_ = c.db.CloseDocument(name)
	c.mu.Lock()
	delete(c.closing, name)
	c.mu.Unlock()
	close(done)
}

// shutdown stops every idle timer; document close is left to
// Database.Close, which the daemon calls after the drain.
func (c *catalog) shutdown() {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, e := range c.entries {
		if e.timer != nil {
			e.timer.Stop()
			e.timer = nil
		}
	}
}
