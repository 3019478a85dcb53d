package xenc

import (
	"strings"
	"sync"
	"sync/atomic"
)

// QNamePool interns qualified names (the paper's qn table, Figure 5).
// Elements and attributes reference names by dense integer id, which is
// what makes name tests a single integer comparison during axis steps.
//
// The pool is append-only and safe for concurrent use: a page-grained
// copy-on-write snapshot reads its base's pool until it interns a new
// name (then it interns into a copy of its own), so a writer may intern
// a new name while readers resolve ids.
//
// The two directions are synchronized differently. id→string (Name, once
// per serialized element and attribute) reads without locking: the table
// is append-only, so Intern publishes each longer slice through an atomic
// pointer and a reader sees a prefix that never changes under it.
// string→id (Intern, Lookup) goes through the mutex and the map; the
// query engine resolves a name test once per step, not per tuple.
//
// The zero value is not ready for use; call NewQNamePool.
type QNamePool struct {
	mu    sync.RWMutex             // guards ids, and serializes writers of names
	names atomic.Pointer[[]string] // id -> name; replaced, never shrunk
	ids   map[string]int32
}

// NewQNamePool returns an empty pool.
func NewQNamePool() *QNamePool {
	q := &QNamePool{ids: make(map[string]int32)}
	q.names.Store(new([]string))
	return q
}

// Intern returns the id for name, adding it to the pool if new.
func (q *QNamePool) Intern(name string) int32 {
	q.mu.Lock()
	defer q.mu.Unlock()
	if id, ok := q.ids[name]; ok {
		return id
	}
	// name may be a slice of a document or request the pool must not pin.
	name = strings.Clone(name)
	names := *q.names.Load()
	id := int32(len(names))
	// An append within capacity writes one slot past every published
	// length, which no reader indexes until the longer header is stored.
	names = append(names, name)
	q.names.Store(&names)
	q.ids[name] = id
	return id
}

// Lookup returns the id for name without interning it.
func (q *QNamePool) Lookup(name string) (int32, bool) {
	q.mu.RLock()
	defer q.mu.RUnlock()
	id, ok := q.ids[name]
	return id, ok
}

// Name returns the string for an interned id. It panics on ids that were
// never handed out, which always indicates memory corruption upstream.
func (q *QNamePool) Name(id int32) string {
	if id == NoName {
		return ""
	}
	return (*q.names.Load())[id]
}

// Table returns the id→name table as published now, uncopied and
// read-only. It holds every id of any view that can be read already.
func (q *QNamePool) Table() []string { return *q.names.Load() }

// Len returns the number of interned names.
func (q *QNamePool) Len() int { return len(*q.names.Load()) }

// NamesList returns a point-in-time copy of all interned names in id
// order (used by checkpointing).
func (q *QNamePool) NamesList() []string {
	return append([]string(nil), *q.names.Load()...)
}
