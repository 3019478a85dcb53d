// Package chunkstore is the content-addressed blob layer under
// incremental checkpoints and chunked replication bootstrap: a chunk is
// an immutable byte string named by its SHA-256, a Store holds chunks
// under those names, and a checkpoint manifest is a list of names. A
// chunk's name *is* its integrity check (Get verifies the digest, so a
// torn or bit-flipped chunk file is detected, never silently loaded)
// and *is* its dedupe key (Put of a chunk the store already holds is
// free, which is what turns a checkpoint of a barely-changed document
// into an O(churn) write).
//
// The interface is deliberately small and batched (HasMany) so remote
// backends — an object store, an LRU cache over one — can slot in
// behind the same contract. Writes batch too, but optionally: a store
// that can overlap the writes of a checkpoint's missing chunks also
// implements BatchPutter, and a store that does not — or that wraps
// another store's Put — is simply fed one Put per chunk. The in-tree
// backends are Dir (a fanned-out local directory, the durability
// default; PutMany keeps 8 chunk files in flight) and Mem (tests).
package chunkstore

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// HashSize is the size of a chunk name in bytes (SHA-256).
const HashSize = sha256.Size

// Hash is a chunk's content address: the SHA-256 of its bytes.
type Hash [HashSize]byte

// Sum names a chunk: the SHA-256 of its contents.
func Sum(data []byte) Hash { return sha256.Sum256(data) }

// String renders the hash as lowercase hex (the manifest wire form).
func (h Hash) String() string { return hex.EncodeToString(h[:]) }

// ParseHash parses the lowercase-hex form produced by Hash.String.
func ParseHash(s string) (Hash, error) {
	var h Hash
	if len(s) != 2*HashSize {
		return h, fmt.Errorf("chunkstore: hash %q has length %d, want %d", s, len(s), 2*HashSize)
	}
	b, err := hex.DecodeString(s)
	if err != nil {
		return h, fmt.Errorf("chunkstore: hash %q: %w", s, err)
	}
	copy(h[:], b)
	return h, nil
}

// ErrMissing reports a Get of a chunk the store does not hold (or holds
// only in a torn/corrupt form, which counts as not holding it).
var ErrMissing = errors.New("chunkstore: chunk missing")

// Store holds immutable chunks by content address.
//
// Put is idempotent: storing a chunk the store already holds is a no-op
// (that idempotence is the entire incremental-checkpoint win). Get
// verifies the content against the name and fails — wrapping ErrMissing
// — rather than return corrupt bytes. Writers that need the chunks on
// stable storage before publishing a manifest referencing them call
// Sync after their Puts.
type Store interface {
	// Put stores data under h. h must equal Sum(data).
	Put(h Hash, data []byte) error
	// Get returns the chunk named h, or an error wrapping ErrMissing.
	Get(h Hash) ([]byte, error)
	// Has reports whether the store holds h.
	Has(h Hash) (bool, error)
	// HasMany is Has batched: out[i] reports hs[i]. One round trip for
	// remote backends.
	HasMany(hs []Hash) ([]bool, error)
	// ForEach visits every chunk the store holds (GC mark/sweep).
	ForEach(fn func(h Hash) error) error
	// Delete removes h (GC sweep). Deleting an absent chunk is a no-op.
	Delete(h Hash) error
	// Sync forces previously Put chunks to stable storage.
	Sync() error
}

// BatchPutter is the write-side twin of HasMany: a Store that can take
// a whole checkpoint's missing chunks at once and overlap their writes.
// It is optional — core.Store.SaveChunked uses it when the store offers
// it and otherwise calls Put per chunk — so a Store that wraps Put (to
// time, throttle or count it) keeps seeing every chunk go through Put.
type BatchPutter interface {
	// PutMany stores datas[i] under hs[i]; every hs[i] must equal
	// Sum(datas[i]). It is meant for chunks HasMany just reported
	// missing, but storing one the store already holds is harmless. On
	// error (the first one met) any subset of the batch may have been
	// stored: chunks are content-addressed, so the stored ones are whole
	// and valid, and GC sweeps those no image comes to reference.
	PutMany(hs []Hash, datas [][]byte) error
}

// --- Dir: local-directory backend ----------------------------------------

// Dir is the local filesystem backend: chunk h lives at
// root/h[:2]/h.chunk (a 256-way fan-out keeps directories small). Files
// are written tmp+fsync+rename so a crash never leaves a torn chunk
// under a final name; Sync fsyncs the directories touched since the
// last Sync so renames themselves are durable before a manifest
// referencing them is published. A crash can leave the tmp file itself
// behind; the first write through a Dir removes every tmp file that is
// not this process's own.
//
// Dir is safe for concurrent use, also by several Dirs over one root in
// one process.
type Dir struct {
	root  string
	sweep sync.Once // stale tmp files are removed before the first write

	mu    sync.Mutex
	dirty map[string]struct{} // subdirs with un-fsynced renames
}

// putWriters is the number of chunk files PutMany keeps in flight. Each
// chunk is a create+write+fsync+rename of ~20 KB, which is latency
// bound, not bandwidth bound: on the ext4 this was tuned on, 1488 such
// files took 1.93 s from 1 writer, 1.12 s from 2, 0.95 s from 4, 0.69 s
// from 8 and 0.89 s from 16.
const putWriters = 8

// tmpTag marks the tmp files of this process, which may be in flight —
// through this Dir or another over the same root — and so must survive
// the stale-tmp sweep; tmpSeq keeps their names apart.
var (
	tmpTag = fmt.Sprintf(".tmp%d-%x.", os.Getpid(), time.Now().UnixNano())
	tmpSeq atomic.Uint64
)

// NewDir opens (creating if needed on first Put) a directory-backed
// store rooted at root.
func NewDir(root string) *Dir {
	return &Dir{root: root, dirty: make(map[string]struct{})}
}

// Root returns the store's root directory.
func (d *Dir) Root() string { return d.root }

// PathOf returns the path chunk h lives at (crash-injection hook; the
// file need not exist).
func (d *Dir) PathOf(h Hash) string {
	name := h.String()
	return filepath.Join(d.root, name[:2], name+".chunk")
}

func (d *Dir) Put(h Hash, data []byte) error {
	if Sum(data) != h {
		return errMismatch(h)
	}
	path := d.PathOf(h)
	if _, err := os.Stat(path); err == nil {
		return nil // content-addressed: an existing chunk is this chunk
	}
	d.sweep.Do(d.removeStaleTmps)
	sub := filepath.Dir(path)
	if err := os.MkdirAll(sub, 0o755); err != nil {
		return err
	}
	if err := writeChunk(path, data); err != nil {
		return err
	}
	d.mu.Lock()
	d.dirty[sub] = struct{}{}
	d.mu.Unlock()
	return nil
}

func errMismatch(h Hash) error {
	return fmt.Errorf("chunkstore: put of %s with non-matching content", h)
}

// PutMany implements BatchPutter with putWriters concurrent writers.
// Like Put it checks each chunk's content against its name; unlike Put
// it trusts the caller that the chunks are missing (no Stat per chunk)
// and creates each fan-out directory once per batch.
func (d *Dir) PutMany(hs []Hash, datas [][]byte) error {
	if len(hs) != len(datas) {
		return fmt.Errorf("chunkstore: PutMany of %d names and %d chunks", len(hs), len(datas))
	}
	if len(hs) == 0 {
		return nil
	}
	d.sweep.Do(d.removeStaleTmps)
	paths := make([]string, len(hs))
	subs := make(map[string]struct{})
	for i, h := range hs {
		paths[i] = d.PathOf(h)
		sub := filepath.Dir(paths[i])
		if _, ok := subs[sub]; !ok {
			if err := os.MkdirAll(sub, 0o755); err != nil {
				return err
			}
			subs[sub] = struct{}{}
		}
	}
	var (
		next  atomic.Int64 // index of the next chunk to write
		first atomic.Pointer[error]
		wg    sync.WaitGroup
	)
	for w := 0; w < min(putWriters, len(hs)); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for first.Load() == nil {
				i := int(next.Add(1)) - 1
				if i >= len(hs) {
					return
				}
				err := errMismatch(hs[i])
				if Sum(datas[i]) == hs[i] {
					err = writeChunk(paths[i], datas[i])
				}
				if err != nil {
					first.CompareAndSwap(nil, &err)
					return
				}
			}
		}()
	}
	wg.Wait()
	// Also after a failure: some renames may have landed.
	d.mu.Lock()
	for sub := range subs {
		d.dirty[sub] = struct{}{}
	}
	d.mu.Unlock()
	if err := first.Load(); err != nil {
		return *err
	}
	return nil
}

// writeChunk publishes data at path, whose directory exists, via
// tmp+fsync+rename.
func writeChunk(path string, data []byte) error {
	tmp := fmt.Sprintf("%s%s%d", path, tmpTag, tmpSeq.Add(1))
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	return nil
}

// removeStaleTmps deletes the "<hash>.chunk.tmp…" files that writers
// killed mid-Put left behind; nothing else ever would (ForEach and GC
// see only whole chunks). Files carrying this process's tmpTag may be
// in flight and are kept. Best effort: a leftover is only wasted space,
// so errors are ignored.
func (d *Dir) removeStaleTmps() {
	subs, _ := os.ReadDir(d.root)
	for _, sub := range subs {
		if !sub.IsDir() {
			continue
		}
		dir := filepath.Join(d.root, sub.Name())
		files, _ := os.ReadDir(dir)
		for _, f := range files {
			name := f.Name()
			if strings.Contains(name, ".chunk.tmp") && !strings.Contains(name, ".chunk"+tmpTag) {
				os.Remove(filepath.Join(dir, name))
			}
		}
	}
}

func (d *Dir) Get(h Hash) ([]byte, error) {
	data, err := os.ReadFile(d.PathOf(h))
	if err != nil {
		if os.IsNotExist(err) {
			return nil, fmt.Errorf("chunkstore: %s: %w", h, ErrMissing)
		}
		return nil, err
	}
	if Sum(data) != h {
		// A torn or corrupt chunk is indistinguishable from an absent one
		// to callers: both mean "this manifest cannot be materialized".
		// Quarantine it too: Put skips chunks whose final path exists, so
		// leaving the corpse in place would block every future checkpoint
		// from ever rewriting this chunk with good bytes.
		os.Remove(d.PathOf(h))
		return nil, fmt.Errorf("chunkstore: %s fails content verification (%d bytes on disk): %w", h, len(data), ErrMissing)
	}
	return data, nil
}

func (d *Dir) Has(h Hash) (bool, error) {
	_, err := os.Stat(d.PathOf(h))
	if err == nil {
		return true, nil
	}
	if os.IsNotExist(err) {
		return false, nil
	}
	return false, err
}

func (d *Dir) HasMany(hs []Hash) ([]bool, error) {
	out := make([]bool, len(hs))
	for i, h := range hs {
		ok, err := d.Has(h)
		if err != nil {
			return nil, err
		}
		out[i] = ok
	}
	return out, nil
}

func (d *Dir) ForEach(fn func(h Hash) error) error {
	subs, err := os.ReadDir(d.root)
	if err != nil {
		if os.IsNotExist(err) {
			return nil // no Puts yet: an empty store
		}
		return err
	}
	for _, sub := range subs {
		if !sub.IsDir() {
			continue
		}
		files, err := os.ReadDir(filepath.Join(d.root, sub.Name()))
		if err != nil {
			return err
		}
		for _, f := range files {
			name, ok := chunkFileName(f.Name())
			if !ok {
				continue
			}
			h, err := ParseHash(name)
			if err != nil {
				continue // stray file, not ours
			}
			if err := fn(h); err != nil {
				return err
			}
		}
	}
	return nil
}

func (d *Dir) Delete(h Hash) error {
	err := os.Remove(d.PathOf(h))
	if err != nil && !os.IsNotExist(err) {
		return err
	}
	return nil
}

func (d *Dir) Sync() error {
	d.mu.Lock()
	dirs := make([]string, 0, len(d.dirty)+1)
	for sub := range d.dirty {
		dirs = append(dirs, sub)
	}
	d.dirty = make(map[string]struct{})
	d.mu.Unlock()
	if len(dirs) == 0 {
		return nil
	}
	sort.Strings(dirs)
	dirs = append(dirs, d.root)
	for _, dir := range dirs {
		f, err := os.Open(dir)
		if err != nil {
			return err
		}
		err = f.Sync()
		f.Close()
		if err != nil {
			return err
		}
	}
	return nil
}

// chunkFileName strips the ".chunk" suffix, rejecting tmp leftovers.
func chunkFileName(file string) (string, bool) {
	const suffix = ".chunk"
	if len(file) != 2*HashSize+len(suffix) || file[2*HashSize:] != suffix {
		return "", false
	}
	return file[:2*HashSize], true
}

// RemoveAll deletes the store's entire root directory — the document is
// being dropped and no manifest will reference these chunks again.
func (d *Dir) RemoveAll() error { return os.RemoveAll(d.root) }

// --- Mem: in-memory backend ----------------------------------------------

// Mem is an in-memory Store for tests and for staging a bootstrap
// transfer. The zero value is not usable; call NewMem.
type Mem struct {
	mu     sync.RWMutex
	chunks map[Hash][]byte
}

// NewMem returns an empty in-memory store.
func NewMem() *Mem { return &Mem{chunks: make(map[Hash][]byte)} }

func (m *Mem) Put(h Hash, data []byte) error {
	if Sum(data) != h {
		return errMismatch(h)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.chunks[h]; !ok {
		m.chunks[h] = append([]byte(nil), data...)
	}
	return nil
}

func (m *Mem) Get(h Hash) ([]byte, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	data, ok := m.chunks[h]
	if !ok {
		return nil, fmt.Errorf("chunkstore: %s: %w", h, ErrMissing)
	}
	return data, nil
}

func (m *Mem) Has(h Hash) (bool, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	_, ok := m.chunks[h]
	return ok, nil
}

func (m *Mem) HasMany(hs []Hash) ([]bool, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	out := make([]bool, len(hs))
	for i, h := range hs {
		_, out[i] = m.chunks[h]
	}
	return out, nil
}

func (m *Mem) ForEach(fn func(h Hash) error) error {
	m.mu.RLock()
	hs := make([]Hash, 0, len(m.chunks))
	for h := range m.chunks {
		hs = append(hs, h)
	}
	m.mu.RUnlock()
	for _, h := range hs {
		if err := fn(h); err != nil {
			return err
		}
	}
	return nil
}

func (m *Mem) Delete(h Hash) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	delete(m.chunks, h)
	return nil
}

func (m *Mem) Sync() error { return nil }

// Len returns the number of chunks held (testing hook).
func (m *Mem) Len() int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return len(m.chunks)
}
