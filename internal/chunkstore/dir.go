package chunkstore

import (
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"mxq/internal/par"
	"mxq/internal/vfs"
)

// Dir is the local filesystem backend: a directory of immutable pack
// files (see pack.go for the format), each chunk deflated — or verbatim,
// when that is not shorter — under the name of its raw bytes: callers
// hand over and get back raw chunks and never see the stored form. Every
// write — a PutMany batch or a single Put — publishes exactly one file,
// root/<64 hex>.pack, through the Dir's vfs.FS and vfs.Publish, so a
// crash never leaves a torn pack under a final name, and the pack is
// durable, directory entry included, when the write returns. The root's
// own entry needs no fsync of its own: under ckpt's layout its parent is
// the directory images are published to, and the fsync that publishes the
// first image naming a chunk makes the entry durable too. A crash can
// leave the tmp file itself behind; the first write through a Dir
// removes every pack tmp file in the root.
//
// A Dir is its root's one owner: no other Dir, in this process or
// another (mxq.Open locks the data directory), changes the root while it
// is in use. So reads go through an in-memory index, hash → (pack,
// offset, stored and raw length), built at first use by listing the root
// once and reading each pack's index only, and kept up to date by the
// Dir's own writes and sweeps. Get is one pread, one inflate to exactly
// the raw length and the content-against-name check on the result; a
// copy that fails any of it is forgotten (so a later Put writes the
// chunk again), the read falls through to another copy when the index
// knows one, and is otherwise ErrMissing.
//
// Sweep is the garbage collector. It drops the index entries of dead
// chunks, unlinks packs left with no live chunk, and rewrites the live
// chunks of every pack whose dead bytes reach a quarter of its data into
// one new pack (stored bytes copied as they are, each verified by
// inflating it), so the directory never holds more than 4/3 of the live
// stored bytes (plus indexes) after a sweep. Which chunks of a pack
// are dead is known in memory only; the next sweep — of this Dir or a
// freshly opened one — derives it again from keep.
//
// Dir is safe for concurrent use.
type Dir struct {
	fs        vfs.FS
	root      string
	sweepTmps sync.Once // stale tmp files are removed before the first write
	stored    atomic.Uint64
	compacted atomic.Uint64

	mu     sync.Mutex
	listed bool             // the root has been listed
	dirty  bool             // a publish failed, maybe after its rename
	packs  map[string]*pack // by file name
	index  map[Hash]*entry  // the copy each held chunk is read from
}

// compactAt is the dead share of a pack's data at which Sweep rewrites
// its live chunks: a quarter. Lower rewrites the same survivors more
// often; higher lets more dead bytes sit on disk. At a quarter the
// directory is bounded by 4/3 of the live bytes, and a pack whose chunks
// die at random is rewritten once per quarter of its size — about as
// many bytes as the checkpoints that killed them wrote.
const compactAt = 4

// NewDir opens (creating if needed on first Put) a directory-backed
// store rooted at root, on the operating system's file system.
func NewDir(root string) *Dir { return NewDirFS(vfs.OS, root) }

// NewDirFS is NewDir changing the disk through fsys.
func NewDirFS(fsys vfs.FS, root string) *Dir {
	return &Dir{fs: fsys, root: root, packs: make(map[string]*pack), index: make(map[Hash]*entry)}
}

// Root returns the store's root directory.
func (d *Dir) Root() string { return d.root }

func (d *Dir) Put(h Hash, data []byte) error {
	return d.PutMany([]Hash{h}, [][]byte{data})
}

// PutMany implements BatchPutter: the chunks of the batch the index does
// not already resolve become one pack. Every chunk's content is checked
// against its name, written or not, and the ones to write are deflated —
// both on every core, ahead of the one sequential write.
func (d *Dir) PutMany(hs []Hash, datas [][]byte) error {
	if len(hs) != len(datas) {
		return errBatchShape(len(hs), len(datas))
	}
	d.mu.Lock()
	if err := d.list(); err != nil {
		d.mu.Unlock()
		return err
	}
	var at []int // where in the batch the chunks to store are: not held, the first of their name
	batch := make(map[Hash]struct{}, len(hs))
	for i, h := range hs {
		if _, again := batch[h]; !again && d.index[h] == nil {
			batch[h] = struct{}{}
			at = append(at, i)
		}
	}
	d.mu.Unlock()

	// Stored or skipped as held, a chunk has to be what its name says.
	err := par.Do(len(hs), func(i int) error {
		if len(datas[i]) > math.MaxUint32 {
			return fmt.Errorf("chunkstore: chunk %s is %d bytes", hs[i], len(datas[i]))
		} else if Sum(datas[i]) != hs[i] {
			return errMismatch(hs[i])
		}
		return nil
	})
	if err != nil || len(at) == 0 {
		return err
	}
	es, stored := make([]*entry, len(at)), make([][]byte, len(at))
	par.Do(len(at), func(j int) error { // never fails
		stored[j] = deflate(datas[at[j]])
		es[j] = &entry{h: hs[at[j]], n: uint32(len(stored[j])), raw: uint32(len(datas[at[j]]))}
		return nil
	})
	if err := d.fs.MkdirAll(d.root, 0o755); err != nil {
		return err
	}
	d.sweepTmps.Do(d.removeStaleTmps)
	p, err := writePack(d.fs, d.root, es, func(j int) ([]byte, error) { return stored[j], nil })
	d.mu.Lock()
	defer d.mu.Unlock()
	if err != nil {
		d.dirty = true
		return err
	}
	d.stored.Add(uint64(p.data))
	d.adopt(p)
	return nil
}

// removeStaleTmps deletes the tmp files of packs that writers killed
// mid-write left behind; nothing else ever would. Every write of this Dir
// waits for it, so no pack tmp file in its root is in flight. Best
// effort: a leftover is only wasted space, so errors are ignored.
func (d *Dir) removeStaleTmps() {
	files, _ := os.ReadDir(d.root)
	for _, f := range files {
		if final, ok := vfs.SplitTmp(f.Name()); ok && strings.HasSuffix(final, packSuffix) {
			d.fs.Remove(filepath.Join(d.root, f.Name()))
		}
	}
}

// adopt enters a pack into the index; a chunk the index already
// resolves keeps its copy. A pack of a known name is that pack written
// again — same index, so same layout, and whole whatever became of the
// file before — and takes over what the index resolved to the old one.
// Caller holds d.mu.
func (d *Dir) adopt(p *pack) {
	old := d.packs[p.name]
	d.packs[p.name] = p
	for _, e := range p.entries {
		if cur := d.index[e.h]; cur == nil || cur.p == old {
			d.index[e.h] = e
		}
	}
}

// sortedPacks returns the known packs in name order, so that which of
// two copies of a chunk the index resolves to does not depend on map
// iteration. Caller holds d.mu.
func (d *Dir) sortedPacks() []*pack {
	ps := make([]*pack, 0, len(d.packs))
	for _, p := range d.packs {
		ps = append(ps, p)
	}
	sort.Slice(ps, func(i, j int) bool { return ps[i].name < ps[j].name })
	return ps
}

// list reads the root into the index, the first time it is called: a
// pack's index is read, and a file that does not parse as a pack is
// remembered as holding nothing, which leaves it to the next sweep.
// After that the Dir's own writes and sweeps keep the index current.
// Caller holds d.mu.
func (d *Dir) list() error {
	if d.listed {
		return nil
	}
	files, err := os.ReadDir(d.root)
	if err != nil && !os.IsNotExist(err) {
		return err // a missing root is an empty store
	}
	for _, f := range files { // in name order
		name := f.Name()
		if !strings.HasSuffix(name, packSuffix) {
			continue
		}
		p, err := openPack(d.root, name)
		switch {
		case err != nil && !errors.Is(err, errNotPack):
			return err
		case err != nil:
			p = &pack{name: name}
		}
		d.adopt(p)
	}
	d.listed = true
	return nil
}

func (d *Dir) path(p *pack) string { return filepath.Join(d.root, p.name) }

// verified reads the copy e, inflates it and checks the result against
// its name. ok=false with a nil error is a torn or corrupt copy.
func (d *Dir) verified(e *entry) (raw []byte, ok bool, err error) {
	f, err := os.Open(d.path(e.p))
	if err != nil {
		return nil, false, err
	}
	defer f.Close()
	_, raw, err = readChunk(f, e)
	return raw, raw != nil, err
}

func (d *Dir) Get(h Hash) ([]byte, error) {
	corrupt := false
	for { // every turn returns or forgets one copy
		d.mu.Lock()
		err := d.list()
		e := d.index[h]
		d.mu.Unlock()
		if err != nil {
			return nil, err
		}
		if e == nil {
			// A torn or corrupt chunk is indistinguishable from an absent
			// one to callers: both mean "this manifest cannot be
			// materialized".
			if corrupt {
				return nil, fmt.Errorf("chunkstore: %s fails content verification: %w", h, ErrMissing)
			}
			return nil, fmt.Errorf("chunkstore: %s: %w", h, ErrMissing)
		}
		data, ok, err := d.verified(e)
		if ok {
			return data, nil
		}
		if err != nil && !os.IsNotExist(err) {
			return nil, err
		}
		// Forget the copy. It is corrupt — and while the index resolved
		// the name to it, no Put would ever write good bytes — or its
		// pack is gone: a Sweep compacted it away after the lookup, and
		// the index now resolves the chunk, if live, to its new pack.
		corrupt = corrupt || err == nil
		d.mu.Lock()
		d.forget(e)
		d.mu.Unlock()
	}
}

// forget drops the copy bad from its pack and, if the index resolved
// its name to it, re-points the index at another copy or at nothing.
// Caller holds d.mu.
func (d *Dir) forget(bad *entry) {
	bad.p.entries = slices.DeleteFunc(bad.p.entries, func(e *entry) bool { return e == bad })
	if d.index[bad.h] != bad {
		return
	}
	delete(d.index, bad.h)
	for _, p := range d.sortedPacks() {
		for _, e := range p.entries {
			if e.h == bad.h {
				d.index[bad.h] = e
				return
			}
		}
	}
}

func (d *Dir) HasMany(hs []Hash) ([]bool, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if err := d.list(); err != nil {
		return nil, err
	}
	out := make([]bool, len(hs))
	for i, h := range hs {
		out[i] = d.index[h] != nil
	}
	return out, nil
}

// BytesStored returns the chunk bytes Put and PutMany have written to
// packs through this Dir so far, as stored: over the same chunks' raw
// bytes it is the compression ratio.
func (d *Dir) BytesStored() uint64 { return d.stored.Load() }

// BytesCompacted returns the stored chunk bytes Sweep has rewritten
// through this Dir so far: the write amplification compaction costs.
func (d *Dir) BytesCompacted() uint64 { return d.compacted.Load() }

// Sweep implements Store. The order of its steps is what makes a crash
// anywhere inside it harmless: index entries go first (memory only),
// then packs with nothing live (no retained image names their chunks),
// then compaction — the new pack is published, directory fsync included,
// before the first victim is unlinked, so a crash in between leaves every
// live chunk in two packs, which the next sweep resolves (a copy the
// index does not resolve to counts as dead).
func (d *Dir) Sweep(keep func(Hash) bool) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if err := d.list(); err != nil {
		return err
	}
	var victims []*pack
	for _, p := range d.sortedPacks() {
		var live int64
		kept := p.entries[:0]
		for _, e := range p.entries {
			cur := d.index[e.h]
			if !keep(e.h) {
				if cur == e {
					delete(d.index, e.h)
				}
				continue
			}
			if cur != e {
				// A second copy. It is dead weight — unless the copy the
				// index prefers is the corrupt one.
				if cur != nil {
					if _, ok, _ := d.verified(cur); ok {
						continue
					}
				}
				d.index[e.h] = e
			}
			kept = append(kept, e)
			live += int64(e.n)
		}
		p.entries = kept
		switch {
		case live == 0:
			if err := d.unlink(p); err != nil {
				return err
			}
		case (p.data-live)*compactAt >= p.data:
			victims = append(victims, p)
		}
	}
	if len(victims) == 0 {
		return nil
	}
	return d.compact(victims)
}

// unlink removes a pack file and forgets the pack. Caller holds d.mu.
func (d *Dir) unlink(p *pack) error {
	if err := d.fs.Remove(d.path(p)); err != nil && !os.IsNotExist(err) {
		return err
	}
	delete(d.packs, p.name)
	return nil
}

// compact rewrites the live chunks of the victims into one new pack and
// unlinks the victims. Stored bytes are copied as they are, each chunk
// verified — inflated, hashed — on the way; one that fails is dropped,
// never copied. Caller holds d.mu.
func (d *Dir) compact(victims []*pack) error {
	var srcs []*entry
	for _, p := range victims {
		for _, e := range p.entries {
			if d.index[e.h] == e { // not a copy Sweep found corrupt
				srcs = append(srcs, e)
			}
		}
	}
	var (
		open *os.File // the victim being copied from
		from *pack
	)
	defer func() {
		if open != nil {
			open.Close()
		}
	}()
	last := 0 // the source fetched last: the one a mismatch is about
	fetch := func(i int) ([]byte, error) {
		e := srcs[i]
		last = i
		if e.p != from {
			if open != nil {
				open.Close()
				open, from = nil, nil
			}
			f, err := os.Open(d.path(e.p))
			if err != nil {
				return nil, err
			}
			open, from = f, e.p
		}
		stored, _, err := readChunk(open, e)
		if err == nil && stored == nil {
			err = errMismatch(e.h) // torn or corrupt
		}
		return stored, err
	}
	d.sweepTmps.Do(d.removeStaleTmps) // a compaction may be the first write
	var np *pack
	for len(srcs) > 0 && np == nil {
		es := make([]*entry, len(srcs))
		for i, e := range srcs {
			es[i] = &entry{h: e.h, n: e.n, raw: e.raw}
		}
		var err error
		np, err = writePack(d.fs, d.root, es, fetch)
		if bad := new(mismatchError); errors.As(err, &bad) {
			// Drop the corrupt copy and start over without it.
			d.forget(srcs[last])
			srcs = slices.Delete(srcs, last, last+1)
			continue
		}
		if err != nil {
			d.dirty = true
			return err
		}
	}
	if np != nil {
		// The index must follow the chunks, or the next checkpoint
		// finds every survivor missing and writes it again.
		d.packs[np.name] = np
		for _, e := range np.entries {
			d.index[e.h] = e
		}
		d.compacted.Add(uint64(np.data))
	}
	for _, p := range victims {
		if err := d.unlink(p); err != nil {
			return err
		}
	}
	return nil
}

// Sync fsyncs the root after a failed write, which may have renamed its
// pack into place — for a later checkpoint to name — without doing so.
func (d *Dir) Sync() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if !d.dirty {
		return nil
	}
	if err := d.fs.SyncDir(d.root); err != nil {
		return err
	}
	d.dirty = false
	return nil
}
