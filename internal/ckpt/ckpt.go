// Package ckpt is the online durability subsystem: incremental
// content-addressed checkpoints that never stall commits, each
// committed by the atomic publication of one LSN-stamped image file, and
// recovery that degrades gracefully over torn artifacts.
//
// The paper's transaction protocol (Section 3.2 / Figure 8) rests on two
// legs: a single-I/O WAL commit and a checkpointed store image. This
// package makes the checkpoint leg *online* and *O(churn)*. A checkpoint
// pins the current committed version, an immutable (store, LSN) pair —
// one atomic load (tx.Manager.PinCheckpoint) — and then writes the store in
// content-addressed form (core.Store.SaveChunked) outside any lock:
// every column chunk is named by its SHA-256, the ones the document's
// chunk store is missing go into it as one batch (one pack file in the
// default local store), and the LSN-stamped image shrinks to a small
// list of chunk names (core.ChunkManifest). Chunks the store already
// holds — everything the COW layer did not see dirtied since the
// previous checkpoint — are re-referenced, not rewritten, so checkpoint
// I/O tracks churn, not document size, and frequent auto-checkpoints are
// cheap. The image's publication (vfs.Publish: tmp + fsync + rename +
// dir fsync) is the checkpoint's one commit point, and its file name the
// only record of which checkpoint is current; only then are WAL segments
// wholly below the checkpoint's LSN deleted (wal.Log.Prune), so a commit
// racing a checkpoint cannot be lost: a record the checkpoint does not
// cover lives in a segment Prune keeps.
//
// # Artifacts
//
// For a document <name> in directory dir:
//
//	<name>-<LSN as 16 hex digits>.ckpt   checkpoint images: magic +
//	                                     JSON {lsn, store manifest}
//	<name>.chunks/<64 hex>.pack          content-addressed column chunks,
//	                                     one pack file per checkpoint;
//	                                     chunks are stored deflated,
//	                                     names are of the raw bytes
//	                                     (see internal/chunkstore)
//	<name>.wal.NNNNNNNN                  WAL segments (see internal/wal)
//
// That is all: the newest image on disk is the current checkpoint.
// Anything else in the directory — a bare <name>.ckpt, a pointer file an
// older build left beside the images — is a foreign file: never read,
// never a reason a document exists, never removed.
//
// Every image is published atomically (vfs.Publish, through the FS given
// to New), after the WAL records it covers are durable — so a Run over a
// log a failed fsync poisoned publishes nothing — and the chunks it names
// are synced. Cleanup keeps the previous usable checkpoint image besides
// the current one (an image readImage refuses is removed, not counted),
// prunes the WAL only below the *oldest retained* checkpoint, and
// garbage-collects chunks by mark-and-sweep: a chunk referenced by ANY
// retained image is never dropped (the store rewrites the survivors of a
// mostly-dead pack, it never loses one), so every retained image stays
// materializable — if the current image or one of its chunks is lost or
// torn, recovery still has an older image plus every chunk and WAL
// record needed to roll it forward.
//
// # Recovery
//
// Recover tries every image on disk by descending LSN and accepts the
// first one that loads and whose WAL replay is gap-free (contiguous LSNs
// from the image's pin). Images are self-contained (each names every
// chunk of the full document), so a candidate either materializes
// completely or is skipped whole — recovery never mixes two checkpoints.
// A leftover tmp file, a torn image, a file that does not open with the
// image magic, a torn or missing chunk or pack file, or an empty segment
// tail all degrade to the next candidate instead of failing.
package ckpt

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"mxq/internal/chunkstore"
	"mxq/internal/core"
	"mxq/internal/tx"
	"mxq/internal/vfs"
	"mxq/internal/wal"
)

// ErrWALGap reports that WAL replay found non-contiguous LSNs: a record
// needed to roll the checkpoint forward is missing (e.g. a deleted
// segment). Recovery treats it as "this candidate cannot recover" and
// falls back to the next one.
var ErrWALGap = errors.New("ckpt: gap in WAL records")

// ErrNoCheckpoint reports that no usable checkpoint exists for the
// document.
var ErrNoCheckpoint = errors.New("ckpt: no usable checkpoint")

// ErrClosed reports a Run on a closed checkpointer (a checkpoint racing
// document close: the WAL and image directory are no longer writable).
var ErrClosed = errors.New("ckpt: checkpointer is closed")

// Pin returns a store no one writes any more together with the LSN of
// the last WAL record it covers, atomically with respect to commits.
// tx.Manager.PinCheckpoint, which returns the current committed
// version, is the canonical implementation.
type Pin func() (*core.Store, uint64)

// imageMagic opens every checkpoint image; a file without it — an
// MXQCKV2 image, whose manifest names a free-id stack, too — is refused
// with "unsupported image format".
var imageMagic = [8]byte{'M', 'X', 'Q', 'C', 'K', 'V', '3', 0}

// image is the JSON body of a checkpoint image: the pin LSN plus the
// store's chunk manifest.
type image struct {
	LSN   uint64              `json:"lsn"`
	Store *core.ChunkManifest `json:"store"`
}

// readImage parses the image file at path — the one parser recovery,
// chunk GC and the replication bootstrap share.
func readImage(path string) (image, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return image{}, err
	}
	return parseImage(filepath.Base(path), data)
}

// parseImage decodes an image file's bytes. An error is a refusal: the
// bytes were all there and are not an image (bad magic, torn JSON, no
// store manifest), so nothing will ever recover from that file — unlike
// an I/O error reading it, after which it may still be one.
func parseImage(file string, data []byte) (image, error) {
	if !bytes.HasPrefix(data, imageMagic[:]) {
		return image{}, fmt.Errorf("ckpt: %s: unsupported image format", file)
	}
	var img image
	if err := json.Unmarshal(data[len(imageMagic):], &img); err != nil {
		return image{}, fmt.Errorf("ckpt: corrupt image %s: %w", file, err)
	}
	if img.Store == nil {
		return image{}, fmt.Errorf("ckpt: corrupt image %s: no store manifest", file)
	}
	return img, nil
}

// ChunkDir returns the document's default chunk-store directory.
func ChunkDir(dir, name string) string { return filepath.Join(dir, name+".chunks") }

// DefaultChunkStore opens the document's default local chunk store.
func DefaultChunkStore(dir, name string) *chunkstore.Dir {
	return chunkstore.NewDir(ChunkDir(dir, name))
}

// Stats is the checkpointer's cumulative I/O accounting — the
// observable incremental-checkpoint win.
type Stats struct {
	Checkpoints   uint64 // Runs completed
	ChunksWritten uint64 // chunks the store was missing (bytes moved)
	ChunksReused  uint64 // chunk references served by dedupe
	BytesWritten  uint64 // chunk bytes actually written
	// BytesStored is what the chunks counted in BytesWritten take on disk
	// (chunkstore.Dir deflates them); BytesCompacted is the stored bytes
	// garbage collection rewrote to reclaim the space of dead neighbours:
	// write amplification. Both are 0 for a store that keeps no count.
	BytesStored    uint64
	BytesCompacted uint64
}

// Checkpointer writes online checkpoints for one document.
type Checkpointer struct {
	fs   vfs.FS
	dir  string
	name string
	log  *wal.Log // may be nil (checkpoint-only durability)
	pin  Pin

	// keep is how many superseded checkpoint images to retain besides
	// the current one. The WAL is pruned only below the oldest retained
	// image, so every retained image can actually be rolled forward.
	keep int

	// mu serializes checkpoints: concurrent Run calls (auto + manual)
	// queue rather than race on the directory. Close takes it too, so
	// closing waits out an in-flight checkpoint instead of yanking the
	// WAL from under its prune.
	mu     sync.Mutex
	closed bool

	// lastLSN is the LSN of the newest image: seeded from the directory in
	// New, advanced by Run under mu (pins taken under mu are monotone, so
	// a plain store never regresses it), read without mu by LastLSN.
	lastLSN atomic.Uint64

	// cs is the chunk store images reference.
	cs chunkstore.Store

	// Cumulative Stats counters.
	statCkpts, statChunksW, statChunksR, statBytes, statStored, statCompacted atomic.Uint64

	// pruneBarrier, when non-nil, returns the highest LSN the WAL may be
	// pruned up to for reasons beyond checkpoint retention (see New).
	pruneBarrier func() uint64
}

// New returns a checkpointer for document name in dir that changes the
// disk through fsys and writes the chunks its images reference to cs.
// log may be nil. pruneBarrier, when non-nil, is queried once per
// checkpoint, under the checkpointer's lock, for the highest LSN the WAL
// may be pruned up to beyond checkpoint retention: the replication layer
// holds it at the lowest LSN a live follower has acked, so a checkpoint
// never deletes segments a follower still needs to catch up from
// (^uint64(0) means "no external constraint"). It must be safe for
// concurrent use.
func New(fsys vfs.FS, dir, name string, log *wal.Log, pin Pin, cs chunkstore.Store, pruneBarrier func() uint64) *Checkpointer {
	c := &Checkpointer{fs: fsys, dir: dir, name: name, log: log, pin: pin, keep: 1, cs: cs, pruneBarrier: pruneBarrier}
	c.lastLSN.Store(CurrentLSN(dir, name))
	return c
}

// LastLSN returns the LSN the newest checkpoint image covers (0 if there
// is none): the baseline an auto-checkpoint policy measures the WAL tail
// against, so covered records parked in the never-pruned active segment
// do not re-trigger checkpoint after checkpoint. It never waits behind a
// running checkpoint.
func (c *Checkpointer) LastLSN() uint64 { return c.lastLSN.Load() }

// Stats returns cumulative checkpoint I/O counters (safe concurrently
// with a running checkpoint).
func (c *Checkpointer) Stats() Stats {
	return Stats{
		Checkpoints:    c.statCkpts.Load(),
		ChunksWritten:  c.statChunksW.Load(),
		ChunksReused:   c.statChunksR.Load(),
		BytesWritten:   c.statBytes.Load(),
		BytesStored:    c.statStored.Load(),
		BytesCompacted: c.statCompacted.Load(),
	}
}

// ckptFile names the image for a pin LSN.
func ckptFile(name string, lsn uint64) string {
	return fmt.Sprintf("%s-%016x.ckpt", name, lsn)
}

// DocumentOfArtifact is the one image-name parser: it splits a bare file
// name produced by ckptFile into the document it belongs to and the LSN
// it is stamped with, reporting ok=false for anything else (tmp files,
// WAL segments, foreign files). Matching is exact — lowercase hex, fixed
// width, the "-" boundary in place — so a document whose name is a
// dash-prefix of another ("a" vs "a-b") never claims the other's images,
// and database discovery, which shares it, can never disagree with
// Recover's candidate scan.
func DocumentOfArtifact(file string) (doc string, lsn uint64, ok bool) {
	base := strings.TrimSuffix(file, ".ckpt")
	i := len(base) - 17
	if base == file || i <= 0 || base[i] != '-' || !isLowerHex(base[i+1:]) {
		return "", 0, false
	}
	lsn, err := strconv.ParseUint(base[i+1:], 16, 64)
	return base[:i], lsn, err == nil
}

func isLowerHex(s string) bool {
	for _, c := range s {
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// Image describes one LSN-stamped checkpoint image on disk.
type Image struct {
	File string // bare file name, relative to the document directory
	LSN  uint64
}

// scan is the one per-document directory scan: the document's images,
// newest first, and the bare names of its in-progress or stale image tmp
// files — exactly an image name plus a vfs.Publish tmp suffix; a bare
// prefix match would claim (and let retire delete) another document's
// in-flight tmp when one name prefixes the other.
func scan(dir, name string) (imgs []Image, tmps []string, err error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, err
	}
	for _, e := range entries {
		file, tmp := vfs.SplitTmp(e.Name())
		if !tmp {
			file = e.Name()
		}
		doc, lsn, ok := DocumentOfArtifact(file)
		if !ok || doc != name {
			continue
		}
		if tmp {
			tmps = append(tmps, e.Name())
		} else {
			imgs = append(imgs, Image{File: file, LSN: lsn})
		}
	}
	sort.Slice(imgs, func(i, j int) bool { return imgs[i].LSN > imgs[j].LSN })
	return imgs, tmps, nil
}

// Images lists the document's checkpoint images, newest first.
func Images(dir, name string) ([]Image, error) {
	imgs, _, err := scan(dir, name)
	return imgs, err
}

// RemoveArtifacts deletes every checkpoint artifact of the document —
// images and stale tmp files — with exact-boundary matching, leaving
// other documents' files alone, and syncs dir. It returns the first
// error, of the scan or of a remove.
func RemoveArtifacts(dir, name string) error {
	imgs, files, err := scan(dir, name)
	if err != nil {
		return err
	}
	for _, img := range imgs {
		files = append(files, img.File)
	}
	return vfs.RemoveFiles(vfs.OS, dir, files)
}

// CurrentLSN returns the LSN of the document's newest checkpoint image
// (0 if there is none).
func CurrentLSN(dir, name string) uint64 {
	imgs, _ := Images(dir, name)
	if len(imgs) == 0 {
		return 0
	}
	return imgs[0].LSN
}

// Run writes one checkpoint: pin, write missing chunks, publish,
// retire, collect garbage chunks. It returns the LSN the new checkpoint
// covers. The pin is one atomic load of the current version, and the
// chunk writes — O(chunks dirtied since the previous checkpoint), thanks
// to content-addressed dedupe — proceed from that immutable version
// while commits continue.
func (c *Checkpointer) Run() (uint64, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return 0, ErrClosed
	}

	img, lsn := c.pin()
	// An image carries only durable records: the pin may cover a commit
	// whose fsync is in flight, or failed and poisoned the log.
	if c.log != nil {
		if err := c.log.Sync(lsn); err != nil {
			return 0, fmt.Errorf("ckpt: %w", err)
		}
	}

	// Chunks first: SaveChunked syncs them, so by the time an image
	// naming them exists, every chunk it references is durable.
	man, stats, err := img.SaveChunked(c.cs)
	if err != nil {
		return 0, fmt.Errorf("ckpt: writing chunks: %w", err)
	}
	err = vfs.Publish(c.fs, filepath.Join(c.dir, ckptFile(c.name, lsn)), func(w io.Writer) error {
		if _, werr := w.Write(imageMagic[:]); werr != nil {
			return werr
		}
		return json.NewEncoder(w).Encode(image{LSN: lsn, Store: man})
	})
	if err != nil {
		return 0, fmt.Errorf("ckpt: writing image: %w", err)
	}
	c.lastLSN.Store(lsn)
	c.statChunksW.Add(uint64(stats.ChunksWritten))
	c.statChunksR.Add(uint64(stats.ChunksReused))
	c.statBytes.Add(uint64(stats.BytesWritten))

	// The image is durable: the new checkpoint is the recovery root.
	// Retire images beyond the retention horizon and prune WAL segments
	// every retained image has already absorbed — capped by the external
	// prune barrier (a live follower's lowest acked LSN), because a
	// record a follower has not durably applied yet is not redundant no
	// matter how many local images cover it.
	pruneTo := c.retire(lsn)
	if c.pruneBarrier != nil {
		if b := c.pruneBarrier(); b < pruneTo {
			pruneTo = b
		}
	}
	if c.log != nil {
		if err := c.log.Prune(pruneTo); err != nil {
			return 0, fmt.Errorf("ckpt: pruning wal: %w", err)
		}
	}
	// With retirement settled, sweep chunks no retained image references.
	c.gc()
	c.statCkpts.Add(1)
	return lsn, nil
}

// gc garbage-collects the chunk store by mark-and-sweep: every chunk
// referenced by ANY image still on disk is live (the retention
// invariant — a retained image must stay materializable); everything
// else is swept. If any retained image cannot be read, the sweep is
// skipped entirely: an unreadable reference list means an unknowable
// mark set, and leaking chunks until the image retires is strictly
// safer than deleting one it might name. Caller holds c.mu.
func (c *Checkpointer) gc() {
	imgs, err := Images(c.dir, c.name)
	if err != nil {
		return
	}
	live := make(map[chunkstore.Hash]bool)
	for _, img := range imgs {
		hs, err := ImageChunks(filepath.Join(c.dir, img.File))
		if err != nil {
			return
		}
		for _, h := range hs {
			live[h] = true
		}
	}
	c.cs.Sweep(func(h chunkstore.Hash) bool { return live[h] }) // a failed sweep only leaks
	// chunkstore.Dir keeps running counts of what it stored and rewrote.
	if cc, ok := c.cs.(*chunkstore.Dir); ok {
		c.statStored.Store(cc.BytesStored())
		c.statCompacted.Store(cc.BytesCompacted())
	}
}

// ImageChunks returns the chunk hashes a checkpoint image references,
// in manifest order.
func ImageChunks(path string) ([]chunkstore.Hash, error) {
	img, err := readImage(path)
	if err != nil {
		return nil, err
	}
	return img.Store.ChunkHashes()
}

// Close marks the checkpointer closed, first waiting out an in-flight
// Run (including its WAL prune). After Close returns, no checkpoint will
// ever touch the document's WAL or artifacts again — the guarantee the
// document close path needs before it closes the log. Subsequent Runs
// fail with ErrClosed; Close is idempotent.
func (c *Checkpointer) Close() {
	c.mu.Lock()
	c.closed = true
	c.mu.Unlock()
}

// retire removes checkpoint images beyond the retention count, images
// no recovery can use, and stale tmp leftovers, and returns the prune
// horizon: the LSN of the oldest image still retained (every WAL record
// at or below it is redundant for every image we can still recover
// from). Only an image that parses counts toward keep — a torn one
// holding the "previous image" slot would leave nothing to fall back on
// — while one that cannot be read at all may still be an image: it is
// counted, and gc skips its sweep over it.
func (c *Checkpointer) retire(current uint64) uint64 {
	imgs, tmps, err := scan(c.dir, c.name)
	if err != nil {
		return 0
	}
	for _, tmp := range tmps {
		c.fs.Remove(filepath.Join(c.dir, tmp))
	}
	oldest, kept := current, 0
	for _, img := range imgs {
		path := filepath.Join(c.dir, img.File)
		// The current image was written just now; it is not read back.
		if kept > c.keep || (img.LSN != current && refused(path)) {
			c.fs.Remove(path)
			continue
		}
		kept++
		oldest = min(oldest, img.LSN)
	}
	return oldest
}

// refused reports whether the file at path reads whole and is not an
// image.
func refused(path string) bool {
	data, err := os.ReadFile(path)
	if err != nil {
		return false
	}
	_, err = parseImage(filepath.Base(path), data)
	return err != nil
}

// Recover rebuilds the document's store from the best available
// checkpoint plus the WAL. Every image on disk is a candidate, tried by
// descending LSN, and the first one that loads cleanly and replays
// without an LSN gap wins. An image materializes from cs (nil means the
// document's default chunk directory); because each image names every
// chunk of the full document, a torn chunk or image fails that candidate
// whole and recovery degrades to the next-older image — never a mix of
// two. It returns the store and the LSN of the last replayed record
// (the durable horizon); when no candidate recovers, an error wrapping
// ErrNoCheckpoint and the first candidate's failure.
func Recover(dir, name string, log *wal.Log, cs chunkstore.Store) (*core.Store, uint64, error) {
	if cs == nil {
		cs = DefaultChunkStore(dir, name)
	}
	imgs, _ := Images(dir, name)
	var firstErr error
	for _, img := range imgs {
		store, lsn, err := tryRecover(filepath.Join(dir, img.File), log, cs)
		if err == nil {
			if log != nil {
				log.EnsureLSN(lsn)
			}
			return store, lsn, nil
		}
		if firstErr == nil {
			firstErr = fmt.Errorf("recovering from %s: %w", img.File, err)
		}
	}
	if firstErr == nil {
		return nil, 0, fmt.Errorf("%w for %q in %s", ErrNoCheckpoint, name, dir)
	}
	return nil, 0, fmt.Errorf("%w for %q in %s: %w", ErrNoCheckpoint, name, dir, firstErr)
}

// tryRecover loads one image and rolls it forward, insisting on
// gap-free LSNs so a missing segment can never surface as silent loss.
func tryRecover(path string, log *wal.Log, cs chunkstore.Store) (*core.Store, uint64, error) {
	img, err := readImage(path)
	if err != nil {
		return nil, 0, err
	}
	store, err := core.LoadChunked(img.Store, cs)
	if err != nil {
		return nil, 0, err
	}
	lsn := img.LSN
	last := lsn
	if log != nil {
		err = log.Replay(lsn, func(rec *wal.Record) error {
			if rec.LSN != last+1 {
				return fmt.Errorf("%w: have %d, next record is %d", ErrWALGap, last, rec.LSN)
			}
			if err := tx.ApplyOps(store, rec.Ops); err != nil {
				return fmt.Errorf("ckpt: replaying LSN %d: %w", rec.LSN, err)
			}
			last = rec.LSN
			return nil
		})
		if err != nil {
			return nil, 0, err
		}
	}
	return store, last, nil
}
