package ckpt

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mxq/internal/chunkstore"
	"mxq/internal/vfs"
	"mxq/internal/wal"
)

// retained returns the chunks each image on disk names, newest image
// first, and their union.
func retained(t testing.TB, dir string) (perImage [][]chunkstore.Hash, live map[chunkstore.Hash]bool) {
	t.Helper()
	imgs, err := Images(dir, "d")
	if err != nil {
		t.Fatal(err)
	}
	live = make(map[chunkstore.Hash]bool)
	for _, img := range imgs {
		hs, err := ImageChunks(filepath.Join(dir, img.File))
		if err != nil {
			t.Fatal(err)
		}
		perImage = append(perImage, hs)
		for _, h := range hs {
			live[h] = true
		}
	}
	return perImage, live
}

// stored is where a chunk's stored bytes lie: its pack file and the range.
type stored struct {
	path   string
	off, n int64
}

// packed reads the index of every pack under root — magic, count, then
// per chunk its hash, stored and raw length, as internal/chunkstore's
// pack format has it — and returns where each chunk is held and how many
// copies all packs hold. A chunk held twice resolves to the pack first
// in name order, as a fresh Dir's does.
func packed(t testing.TB, root string) (at map[chunkstore.Hash]stored, copies int) {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(root, "*.pack"))
	if err != nil {
		t.Fatal(err)
	}
	at = make(map[chunkstore.Hash]stored)
	for _, path := range paths {
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if len(b) < 12 || string(b[:8]) != "MXQPACK2" {
			continue
		}
		count := int(binary.BigEndian.Uint32(b[8:]))
		off := int64(12 + 40*count)
		for i := 0; i < count && 12+40*(i+1) <= len(b); i++ {
			e := b[12+40*i:]
			n := int64(binary.BigEndian.Uint32(e[32:]))
			if h := chunkstore.Hash(e[:32]); at[h].path == "" {
				at[h] = stored{path, off, n}
			}
			off += n
			copies++
		}
	}
	return at, copies
}

// has asks cs for one chunk.
func has(t testing.TB, cs chunkstore.Store, h chunkstore.Hash) bool {
	t.Helper()
	ok, err := cs.HasMany([]chunkstore.Hash{h})
	if err != nil {
		t.Fatal(err)
	}
	return ok[0]
}

// TestChunkGCNeverOrphansRetainedImage: after several checkpoints the
// sweep must have (a) kept every chunk any retained image references —
// so each retained image stays materializable — and (b) actually
// dropped everything else. And when a retained image cannot be read,
// the sweep must not run at all: what it names is unknowable.
func TestChunkGCNeverOrphansRetainedImage(t *testing.T) {
	e := newEnv(t, 160)
	cs := e.ck.cs.(*chunkstore.Dir)
	ever := make(map[chunkstore.Hash]bool) // every chunk any image has named
	for round := 0; round < 4; round++ {
		for i := 0; i < 3; i++ {
			e.commitBook(t, "s1", fmt.Sprintf("r%d-%d", round, i))
		}
		if _, err := e.ck.Run(); err != nil {
			t.Fatal(err)
		}
		_, live := retained(t, e.dir)
		for h := range live {
			ever[h] = true
		}
	}

	imgs, err := Images(e.dir, "d")
	if err != nil {
		t.Fatal(err)
	}
	if len(imgs) != 2 {
		t.Fatalf("retention kept %d images, want 2 (current + previous)", len(imgs))
	}
	perImage, live := retained(t, e.dir)
	swept := 0
	for h := range ever {
		ok := has(t, cs, h)
		if live[h] && !ok {
			t.Fatalf("a retained image references swept chunk %s", h)
		}
		if !live[h] {
			swept++
			if ok {
				t.Fatalf("chunk %s referenced by no retained image survived GC", h)
			}
		}
	}
	if swept == 0 {
		t.Fatal("four rounds of churn retired no chunk — the test exercised no sweep")
	}
	for _, fresh := range []*chunkstore.Dir{cs, DefaultChunkStore(e.dir, "d")} {
		for h := range live {
			if _, err := fresh.Get(h); err != nil {
				t.Fatalf("chunk of a retained image unreadable after GC: %v", err)
			}
		}
	}

	// A retained image nothing can recover from does not hold the
	// "previous image" slot. Clobber the current image: the next
	// checkpoint removes the clobbered file and keeps the older readable
	// image — and every chunk it names — as the previous one.
	newestPath := filepath.Join(e.dir, imgs[0].File)
	good, err := os.ReadFile(newestPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(newestPath, good[:len(good)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	e.commitBook(t, "s2", "while-clobbered")
	if _, err := e.ck.Run(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(newestPath); !os.IsNotExist(err) {
		t.Fatalf("the clobbered image was not removed (%v)", err)
	}
	after, err := Images(e.dir, "d")
	if err != nil {
		t.Fatal(err)
	}
	if len(after) != 2 || after[1] != imgs[1] {
		t.Fatalf("images after the clobbered one: %v, want a new one and %v", after, imgs[1])
	}
	for _, h := range perImage[1] {
		if !has(t, cs, h) {
			t.Fatalf("chunk %s of the retained previous image was swept", h)
		}
	}
	recoverWithoutNewest := func(what string) {
		t.Helper()
		imgs, err := Images(e.dir, "d")
		if err != nil {
			t.Fatal(err)
		}
		aside := filepath.Join(t.TempDir(), "newest")
		if err := os.Rename(filepath.Join(e.dir, imgs[0].File), aside); err != nil {
			t.Fatal(err)
		}
		store, _ := e.recover(t)
		if got, want := viewXML(t, store), e.baseXML(t); got != want {
			t.Fatalf("recovery from the previous image %s:\nwant %s\ngot  %s", what, want, got)
		}
		if err := os.Rename(aside, filepath.Join(e.dir, imgs[0].File)); err != nil {
			t.Fatal(err)
		}
	}
	recoverWithoutNewest("after a clobbered image was retired")

	// An image that cannot be read at all (an I/O error, here a directory
	// in its place) may still be one: it keeps its slot, and the whole
	// sweep is skipped. The next checkpoint keeps it as "previous" and
	// retires the older one, whose own chunks would now be garbage.
	perImage, _ = retained(t, e.dir)
	inNewest := make(map[chunkstore.Hash]bool)
	for _, h := range perImage[0] {
		inNewest[h] = true
	}
	var onlyOldest []chunkstore.Hash
	for _, h := range perImage[1] {
		if !inNewest[h] {
			onlyOldest = append(onlyOldest, h)
		}
	}
	if len(onlyOldest) == 0 {
		t.Fatal("no chunk unique to the older image")
	}
	newestPath = filepath.Join(e.dir, after[0].File)
	aside := filepath.Join(t.TempDir(), "unreadable")
	if err := os.Rename(newestPath, aside); err != nil {
		t.Fatal(err)
	}
	if err := os.Mkdir(newestPath, 0o755); err != nil {
		t.Fatal(err)
	}
	e.commitBook(t, "s2", "while-unreadable")
	if _, err := e.ck.Run(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(e.dir, after[1].File)); !os.IsNotExist(err) {
		t.Fatalf("the older image was not retired (%v)", err)
	}
	for _, h := range onlyOldest {
		if !has(t, cs, h) {
			t.Fatalf("chunk %s was swept while a retained image was unreadable", h)
		}
	}
	// Readable again: the next checkpoint's sweep takes them.
	if err := os.Remove(newestPath); err != nil {
		t.Fatal(err)
	}
	if err := os.Rename(aside, newestPath); err != nil {
		t.Fatal(err)
	}
	if _, err := e.ck.Run(); err != nil {
		t.Fatal(err)
	}
	for _, h := range onlyOldest {
		if has(t, cs, h) {
			t.Fatalf("chunk %s survived the sweep after the image became readable", h)
		}
	}

	// The point of keeping the previous image's chunks: losing the
	// current image must still recover to full state.
	recoverWithoutNewest("after GC")
}

// TestTornChunkDegradesWholeImage: a pack torn at a random offset loses
// the chunks at and after the cut and nothing else; the image naming
// them fails whole — recovery falls back to the previous image plus WAL
// roll forward, never a mix of the two checkpoints — and a repeat
// recovery lands the same place.
func TestTornChunkDegradesWholeImage(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	for i := 0; i < 6; i++ {
		tornPackDegradesWholeImage(t, rng)
	}
}

func tornPackDegradesWholeImage(t *testing.T, rng *rand.Rand) {
	e := newEnv(t, 192)
	for i := 0; i < 4; i++ {
		e.commitBook(t, "s1", fmt.Sprintf("a%d", i))
	}
	if _, err := e.ck.Run(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		e.commitBook(t, "s2", fmt.Sprintf("b%d", i))
	}
	if _, err := e.ck.Run(); err != nil {
		t.Fatal(err)
	}
	e.commitBook(t, "s1", "tail")
	want := e.baseXML(t)

	perImage, live := retained(t, e.dir)
	if len(perImage) != 2 {
		t.Fatalf("%d images on disk, want 2", len(perImage))
	}
	shared := make(map[chunkstore.Hash]bool)
	for _, h := range perImage[1] {
		shared[h] = true
	}
	held, _ := packed(t, ChunkDir(e.dir, "d"))
	torn := "" // the pack the second checkpoint wrote
	for _, h := range perImage[0] {
		if s, ok := held[h]; ok && !shared[h] {
			torn = s.path
			break
		}
	}
	if torn == "" {
		t.Fatal("no chunk unique to the newest image — churn between checkpoints produced none?")
	}
	fi, err := os.Stat(torn)
	if err != nil {
		t.Fatal(err)
	}
	cut := rng.Int63n(fi.Size())
	type where struct {
		path string
		end  int64
	}
	at := make(map[chunkstore.Hash]where)
	for h := range live {
		s, ok := held[h]
		if !ok {
			t.Fatalf("chunk %s of a retained image is not in the store", h)
		}
		if s.path == torn && shared[h] {
			t.Fatalf("the second checkpoint's pack holds chunk %s of the first image", h)
		}
		at[h] = where{s.path, s.off + s.n}
	}
	if err := os.Truncate(torn, cut); err != nil {
		t.Fatal(err)
	}
	fresh := DefaultChunkStore(e.dir, "d")
	lost := 0
	for h, w := range at {
		_, err := fresh.Get(h)
		if gone := w.path == torn && w.end > cut; gone {
			lost++
			if !errors.Is(err, chunkstore.ErrMissing) {
				t.Fatalf("chunk ending at %d of a pack cut at %d: Get = %v", w.end, cut, err)
			}
		} else if err != nil {
			t.Fatalf("cut at %d: chunk before the cut (or in another pack) lost: %v", cut, err)
		}
	}
	if lost == 0 {
		t.Fatalf("a cut at %d of %d lost no chunk", cut, fi.Size())
	}

	store, _ := e.recover(t)
	if got := viewXML(t, store); got != want {
		t.Fatalf("cut at %d: recovery over a torn pack:\nwant %s\ngot  %s", cut, want, got)
	}
	store2, _ := e.recover(t)
	if got := viewXML(t, store2); got != want {
		t.Fatalf("cut at %d: second recovery diverged:\nwant %s\ngot  %s", cut, want, got)
	}
}

// TestUnsupportedImageFormat: an image file that does not open with the
// image magic — a foreign file, or an MXQCKV2 image, whose manifest
// names a recycled-NodeID stack — is refused and treated like any other
// unreadable candidate — recovery degrades to the previous retained
// image, or reports ErrNoCheckpoint when it was the only one. A bare
// <name>.ckpt is not an image at all: never a candidate, never retired.
func TestUnsupportedImageFormat(t *testing.T) {
	e := newEnv(t, 192)
	e.commitBook(t, "s1", "first")
	if _, err := e.ck.Run(); err != nil {
		t.Fatal(err)
	}
	bare := filepath.Join(e.dir, "d.ckpt")
	if err := os.WriteFile(bare, []byte("OLDIMAGE and then some"), 0o644); err != nil {
		t.Fatal(err)
	}
	e.commitBook(t, "s2", "second")
	if _, err := e.ck.Run(); err != nil {
		t.Fatal(err)
	}
	e.commitBook(t, "s1", "tail")
	want := e.baseXML(t)
	if _, err := os.Stat(bare); err != nil {
		t.Fatalf("retire touched the bare d.ckpt: %v", err)
	}

	imgs, err := Images(e.dir, "d")
	if err != nil || len(imgs) != 2 {
		t.Fatalf("images = %v, %v; want current + previous", imgs, err)
	}
	clobber := func(img Image, data string) {
		t.Helper()
		if err := os.WriteFile(filepath.Join(e.dir, img.File), []byte(data), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	v2 := "MXQCKV2\x00" + `{"lsn":1,"store":{"pageBits":6,"nodeLen":0,"freeLen":0,"liveNodes":0,"pages":[],"nodes":[],"free":[]}}`
	for _, data := range []string{v2, "NOTMAGIC{\"lsn\":1}"} {
		clobber(imgs[0], data)
		if _, err := ImageChunks(filepath.Join(e.dir, imgs[0].File)); err == nil || !strings.Contains(err.Error(), "unsupported image format") {
			t.Fatalf("ImageChunks on %.7q = %v", data, err)
		}
	}
	store, _ := e.recover(t)
	if got := viewXML(t, store); got != want {
		t.Fatalf("recovery did not degrade to the previous image:\nwant %s\ngot  %s", want, got)
	}

	clobber(imgs[1], v2)
	log, err := wal.Open(filepath.Join(e.dir, "d.wal"), wal.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer log.Close()
	_, _, err = Recover(e.dir, "d", log, nil)
	if !errors.Is(err, ErrNoCheckpoint) || !strings.Contains(err.Error(), "unsupported image format") {
		t.Fatalf("recovery with only magic-less images = %v, want ErrNoCheckpoint naming the format", err)
	}
}

// TestStaleChunkTmpRemovedOnReopen: a writer killed inside a chunk
// write leaves "<name>.pack.tmp…" behind, which neither GC (it unlinks
// packs) nor retire (image and manifest tmps only) ever touches. The
// first checkpoint after a reopen removes it — and nothing else.
func TestStaleChunkTmpRemovedOnReopen(t *testing.T) {
	e := newEnv(t, 1<<20)
	e.commitBook(t, "s1", "before")
	if _, err := e.ck.Run(); err != nil {
		t.Fatal(err)
	}
	cs := DefaultChunkStore(e.dir, "d")
	packs, err := filepath.Glob(filepath.Join(cs.Root(), "*.pack"))
	if err != nil || len(packs) != 1 {
		t.Fatalf("packs after one checkpoint: %v, %v", packs, err)
	}
	leftover := packs[0] + ".tmp1-2.3"
	if err := os.WriteFile(leftover, []byte("torn"), 0o644); err != nil {
		t.Fatal(err)
	}

	// Reopen: a fresh checkpointer (and with it a fresh chunk store)
	// over the same directory, then a checkpoint with something to write.
	e.ck.Close()
	e.ck = New(vfs.OS, e.dir, "d", e.log, e.m.PinCheckpoint, DefaultChunkStore(e.dir, "d"), nil)
	e.commitBook(t, "s1", "after")
	want := e.baseXML(t)
	if _, err := e.ck.Run(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(leftover); !os.IsNotExist(err) {
		t.Fatalf("stale chunk tmp survived the reopen's first checkpoint (%v)", err)
	}
	imgs, err := Images(e.dir, "d")
	if err != nil {
		t.Fatal(err)
	}
	for _, img := range imgs {
		hs, err := ImageChunks(filepath.Join(e.dir, img.File))
		if err != nil {
			t.Fatal(err)
		}
		for _, h := range hs {
			if _, err := cs.Get(h); err != nil {
				t.Fatalf("image %s lost chunk %s to the tmp sweep: %v", img.File, h, err)
			}
		}
	}
	store, _ := e.recover(t)
	if got := viewXML(t, store); got != want {
		t.Fatalf("recovery after the sweep:\nwant %s\ngot  %s", want, got)
	}
}
