package ckpt

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mxq/internal/chunkstore"
	"mxq/internal/wal"
)

// TestChunkGCNeverOrphansRetainedImage: after several checkpoints the
// sweep must have (a) kept every chunk any retained image references —
// so each retained image stays materializable — and (b) actually
// deleted everything else.
func TestChunkGCNeverOrphansRetainedImage(t *testing.T) {
	e := newEnv(t, 160)
	for round := 0; round < 4; round++ {
		for i := 0; i < 3; i++ {
			e.commitBook(t, "s1", fmt.Sprintf("r%d-%d", round, i))
		}
		if _, err := e.ck.Run(); err != nil {
			t.Fatal(err)
		}
	}
	want := e.baseXML(t)

	imgs, err := Images(e.dir, "d")
	if err != nil {
		t.Fatal(err)
	}
	if len(imgs) != 2 {
		t.Fatalf("retention kept %d images, want 2 (current + previous)", len(imgs))
	}
	cs := DefaultChunkStore(e.dir, "d")
	live := make(map[chunkstore.Hash]bool)
	for _, img := range imgs {
		hs, err := ImageChunks(filepath.Join(e.dir, img.File))
		if err != nil {
			t.Fatal(err)
		}
		for _, h := range hs {
			if ok, err := cs.Has(h); err != nil || !ok {
				t.Fatalf("retained image %s references swept chunk %s (%v)", img.File, h, err)
			}
			live[h] = true
		}
	}
	if err := cs.ForEach(func(h chunkstore.Hash) error {
		if !live[h] {
			return fmt.Errorf("chunk %s referenced by no retained image survived GC", h)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}

	// The point of keeping the previous image's chunks: losing the
	// current image (and the manifest) must still recover to full state.
	if err := os.Remove(filepath.Join(e.dir, imgs[0].File)); err != nil {
		t.Fatal(err)
	}
	os.Remove(filepath.Join(e.dir, "d"+manifestSuffix))
	store, _ := e.recover(t)
	if got := viewXML(t, store); got != want {
		t.Fatalf("recovery from previous image after GC:\nwant %s\ngot  %s", want, got)
	}
}

// TestTornChunkDegradesWholeImage: a torn chunk file fails its whole
// image — recovery falls back to the previous image plus WAL roll
// forward, never a mix of the two checkpoints, and a repeat recovery
// (after the failed Get quarantined the corpse) lands the same place.
func TestTornChunkDegradesWholeImage(t *testing.T) {
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

	imgs, err := Images(e.dir, "d")
	if err != nil || len(imgs) != 2 {
		t.Fatalf("images = %v, %v; want 2", imgs, err)
	}
	newHS, err := ImageChunks(filepath.Join(e.dir, imgs[0].File))
	if err != nil {
		t.Fatal(err)
	}
	oldHS, err := ImageChunks(filepath.Join(e.dir, imgs[1].File))
	if err != nil {
		t.Fatal(err)
	}
	shared := make(map[chunkstore.Hash]bool)
	for _, h := range oldHS {
		shared[h] = true
	}
	var victim chunkstore.Hash
	found := false
	for _, h := range newHS {
		if !shared[h] {
			victim, found = h, true
			break
		}
	}
	if !found {
		t.Fatal("no chunk unique to the newest image — churn between checkpoints produced none?")
	}
	cs := DefaultChunkStore(e.dir, "d")
	fi, err := os.Stat(cs.PathOf(victim))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(cs.PathOf(victim), fi.Size()/2); err != nil {
		t.Fatal(err)
	}

	store, _ := e.recover(t)
	if got := viewXML(t, store); got != want {
		t.Fatalf("recovery over a torn chunk:\nwant %s\ngot  %s", want, got)
	}
	store2, _ := e.recover(t)
	if got := viewXML(t, store2); got != want {
		t.Fatalf("second recovery diverged:\nwant %s\ngot  %s", want, got)
	}
}

// TestUnsupportedImageFormat: an image file that does not open with the
// image magic is refused and treated like any other unreadable
// candidate — recovery degrades to the previous retained image, or
// reports ErrNoCheckpoint when it was the only one. A bare <name>.ckpt
// is not an image at all: never a candidate, never retired.
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
	clobber := func(img Image) {
		t.Helper()
		if err := os.WriteFile(filepath.Join(e.dir, img.File), []byte("NOTMAGIC{\"lsn\":1}"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	clobber(imgs[0])
	if _, err := ImageChunks(filepath.Join(e.dir, imgs[0].File)); err == nil || !strings.Contains(err.Error(), "unsupported image format") {
		t.Fatalf("ImageChunks on a magic-less file = %v", err)
	}
	store, _ := e.recover(t)
	if got := viewXML(t, store); got != want {
		t.Fatalf("recovery did not degrade to the previous image:\nwant %s\ngot  %s", want, got)
	}

	clobber(imgs[1])
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

// TestStaleChunkTmpRemovedOnReopen: a writer killed inside a chunk Put
// leaves "<hash>.chunk.tmpN" behind, which neither GC (it deletes by
// hash) nor retire (image and manifest tmps only) ever touched. The
// first checkpoint after a reopen removes it — and nothing else.
func TestStaleChunkTmpRemovedOnReopen(t *testing.T) {
	e := newEnv(t, 1<<20)
	e.commitBook(t, "s1", "before")
	if _, err := e.ck.Run(); err != nil {
		t.Fatal(err)
	}
	cs := DefaultChunkStore(e.dir, "d")
	var held []chunkstore.Hash
	if err := cs.ForEach(func(h chunkstore.Hash) error { held = append(held, h); return nil }); err != nil {
		t.Fatal(err)
	}
	leftover := cs.PathOf(held[0]) + ".tmp3"
	if err := os.WriteFile(leftover, []byte("torn"), 0o644); err != nil {
		t.Fatal(err)
	}

	// Reopen: a fresh checkpointer (and with it a fresh chunk store)
	// over the same directory, then a checkpoint with something to write.
	e.ck.Close()
	e.ck = New(e.dir, "d", e.log, e.m.PinCheckpoint)
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
