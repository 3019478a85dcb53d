package ckpt

import (
	"bytes"
	"fmt"
	"io/fs"
	"math/rand"
	"path/filepath"
	"slices"
	"testing"

	"mxq/internal/core"
	"mxq/internal/tx"
	"mxq/internal/vfs"
	"mxq/internal/wal"
	"mxq/internal/xmark"
	"mxq/internal/xpath"
)

// TestPackDiskTracksLiveBytes: rounds of heavy churn, each followed by
// a checkpoint (and with it a sweep that compacts), on an XMark
// document. After every round both retained images must materialize
// through a freshly opened store and equal what the document was, the
// chunk directory must stay within the compaction rule's bound of the
// bytes the retained images name — as stored, deflated, which is what
// a pack's index records and what the rule counts — no chunk may be held twice,
// and a second checkpoint of the unchanged store must write nothing. It pins
// the failure of the first pack prototype: an index that does not
// follow a compacted chunk makes every survivor look missing, so it is
// written again and the directory grows by a document per checkpoint.
func TestPackDiskTracksLiveBytes(t *testing.T) {
	var buf bytes.Buffer
	if _, err := xmark.NewGenerator(0.02, 1).WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	log, err := wal.Open(filepath.Join(dir, "d.wal"), wal.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer log.Close()
	e := &env{dir: dir, log: log, s: buildStore(t, buf.String(), 128)}
	e.m = tx.NewManager(e.s, log)
	e.ck = New(vfs.OS, dir, "d", log, e.m.PinCheckpoint, DefaultChunkStore(dir, "d"), nil)

	rng := rand.New(rand.NewSource(1))
	texts := xpath.MustParse(`//text()`)
	xmlAt := make(map[uint64]string) // the document as of each checkpoint
	for round := 0; round < 8; round++ {
		// Touch about half the pages: one text node in every other page,
		// chosen by the seed.
		txn := e.m.Begin()
		ns, err := texts.Select(txn)
		if err != nil {
			t.Fatal(err)
		}
		page, touched := -1, 0
		for i, n := range ns {
			if p := int(n.Pre) / e.s.PageSize(); p != page {
				page = p
				if rng.Intn(2) == 0 {
					if _, err := txn.Apply(wal.Op{Kind: wal.OpSetValue, Target: txn.NodeOf(n.Pre), Value: fmt.Sprintf("round %d node %d", round, i)}); err != nil {
						t.Fatal(err)
					}
					touched++
				}
			}
		}
		if err := txn.Commit(); err != nil {
			t.Fatal(err)
		}
		lsn, err := e.ck.Run()
		if err != nil {
			t.Fatal(err)
		}
		xmlAt[lsn] = e.baseXML(t)

		// (a) every retained image, through a fresh Dir.
		imgs, err := Images(dir, "d")
		if err != nil || len(imgs) != min(round+1, 2) {
			t.Fatalf("round %d: images %v, %v", round, imgs, err)
		}
		fresh := DefaultChunkStore(dir, "d")
		for _, img := range imgs {
			parsed, err := readImage(filepath.Join(dir, img.File))
			if err != nil {
				t.Fatal(err)
			}
			store, err := core.LoadChunked(parsed.Store, fresh)
			if err != nil {
				t.Fatalf("round %d: image at LSN %d: %v", round, img.LSN, err)
			}
			if viewXML(t, store) != xmlAt[img.LSN] {
				t.Fatalf("round %d: image at LSN %d is not the document of that LSN", round, img.LSN)
			}
		}

		// (b) the directory against the bytes the retained images name.
		_, live := retained(t, dir)
		var liveBytes int64
		held, copies := packed(t, fresh.Root())
		for h := range live {
			s, ok := held[h]
			if !ok {
				t.Fatalf("round %d: retained chunk %s not in the store", round, h)
			}
			liveBytes += s.n
		}
		onDisk, packs := chunkDirBytes(t, fresh.Root())
		if bound := liveBytes*4/3 + 64*int64(len(live)); onDisk > bound {
			t.Fatalf("round %d: chunk directory holds %d bytes in %d packs for %d live bytes in %d chunks (bound %d)",
				round, onDisk, len(packs), liveBytes, len(live), bound)
		}

		// (c) one copy of each chunk.
		if copies != len(held) || len(held) < len(live) {
			t.Fatalf("round %d: %d copies of %d chunks for %d live chunks", round, copies, len(held), len(live))
		}

		// (d) nothing changed, nothing written.
		before := e.ck.Stats()
		if _, err := e.ck.Run(); err != nil {
			t.Fatal(err)
		}
		after := e.ck.Stats()
		if _, again := chunkDirBytes(t, fresh.Root()); !slices.Equal(packs, again) ||
			after.BytesWritten != before.BytesWritten || after.BytesCompacted != before.BytesCompacted {
			t.Fatalf("round %d: a checkpoint of the unchanged store wrote: packs %d -> %d, stats %+v -> %+v",
				round, len(packs), len(again), before, after)
		}
		t.Logf("round %d: %d pages touched, %d packs, %d bytes on disk, %d live, %d compacted so far",
			round, touched, len(packs), onDisk, liveBytes, after.BytesCompacted)
	}
	st := e.ck.Stats()
	if st.BytesCompacted == 0 || st.BytesCompacted > st.BytesStored {
		t.Fatalf("8 rounds of half-document churn: %d bytes compacted beside %d stored", st.BytesCompacted, st.BytesStored)
	}
	if st.BytesStored == 0 || st.BytesStored*2 > st.BytesWritten {
		t.Fatalf("%d chunk bytes written take %d on disk: XMark text should deflate to under half", st.BytesWritten, st.BytesStored)
	}
}

// chunkDirBytes sums the files under a chunk directory and lists them.
func chunkDirBytes(t *testing.T, root string) (int64, []string) {
	t.Helper()
	var total int64
	var files []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		fi, err := d.Info()
		if err != nil {
			return err
		}
		total += fi.Size()
		files = append(files, path)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return total, files
}
