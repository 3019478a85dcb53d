package chunkstore

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
)

func testStore(t *testing.T, s Store) {
	t.Helper()
	a, b := []byte("alpha chunk"), []byte("beta chunk")
	ha, hb := Sum(a), Sum(b)

	if ok, err := s.Has(ha); err != nil || ok {
		t.Fatalf("Has on empty store = %v, %v", ok, err)
	}
	if _, err := s.Get(ha); !errors.Is(err, ErrMissing) {
		t.Fatalf("Get on empty store = %v, want ErrMissing", err)
	}
	if err := s.Put(hb, a); err == nil {
		t.Fatal("Put under a wrong name succeeded")
	}
	if err := s.Put(ha, a); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(ha, a); err != nil {
		t.Fatalf("idempotent re-Put failed: %v", err)
	}
	if err := s.Put(hb, b); err != nil {
		t.Fatal(err)
	}
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	got, err := s.Get(ha)
	if err != nil || string(got) != string(a) {
		t.Fatalf("Get = %q, %v", got, err)
	}
	have, err := s.HasMany([]Hash{ha, Sum([]byte("absent")), hb})
	if err != nil {
		t.Fatal(err)
	}
	if !have[0] || have[1] || !have[2] {
		t.Fatalf("HasMany = %v", have)
	}
	seen := map[Hash]bool{}
	if err := s.ForEach(func(h Hash) error { seen[h] = true; return nil }); err != nil {
		t.Fatal(err)
	}
	if len(seen) != 2 || !seen[ha] || !seen[hb] {
		t.Fatalf("ForEach visited %v", seen)
	}
	if err := s.Delete(hb); err != nil {
		t.Fatal(err)
	}
	if err := s.Delete(hb); err != nil {
		t.Fatalf("double Delete failed: %v", err)
	}
	if ok, _ := s.Has(hb); ok {
		t.Fatal("deleted chunk still present")
	}
	if ok, _ := s.Has(ha); !ok {
		t.Fatal("Delete removed the wrong chunk")
	}
}

func TestMem(t *testing.T) { testStore(t, NewMem()) }

func TestDir(t *testing.T) { testStore(t, NewDir(filepath.Join(t.TempDir(), "chunks"))) }

func TestDirTornChunkIsMissing(t *testing.T) {
	d := NewDir(filepath.Join(t.TempDir(), "chunks"))
	data := []byte("some chunk content that will be torn")
	h := Sum(data)
	if err := d.Put(h, data); err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(d.PathOf(h), int64(len(data)/2)); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Get(h); !errors.Is(err, ErrMissing) {
		t.Fatalf("Get of torn chunk = %v, want ErrMissing", err)
	}
	// The failed Get quarantined the corpse, so the store no longer
	// claims the name and the next checkpoint re-Puts good bytes —
	// without this, Put's skip-if-exists would pin the torn file forever.
	if ok, err := d.Has(h); err != nil || ok {
		t.Fatalf("torn chunk still claimed after failed Get: %v, %v", ok, err)
	}
	if err := d.Put(h, data); err != nil {
		t.Fatal(err)
	}
	if got, err := d.Get(h); err != nil || string(got) != string(data) {
		t.Fatalf("re-Put after quarantine: %q, %v", got, err)
	}
}

func TestDirForEachSkipsStrays(t *testing.T) {
	root := filepath.Join(t.TempDir(), "chunks")
	d := NewDir(root)
	data := []byte("x")
	if err := d.Put(Sum(data), data); err != nil {
		t.Fatal(err)
	}
	// Drop junk: a tmp leftover and an alien file.
	sub := filepath.Dir(d.PathOf(Sum(data)))
	if err := os.WriteFile(filepath.Join(sub, "junk.txt"), []byte("j"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(d.PathOf(Sum(data))+".tmp99", []byte("t"), 0o644); err != nil {
		t.Fatal(err)
	}
	n := 0
	if err := d.ForEach(func(Hash) error { n++; return nil }); err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("ForEach visited %d chunks, want 1", n)
	}
}

func TestHashHexRoundTrip(t *testing.T) {
	h := Sum([]byte("round trip"))
	back, err := ParseHash(h.String())
	if err != nil || back != h {
		t.Fatalf("ParseHash(%s) = %s, %v", h, back, err)
	}
	for _, bad := range []string{"", "abcd", h.String()[:63], h.String() + "00", "ZZ" + h.String()[2:]} {
		if _, err := ParseHash(bad); err == nil {
			t.Fatalf("ParseHash(%q) succeeded", bad)
		}
	}
}

// batch makes n distinct chunks, numbered from base.
func batch(base, n int) ([]Hash, [][]byte) {
	hs, datas := make([]Hash, n), make([][]byte, n)
	for i := range hs {
		datas[i] = []byte(fmt.Sprintf("chunk %d %s", base+i, strings.Repeat("x", (base+i)%97)))
		hs[i] = Sum(datas[i])
	}
	return hs, datas
}

// dirFiles lists the files under a Dir's fan-out directories.
func dirFiles(t *testing.T, d *Dir) []string {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(d.Root(), "*", "*"))
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// TestDirPutManyConcurrentBatches: overlapping batches from several
// goroutines (run under -race) all land, each chunk whole under its
// name, and a batch of chunks the store already holds changes nothing.
func TestDirPutManyConcurrentBatches(t *testing.T) {
	d := NewDir(filepath.Join(t.TempDir(), "chunks"))
	const writers, per = 6, 60
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			hs, datas := batch(w*per/2, per) // each half shared with a neighbour
			if err := d.PutMany(hs, datas); err != nil {
				t.Errorf("writer %d: %v", w, err)
			}
		}(w)
	}
	wg.Wait()
	if err := d.Sync(); err != nil {
		t.Fatal(err)
	}
	hs, datas := batch(0, (writers+1)*per/2)
	for i, h := range hs {
		got, err := d.Get(h)
		if err != nil || !bytes.Equal(got, datas[i]) {
			t.Fatalf("chunk %d after concurrent PutMany: %v", i, err)
		}
	}
	before := dirFiles(t, d)
	if len(before) != len(hs) {
		t.Fatalf("store holds %d files for %d chunks (tmp files left behind?)", len(before), len(hs))
	}
	if err := d.PutMany(hs, datas); err != nil {
		t.Fatalf("re-putting held chunks: %v", err)
	}
	if after := dirFiles(t, d); !slices.Equal(before, after) {
		t.Fatalf("re-putting held chunks changed the store: %d -> %d files", len(before), len(after))
	}
	if err := d.PutMany(hs[:3], datas[:2]); err == nil {
		t.Fatal("PutMany accepted 3 names for 2 chunks")
	}
}

// TestDirPutManyFirstErrorWins: a bad chunk mid-batch fails the batch
// with that chunk's error, is not stored, and whatever else the batch
// left behind is whole chunks under their own names (or tmp files).
func TestDirPutManyFirstErrorWins(t *testing.T) {
	d := NewDir(filepath.Join(t.TempDir(), "chunks"))
	hs, datas := batch(0, 200)
	const bad = 100
	datas[bad] = []byte("not what the name says")
	err := d.PutMany(hs, datas)
	if err == nil || !strings.Contains(err.Error(), hs[bad].String()) {
		t.Fatalf("PutMany = %v, want the content mismatch of %s", err, hs[bad])
	}
	if ok, _ := d.Has(hs[bad]); ok {
		t.Fatal("the mismatching chunk was stored")
	}
	stored := 0
	for _, f := range dirFiles(t, d) {
		name, ok := chunkFileName(filepath.Base(f))
		if !ok {
			if !strings.Contains(f, ".chunk.tmp") {
				t.Fatalf("stray file %s", f)
			}
			continue
		}
		data, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		if Sum(data).String() != name {
			t.Fatalf("%s holds other content than its name", f)
		}
		stored++
	}
	if stored >= len(hs) {
		t.Fatalf("%d chunks stored from a failed batch of %d", stored, len(hs))
	}
	// The survivors are harmless: the repaired batch goes through.
	hs, datas = batch(0, 200)
	if err := d.PutMany(hs, datas); err != nil {
		t.Fatal(err)
	}
}

// TestDirRemovesStaleTmps: tmp files a killed writer left behind go
// with the first write through a freshly opened Dir; real chunks, alien
// files and tmp files of this process (possibly in flight through
// another Dir over the same root) stay.
func TestDirRemovesStaleTmps(t *testing.T) {
	root := filepath.Join(t.TempDir(), "chunks")
	d := NewDir(root)
	hs, datas := batch(0, 20)
	if err := d.PutMany(hs, datas); err != nil {
		t.Fatal(err)
	}
	absent := Sum([]byte("never stored"))
	if err := os.MkdirAll(filepath.Dir(d.PathOf(absent)), 0o755); err != nil {
		t.Fatal(err)
	}
	stale := []string{
		d.PathOf(hs[0]) + ".tmp7",                // the name a parent-commit writer used
		d.PathOf(absent) + ".tmp4242-17e0a5c3.9", // another process's
	}
	keep := []string{
		d.PathOf(absent) + tmpTag + "99",
		filepath.Join(filepath.Dir(d.PathOf(hs[1])), "junk.txt"),
	}
	for _, f := range append(append([]string(nil), stale...), keep...) {
		if err := os.WriteFile(f, []byte("t"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	// The Dir that has already written never sweeps again ...
	more, moreData := batch(1000, 1)
	if err := d.Put(more[0], moreData[0]); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(stale[0]); err != nil {
		t.Fatalf("a Dir swept after its first write: %v", err)
	}
	// ... a reopened one does, with its first write.
	d2 := NewDir(root)
	more, moreData = batch(2000, 1)
	if err := d2.PutMany(more, moreData); err != nil {
		t.Fatal(err)
	}
	for _, f := range stale {
		if _, err := os.Stat(f); !os.IsNotExist(err) {
			t.Errorf("stale tmp %s survived a reopen + write (%v)", f, err)
		}
	}
	for _, f := range keep {
		if _, err := os.Stat(f); err != nil {
			t.Errorf("%s was swept: %v", f, err)
		}
	}
	for i, h := range hs {
		if got, err := d2.Get(h); err != nil || !bytes.Equal(got, datas[i]) {
			t.Fatalf("chunk %d lost to the sweep: %v", i, err)
		}
	}
}
