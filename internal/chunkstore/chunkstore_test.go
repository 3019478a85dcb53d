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
	"syscall"
	"testing"

	"mxq/internal/vfs"
)

// has asks s for one chunk.
func has(s Store, h Hash) (bool, error) {
	ok, err := s.HasMany([]Hash{h})
	if err != nil {
		return false, err
	}
	return ok[0], nil
}

// Usage is what a root directory holds, counted from the pack indexes
// on disk.
type Usage struct {
	Packs  int // pack files
	Chunks int // distinct chunks
	Copies int // chunks over all packs; more than Chunks when one is held twice
}

// Usage lists the root afresh (dead chunks Sweep has only dropped from
// this Dir's index still count until their pack is rewritten).
func (d *Dir) Usage() (Usage, error) {
	fresh := NewDirFS(d.fs, d.root)
	if err := fresh.list(); err != nil {
		return Usage{}, err
	}
	u := Usage{Packs: len(fresh.packs), Chunks: len(fresh.index)}
	for _, p := range fresh.packs {
		u.Copies += len(p.entries)
	}
	return u, nil
}

func testStore(t *testing.T, s Store) {
	t.Helper()
	a, b := []byte("alpha chunk"), []byte("beta chunk")
	ha, hb := Sum(a), Sum(b)

	if ok, err := has(s, ha); err != nil || ok {
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
	if err := s.Sweep(func(h Hash) bool { return h != hb }); err != nil {
		t.Fatal(err)
	}
	if err := s.Sweep(func(h Hash) bool { return h != hb }); err != nil {
		t.Fatalf("second Sweep failed: %v", err)
	}
	if ok, _ := has(s, hb); ok {
		t.Fatal("swept chunk still present")
	}
	if _, err := s.Get(hb); !errors.Is(err, ErrMissing) {
		t.Fatalf("Get of a swept chunk = %v, want ErrMissing", err)
	}
	if got, err := s.Get(ha); err != nil || string(got) != string(a) {
		t.Fatalf("Sweep lost the kept chunk: %q, %v", got, err)
	}
	if err := s.Put(hb, b); err != nil {
		t.Fatalf("re-Put of a swept chunk: %v", err)
	}
	if got, err := s.Get(hb); err != nil || string(got) != string(b) {
		t.Fatalf("Get after re-Put = %q, %v", got, err)
	}
	if err := s.Put(ha, b); err == nil {
		t.Fatal("Put of a held name with other content succeeded")
	}
}

func TestDir(t *testing.T) { testStore(t, NewDir(filepath.Join(t.TempDir(), "chunks"))) }

// packFiles lists the files under a Dir's root, packs or not.
func packFiles(t *testing.T, d *Dir) []string {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(d.Root(), "*"))
	if err != nil {
		t.Fatal(err)
	}
	return files
}

func keepAll(Hash) bool { return true }

func keepSet(hs []Hash) func(Hash) bool {
	set := make(map[Hash]bool, len(hs))
	for _, h := range hs {
		set[h] = true
	}
	return func(h Hash) bool { return set[h] }
}

func mustPutMany(t *testing.T, d *Dir, hs []Hash, datas [][]byte) {
	t.Helper()
	if err := d.PutMany(hs, datas); err != nil {
		t.Fatal(err)
	}
	if err := d.Sync(); err != nil {
		t.Fatal(err)
	}
}

func mustGetAll(t *testing.T, d *Dir, hs []Hash, datas [][]byte) {
	t.Helper()
	for i, h := range hs {
		if got, err := d.Get(h); err != nil || !bytes.Equal(got, datas[i]) {
			t.Fatalf("chunk %d (%s): %v", i, h, err)
		}
	}
}

// locate reports where d's index resolves h: the pack file and the range
// of the chunk's stored bytes, not its raw length.
func locate(d *Dir, h Hash) (path string, off, n int64, ok bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if err := d.list(); err != nil {
		return "", 0, 0, false
	}
	e := d.index[h]
	if e == nil {
		return "", 0, 0, false
	}
	return d.path(e.p), e.off, int64(e.n), true
}

// flipByte inverts the byte at off of the file at path.
func flipByte(t *testing.T, path string, off int64) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var b [1]byte
	if _, err := f.ReadAt(b[:], off); err != nil {
		t.Fatal(err)
	}
	b[0] = ^b[0]
	if _, err := f.WriteAt(b[:], off); err != nil {
		t.Fatal(err)
	}
}

// TestDirTornChunkIsMissing: a copy cut short or with one byte flipped —
// stored verbatim or as a deflate stream, which the stored length
// tells apart — is a missing chunk, and a later Put repairs it.
func TestDirTornChunkIsMissing(t *testing.T) {
	verbatim := []byte("some chunk content that will be torn")
	deflated := bytes.Repeat(verbatim, 20)
	cut := func(t *testing.T, path string, off, n int64) {
		if err := os.Truncate(path, off+n/2); err != nil {
			t.Fatal(err)
		}
	}
	flip := func(t *testing.T, path string, off, n int64) { flipByte(t, path, off+n/2) }
	for _, tc := range []struct {
		name   string
		data   []byte
		damage func(t *testing.T, path string, off, n int64)
	}{
		{"verbatim/cut", verbatim, cut},
		{"deflated/cut", deflated, cut},
		{"verbatim/flip", verbatim, flip},
		{"deflated/flip", deflated, flip},
		{"deflated/flip-last", deflated, func(t *testing.T, path string, off, n int64) { flipByte(t, path, off+n-1) }},
	} {
		t.Run(tc.name, func(t *testing.T) { testTornChunk(t, tc.data, tc.damage) })
	}
}

func testTornChunk(t *testing.T, data []byte, damage func(t *testing.T, path string, off, n int64)) {
	d := NewDir(filepath.Join(t.TempDir(), "chunks"))
	h := Sum(data)
	if err := d.Put(h, data); err != nil {
		t.Fatal(err)
	}
	path, off, n, ok := locate(d, h)
	if wantDeflated := len(data) > 100; !ok || (n < int64(len(data))) != wantDeflated || n > int64(len(data)) {
		t.Fatalf("locate = %s, %d, %d, %v for a chunk of %d bytes", path, off, n, ok, len(data))
	}
	if got := d.BytesStored(); got != uint64(n) {
		t.Fatalf("BytesStored = %d after storing %d bytes", got, n)
	}
	damage(t, path, off, n)
	if _, err := d.Get(h); !errors.Is(err, ErrMissing) {
		t.Fatalf("Get of torn chunk = %v, want ErrMissing", err)
	}
	// The failed Get forgot the copy, so the store no longer claims the
	// name and the next checkpoint re-Puts good bytes — without this,
	// Put's skip-if-held would pin the torn copy forever.
	if ok, err := has(d, h); err != nil || ok {
		t.Fatalf("torn chunk still claimed after failed Get: %v, %v", ok, err)
	}
	if err := d.Put(h, data); err != nil {
		t.Fatal(err)
	}
	if got, err := d.Get(h); err != nil || string(got) != string(data) {
		t.Fatalf("re-Put after the failed Get: %q, %v", got, err)
	}
	// A freshly opened Dir may list the torn pack first; it falls
	// through to the good copy.
	if got, err := NewDir(d.Root()).Get(h); err != nil || string(got) != string(data) {
		t.Fatalf("fresh Dir over a torn and a good copy: %q, %v", got, err)
	}
}

// TestDirGetVerifiesContent: a flipped bit inside a pack's data is a
// missing chunk, for that chunk only.
func TestDirGetVerifiesContent(t *testing.T) {
	d := NewDir(filepath.Join(t.TempDir(), "chunks"))
	hs, datas := batch(0, 10)
	mustPutMany(t, d, hs, datas)
	path, off, _, _ := locate(d, hs[4])
	flipByte(t, path, off+1)
	for _, d := range []*Dir{d, NewDir(d.Root())} {
		for i, h := range hs {
			got, err := d.Get(h)
			if i == 4 {
				if !errors.Is(err, ErrMissing) {
					t.Fatalf("Get of the flipped chunk = %v, want ErrMissing", err)
				}
			} else if err != nil || !bytes.Equal(got, datas[i]) {
				t.Fatalf("chunk %d beside the flipped one: %v", i, err)
			}
		}
	}
}

// TestDirTruncatedPack: a pack cut at any offset loses the chunks at
// and after the cut and nothing else.
func TestDirTruncatedPack(t *testing.T) {
	root := filepath.Join(t.TempDir(), "chunks")
	hs, datas := batch(0, 12)
	mustPutMany(t, NewDir(root), hs, datas)
	path, _, _, _ := locate(NewDir(root), hs[0])
	whole, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for cut := 0; cut < len(whole); cut++ {
		if err := os.WriteFile(path, whole[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		d := NewDir(root)
		for i, h := range hs {
			got, err := d.Get(h)
			inside := packEnd(whole, i) <= cut
			switch {
			case inside && (err != nil || !bytes.Equal(got, datas[i])):
				t.Fatalf("cut %d: chunk %d lies before the cut but Get = %v", cut, i, err)
			case !inside && !errors.Is(err, ErrMissing):
				t.Fatalf("cut %d: chunk %d lies at or after the cut but Get = %v", cut, i, err)
			}
		}
	}
}

// packEnd returns the offset one past chunk i's bytes in a whole pack.
func packEnd(pack []byte, i int) int {
	entries, err := readPackIndex(bytes.NewReader(pack), int64(len(pack)))
	if err != nil {
		panic(err)
	}
	return int(entries[i].off) + int(entries[i].n)
}

// TestDirIgnoresStrays: files that are not packs — tmp leftovers, alien
// files, a directory of the loose layout — hold no chunks and survive a
// sweep.
func TestDirIgnoresStrays(t *testing.T) {
	root := filepath.Join(t.TempDir(), "chunks")
	d := NewDir(root)
	data := []byte("x")
	if err := d.Put(Sum(data), data); err != nil {
		t.Fatal(err)
	}
	loose := Sum([]byte("loose"))
	if err := os.MkdirAll(filepath.Join(root, "ab"), 0o755); err != nil {
		t.Fatal(err)
	}
	strays := []string{
		filepath.Join(root, "junk.txt"),
		filepath.Join(root, "ab", loose.String()+".chunk"),
	}
	for _, f := range strays {
		if err := os.WriteFile(f, []byte("loose"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	d = NewDir(root)
	if u, err := d.Usage(); err != nil || u != (Usage{Packs: 1, Chunks: 1, Copies: 1}) {
		t.Fatalf("Usage = %+v, %v", u, err)
	}
	if ok, _ := has(d, loose); ok {
		t.Fatal("a loose .chunk file counts as a held chunk")
	}
	if err := d.Sweep(keepAll); err != nil {
		t.Fatal(err)
	}
	for _, f := range strays {
		if _, err := os.Stat(f); err != nil {
			t.Errorf("sweep touched %s: %v", f, err)
		}
	}
}

// TestDirIgnoresOlderFormat: packs of the format before this one (no raw
// lengths, chunks verbatim) are not packs. A directory of them opens as
// an empty store, takes new writes, and loses them to the next sweep.
func TestDirIgnoresOlderFormat(t *testing.T) {
	root := filepath.Join(t.TempDir(), "chunks")
	if err := os.MkdirAll(root, 0o755); err != nil {
		t.Fatal(err)
	}
	hs, datas := batch(0, 3)
	var olds []string
	for i, data := range datas {
		old := []byte("MXQPACK1\x00\x00\x00\x01")
		old = append(old, hs[i][:]...)
		old = append(old, 0, 0, 0, byte(len(data)))
		old = append(old, data...)
		sum := Sum(old[:packHeaderSize+HashSize+4])
		olds = append(olds, filepath.Join(root, sum.String()+packSuffix))
		if err := os.WriteFile(olds[i], old, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	d := NewDir(root)
	if u, err := d.Usage(); err != nil || u != (Usage{Packs: 3}) {
		t.Fatalf("Usage = %+v, %v", u, err)
	}
	if have, err := d.HasMany(hs); err != nil || slices.Contains(have, true) {
		t.Fatalf("HasMany over MXQPACK1 files = %v, %v", have, err)
	}
	if _, err := d.Get(hs[0]); !errors.Is(err, ErrMissing) {
		t.Fatalf("Get = %v, want ErrMissing", err)
	}
	mustPutMany(t, d, hs, datas)
	if err := d.Sweep(keepAll); err != nil {
		t.Fatal(err)
	}
	if files := packFiles(t, d); len(files) != 1 || slices.Contains(olds, files[0]) {
		t.Fatalf("after a sweep: %v", files)
	}
	mustGetAll(t, NewDir(root), hs, datas)
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

// TestDirPutManyConcurrentBatches: overlapping batches from several
// goroutines (run under -race) all land, each chunk whole under its
// name, one pack per batch and no tmp file left, and a batch of chunks
// the store already holds writes nothing.
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
	mustGetAll(t, d, hs, datas)
	mustGetAll(t, NewDir(d.Root()), hs, datas)
	before := packFiles(t, d)
	if len(before) == 0 || len(before) > writers {
		t.Fatalf("%d batches left %d files (tmp files left behind?)", writers, len(before))
	}
	for _, f := range before {
		if !strings.HasSuffix(f, packSuffix) {
			t.Fatalf("stray file %s", f)
		}
	}
	if err := d.PutMany(hs, datas); err != nil {
		t.Fatalf("re-putting held chunks: %v", err)
	}
	if after := packFiles(t, d); !slices.Equal(before, after) {
		t.Fatalf("re-putting held chunks changed the store: %d -> %d files", len(before), len(after))
	}
	if err := d.PutMany(hs[:3], datas[:2]); err == nil {
		t.Fatal("PutMany accepted 3 names for 2 chunks")
	}
	// Racing batches may have stored a shared chunk twice; a sweep that
	// keeps everything still ends with every chunk readable.
	if err := d.Sweep(keepAll); err != nil {
		t.Fatal(err)
	}
	mustGetAll(t, NewDir(d.Root()), hs, datas)
}

// TestDirPutManyFirstErrorWins: a bad chunk mid-batch fails the batch
// with that chunk's error and nothing of the batch is published — no
// pack, no tmp file — whether the bad chunk was to be written or was
// skipped as already held.
func TestDirPutManyFirstErrorWins(t *testing.T) {
	d := NewDir(filepath.Join(t.TempDir(), "chunks"))
	hs, datas := batch(0, 200)
	const bad = 100
	datas[bad] = []byte("not what the name says")
	err := d.PutMany(hs, datas)
	if err == nil || !strings.Contains(err.Error(), hs[bad].String()) {
		t.Fatalf("PutMany = %v, want the content mismatch of %s", err, hs[bad])
	}
	if ok, _ := has(d, hs[bad]); ok {
		t.Fatal("the mismatching chunk was stored")
	}
	if files := packFiles(t, d); len(files) != 0 {
		t.Fatalf("a failed batch left %v", files)
	}
	// The repaired batch goes through, as one pack.
	hs, datas = batch(0, 200)
	mustPutMany(t, d, hs, datas)
	if files := packFiles(t, d); len(files) != 1 {
		t.Fatalf("one batch left %d files", len(files))
	}
	datas[bad] = []byte("not what the name says")
	if err := d.PutMany(hs, datas); err == nil || !strings.Contains(err.Error(), hs[bad].String()) {
		t.Fatalf("PutMany of a held name with other content = %v", err)
	}
}

// TestDirRemovesStaleTmps: pack tmp files a killed writer left behind
// go with the first write through a freshly opened Dir, whatever process
// tag they carry — this one's too: a Dir is its root's one owner, so no
// tmp file it did not write itself can be in flight — while alien files
// stay. A read removes nothing, and a Dir that has written never looks
// again.
func TestDirRemovesStaleTmps(t *testing.T) {
	root := filepath.Join(t.TempDir(), "chunks")
	rec := &recFS{root: root}
	d := NewDirFS(rec, root)
	hs, datas := batch(0, 20)
	mustPutMany(t, d, hs, datas)
	// This process's tmp suffix, as the publish just used it.
	tmp := filepath.Base(rec.log[slices.IndexFunc(rec.log, func(e event) bool { return e.op == "open" })].name)
	final, _ := vfs.SplitTmp(tmp)
	own := tmp[len(final) : strings.LastIndex(tmp, ".")+1]
	name := strings.Repeat("ab", HashSize) + packSuffix
	stale := []string{
		filepath.Join(root, name+".tmp4242-17e0a5c3.9"), // another process's
		filepath.Join(root, name+".tmp7"),
		filepath.Join(root, name+own+"99"), // this process's
	}
	keep := []string{
		filepath.Join(root, "junk.txt"),
		filepath.Join(root, "junk.tmp7"),
	}
	for _, f := range append(append([]string(nil), stale...), keep...) {
		if err := os.WriteFile(f, []byte("t"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	// The Dir that has already written never looks again ...
	more, moreData := batch(1000, 1)
	if err := d.Put(more[0], moreData[0]); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(stale[0]); err != nil {
		t.Fatalf("a Dir removed tmp files after its first write: %v", err)
	}
	// ... a reopened one does, with its first write — not before.
	d2 := NewDir(root)
	mustGetAll(t, d2, hs, datas)
	if _, err := os.Stat(stale[0]); err != nil {
		t.Fatalf("a read removed tmp files: %v", err)
	}
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
			t.Errorf("%s was removed: %v", f, err)
		}
	}
	mustGetAll(t, d2, hs, datas)
}

// TestCompactionTmpSurvivesFirstPut: a compaction can be a fresh Dir's
// first write while a PutMany is about to make its own; the PutMany's
// removal of stale tmp files must not take the compaction's in-flight
// one, or its rename fails.
func TestCompactionTmpSurvivesFirstPut(t *testing.T) {
	root := filepath.Join(t.TempDir(), "chunks")
	hs, datas := batch(0, 40)
	mustPutMany(t, NewDir(root), hs, datas)

	inMkdir, release, putOpened := make(chan struct{}), make(chan struct{}), make(chan struct{})
	var once sync.Once
	g := &gateFS{FS: vfs.OS}
	g.mkdir = func() { once.Do(func() { close(inMkdir); <-release }) }
	d := NewDirFS(g, root)
	more, moreData := batch(1000, 1)
	putErr := make(chan error, 1)
	go func() { putErr <- d.PutMany(more, moreData) }()
	<-inMkdir // the PutMany waits ahead of its first write, holding no lock
	opens := 0
	g.open = func() {
		if opens++; opens == 1 { // the compaction's tmp file: let the PutMany write
			close(release)
			<-putOpened
		} else {
			close(putOpened)
		}
	}
	if err := d.Sweep(keepSet(hs[:20])); err != nil {
		t.Fatalf("compaction beside a first PutMany: %v", err)
	}
	if err := <-putErr; err != nil {
		t.Fatal(err)
	}
	mustGetAll(t, NewDir(root), append(hs[:20:20], more...), append(datas[:20:20], moreData...))
}

// gateFS is vfs.OS with a hook run before every MkdirAll and one after
// every OpenFile.
type gateFS struct {
	vfs.FS
	mkdir, open func()
}

func (g *gateFS) MkdirAll(path string, perm os.FileMode) error {
	g.mkdir()
	return g.FS.MkdirAll(path, perm)
}

func (g *gateFS) OpenFile(name string, flag int, perm os.FileMode) (vfs.File, error) {
	f, err := g.FS.OpenFile(name, flag, perm)
	g.open()
	return f, err
}

// TestSweepIndexFollowsCompaction: after a compaction the Dir that ran
// it resolves every survivor to the new pack, so a following HasMany
// reports them held and a PutMany of them writes nothing; the victims
// are gone, and the counter reads the bytes rewritten.
func TestSweepIndexFollowsCompaction(t *testing.T) {
	d := NewDir(filepath.Join(t.TempDir(), "chunks"))
	hs, datas := batch(0, 100)
	mustPutMany(t, d, hs, datas)
	victim := packFiles(t, d)

	// Fewer than a quarter of the bytes dead: dropped from the index,
	// the pack stays as it is.
	if err := d.Sweep(keepSet(hs[10:])); err != nil {
		t.Fatal(err)
	}
	if files := packFiles(t, d); !slices.Equal(files, victim) || d.BytesCompacted() != 0 {
		t.Fatalf("a tenth dead: files %v, %d bytes compacted", files, d.BytesCompacted())
	}
	if have, _ := d.HasMany(hs[:11]); slices.Contains(have[:10], true) || !have[10] {
		t.Fatalf("HasMany after dropping hs[:10] = %v", have)
	}

	live, liveData := hs[50:], datas[50:]
	if err := d.Sweep(keepSet(live)); err != nil {
		t.Fatal(err)
	}
	var want, raw uint64 // stored bytes: what compaction copies
	for i, h := range live {
		_, _, n, _ := locate(d, h)
		want, raw = want+uint64(n), raw+uint64(len(liveData[i]))
	}
	if got := d.BytesCompacted(); got != want || want >= raw {
		t.Fatalf("BytesCompacted = %d, want the %d stored bytes of %d raw", got, want, raw)
	}
	files := packFiles(t, d)
	if len(files) != 1 || files[0] == victim[0] {
		t.Fatalf("after compaction: %v (victim %v)", files, victim)
	}
	have, err := d.HasMany(live)
	if err != nil || slices.Contains(have, false) {
		t.Fatalf("survivors look missing after compaction: %v, %v", have, err)
	}
	if err := d.PutMany(live, liveData); err != nil {
		t.Fatal(err)
	}
	if after := packFiles(t, d); !slices.Equal(files, after) {
		t.Fatalf("re-putting survivors wrote %v", after)
	}
	mustGetAll(t, d, live, liveData)
	for _, d := range []*Dir{d, NewDir(d.Root())} {
		if u, err := d.Usage(); err != nil || u != (Usage{Packs: 1, Chunks: 50, Copies: 50}) {
			t.Fatalf("Usage = %+v, %v", u, err)
		}
	}
	// Nothing left alive: the pack goes, the directory is empty.
	if err := d.Sweep(func(Hash) bool { return false }); err != nil {
		t.Fatal(err)
	}
	if files := packFiles(t, d); len(files) != 0 {
		t.Fatalf("a sweep keeping nothing left %v", files)
	}
}

// TestCompactionDropsCorruptChunks: a chunk that fails verification
// while being copied — one stored verbatim, one deflated — is dropped,
// never carried into the new pack, and every other survivor is, also in
// the window where the new pack is published and the victim still there.
func TestCompactionDropsCorruptChunks(t *testing.T) {
	root, window := filepath.Join(t.TempDir(), "chunks"), filepath.Join(t.TempDir(), "window")
	rec := &recFS{root: root, onCompact: func() {
		if err := os.CopyFS(window, os.DirFS(root)); err != nil {
			t.Error(err)
		}
	}}
	d := NewDirFS(rec, root)
	hs, datas := batch(0, 40)
	mustPutMany(t, d, hs, datas)
	deflated := 0
	for _, i := range []int{25, 33} {
		path, off, n, _ := locate(d, hs[i])
		if n < int64(len(datas[i])) {
			deflated++
		}
		flipByte(t, path, off+n/2)
	}
	if deflated != 1 {
		t.Fatalf("%d of the 2 corrupted chunks are stored deflated, want one of each kind", deflated)
	}
	if err := d.Sweep(keepSet(hs[20:])); err != nil {
		t.Fatal(err)
	}
	if rec.onCompact != nil {
		t.Fatal("the sweep never stood in a compaction's window")
	}
	if u, err := NewDir(window).Usage(); err != nil || u != (Usage{Packs: 2, Chunks: 40, Copies: 58}) {
		t.Fatalf("Usage inside the compaction window = %+v, %v", u, err)
	}
	for _, d := range []*Dir{d, NewDir(d.Root()), NewDir(window)} {
		if d.Root() == window {
			// Killed in the window: the next sweep resolves the duplicates
			// and meets the two corrupt copies in the victim again.
			if err := d.Sweep(keepSet(hs[20:])); err != nil {
				t.Fatal(err)
			}
		}
		if u, err := d.Usage(); err != nil || u != (Usage{Packs: 1, Chunks: 18, Copies: 18}) {
			t.Fatalf("Usage = %+v, %v", u, err)
		}
		for i := 20; i < 40; i++ {
			got, err := d.Get(hs[i])
			if i == 25 || i == 33 {
				if !errors.Is(err, ErrMissing) {
					t.Fatalf("corrupt chunk %d after compaction: %v", i, err)
				}
			} else if err != nil || !bytes.Equal(got, datas[i]) {
				t.Fatalf("survivor %d: %v", i, err)
			}
		}
	}
}

// TestSweepResolvesDuplicates: the state a crash between a compaction's
// publish and its unlinks leaves — every survivor in two packs — reads
// fine through a fresh Dir, and one more sweep leaves one copy of each.
// A duplicate is only dropped once the copy the index prefers has been
// verified: here the preferred copy of one chunk is corrupt.
func TestSweepResolvesDuplicates(t *testing.T) {
	root := filepath.Join(t.TempDir(), "chunks")
	crashed := filepath.Join(t.TempDir(), "crashed")
	rec := &recFS{root: root, onCompact: func() {
		// The new pack is published and the victim not yet unlinked.
		if err := os.CopyFS(crashed, os.DirFS(root)); err != nil {
			t.Error(err)
		}
	}}
	d := NewDirFS(rec, root)
	hs, datas := batch(0, 60)
	mustPutMany(t, d, hs, datas)
	live, liveData := hs[30:], datas[30:]
	if err := d.Sweep(keepSet(live)); err != nil {
		t.Fatal(err)
	}
	if rec.onCompact != nil {
		t.Fatal("the sweep never stood in a compaction's window")
	}
	c := NewDir(crashed)
	if u, err := c.Usage(); err != nil || u != (Usage{Packs: 2, Chunks: 60, Copies: 90}) {
		t.Fatalf("Usage of the crashed copy = %+v, %v", u, err)
	}
	mustGetAll(t, c, live, liveData)

	// Corrupt the copy a fresh Dir prefers of one survivor.
	c = NewDir(crashed)
	path, off, _, _ := locate(c, live[7])
	flipByte(t, path, off)
	if err := c.Sweep(keepSet(live)); err != nil {
		t.Fatal(err)
	}
	for _, c := range []*Dir{c, NewDir(crashed)} {
		mustGetAll(t, c, live, liveData)
	}
	// Only the corrupt copy may remain beside the 30 good ones: a pack
	// with one dead chunk in thirty is not worth rewriting.
	if u, err := c.Usage(); err != nil || u.Chunks != 30 || u.Copies > 31 {
		t.Fatalf("Usage after resolving duplicates = %+v, %v", u, err)
	}
	mustGetAll(t, NewDir(crashed), live, liveData)
}

// TestDirDurabilityOrder pins the order of the steps a crash must not
// find reversed, by recording every fsync through the file system: a
// pack is fsynced under its tmp name before the rename publishes it, the
// root is fsynced after, before PutMany returns — so Sync has nothing
// left to do — and a compaction's victims are still on disk when the
// root holding their replacement is fsynced, and unlinked only after.
func TestDirDurabilityOrder(t *testing.T) {
	root := filepath.Join(t.TempDir(), "chunks")
	rec := &recFS{root: root}
	fsyncs := func() (out []event) {
		for _, e := range rec.log {
			if e.op == "fsync" || e.op == "syncdir" {
				out = append(out, e)
			}
		}
		rec.log = nil
		return out
	}
	isTmp := func(e event) bool {
		_, ok := vfs.SplitTmp(filepath.Base(e.name))
		return e.op == "fsync" && ok
	}

	d := NewDirFS(rec, root)
	hs, datas := batch(0, 40)
	if err := d.PutMany(hs, datas); err != nil {
		t.Fatal(err)
	}
	if log := fsyncs(); len(log) != 2 || !isTmp(log[0]) || log[0].packs != 0 || log[1] != (event{"syncdir", root, 1}) {
		t.Fatalf("PutMany fsynced %v, want the tmp file before any pack is published, then the root with the pack published", log)
	}
	if err := d.Sync(); err != nil || len(fsyncs()) != 0 {
		t.Fatalf("Sync after a published write fsynced again: %v", err)
	}

	if err := d.Sweep(keepSet(hs[20:])); err != nil {
		t.Fatal(err)
	}
	i := slices.IndexFunc(rec.log, func(e event) bool { return e.op == "remove" })
	if i < 1 || rec.log[i-1] != (event{"syncdir", root, 2}) {
		t.Fatalf("compaction logged %v, want the victim unlinked right after the root fsync", rec.log)
	}
	if log := fsyncs(); len(log) != 2 || !isTmp(log[0]) || log[0].packs != 1 || log[1] != (event{"syncdir", root, 2}) {
		t.Fatalf("compaction fsynced %v, want the tmp file, then the root while the victim is still there", log)
	}
	if files := packFiles(t, d); len(files) != 1 {
		t.Fatalf("after compaction: %v", files)
	}
}

// TestDirSyncAfterFailedPublish: a publish that fails after its rename
// leaves a pack whose directory entry is not known to be durable, and
// which a later checkpoint may come to name; the Dir's next Sync fsyncs
// the root, once.
func TestDirSyncAfterFailedPublish(t *testing.T) {
	root := filepath.Join(t.TempDir(), "chunks")
	rec := &recFS{root: root, failSyncDir: true}
	d := NewDirFS(rec, root)
	hs, datas := batch(0, 40)
	if err := d.PutMany(hs, datas); err == nil {
		t.Fatal("PutMany succeeded over a failed directory fsync")
	}
	rec.failSyncDir, rec.log = false, nil
	if err := d.Sync(); err != nil || len(rec.log) != 1 || rec.log[0] != (event{"syncdir", root, 1}) {
		t.Fatalf("Sync after a failed publish = %v, logged %v", err, rec.log)
	}
	if err := d.Sync(); err != nil || len(rec.log) != 1 {
		t.Fatalf("a second Sync fsynced again: %v, %v", err, rec.log)
	}
}

// event is one mutation recFS saw: the call, the path it names and how
// many published packs the root held at the time.
type event struct {
	op, name string
	packs    int
}

// recFS is vfs.OS with every mutation logged. It runs onCompact when the
// disk stands in a compaction's window — a pack renamed into place, the
// root fsynced, and the first pack about to be removed — and fails every
// directory fsync while failSyncDir is set.
type recFS struct {
	root        string
	log         []event
	onCompact   func()
	failSyncDir bool
}

func (r *recFS) record(op, name string) {
	packs, _ := filepath.Glob(filepath.Join(r.root, "*"+packSuffix))
	n := len(r.log)
	if op == "remove" && strings.HasSuffix(name, packSuffix) && r.onCompact != nil &&
		n >= 2 && r.log[n-2].op == "rename" && r.log[n-1].op == "syncdir" && r.log[n-1].name == r.root {
		r.onCompact()
		r.onCompact = nil
	}
	r.log = append(r.log, event{op, name, len(packs)})
}

func (r *recFS) OpenFile(name string, flag int, perm os.FileMode) (vfs.File, error) {
	r.record("open", name)
	f, err := vfs.OS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &recFile{f, r, name}, nil
}

func (r *recFS) Rename(oldpath, newpath string) error {
	r.record("rename", newpath)
	return vfs.OS.Rename(oldpath, newpath)
}

func (r *recFS) SyncDir(dir string) error {
	r.record("syncdir", dir)
	if r.failSyncDir {
		return syscall.EIO
	}
	return vfs.OS.SyncDir(dir)
}

func (r *recFS) Remove(name string) error {
	r.record("remove", name)
	return vfs.OS.Remove(name)
}

func (r *recFS) Truncate(name string, size int64) error { return vfs.OS.Truncate(name, size) }
func (r *recFS) MkdirAll(path string, perm os.FileMode) error {
	return vfs.OS.MkdirAll(path, perm)
}

type recFile struct {
	vfs.File
	fs   *recFS
	name string
}

func (f *recFile) Sync() error {
	f.fs.record("fsync", f.name)
	return f.File.Sync()
}
