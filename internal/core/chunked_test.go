package core

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"mxq/internal/chunkstore"
	"mxq/internal/xenc"
)

// stateBytes dumps a store's physical state — the page maps, every
// column of every page in physical order, the NodeID-keyed tables with
// their attribute values (a free id is one whose pos is -1), the per-chunk
// free counts and the name pool — without going through the chunk codec:
// the canonical state comparison for chunked round trips.
func stateBytes(s *Store) []byte {
	var b bytes.Buffer
	fmt.Fprintln(&b, s.pageBits, s.logToPhys, s.physToLog, s.liveNodes, s.nodeLen, s.nodeFree)
	for _, pg := range s.pages {
		fmt.Fprintln(&b, pg.size, pg.level, pg.kind, pg.name, pg.node)
		fmt.Fprintf(&b, "%q\n", pg.text)
	}
	for id := xenc.NodeID(0); id < s.nodeLen; id++ {
		fmt.Fprint(&b, s.posOf(id), s.parentOf(id))
		for _, r := range s.attrRefs(id) {
			fmt.Fprintf(&b, " %d=%q", r.name, r.val)
		}
		fmt.Fprintln(&b)
	}
	fmt.Fprintf(&b, "%q\n", s.qn.NamesList())
	return b.Bytes()
}

// itemsDoc builds an n-item document with attributes and text so every
// chunk kind (pages, nodes, names) is exercised.
func itemsDoc(n int) string {
	var b strings.Builder
	b.WriteString("<items>")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, `<item id="i%d" cat="c%d">value %d</item>`, i, i%7, i)
	}
	b.WriteString("</items>")
	return b.String()
}

func mustSaveChunked(t *testing.T, s *Store, cs chunkstore.Store) (*ChunkManifest, ChunkSaveStats) {
	t.Helper()
	m, stats, err := s.SaveChunked(cs)
	if err != nil {
		t.Fatal(err)
	}
	return m, stats
}

func mustLoadChunked(t *testing.T, m *ChunkManifest, cs chunkstore.Store) *Store {
	t.Helper()
	s, err := LoadChunked(m, cs)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestChunkedRoundTrip(t *testing.T) {
	s := mustBuild(t, itemsDoc(200), Options{PageSize: 16, FillFactor: 0.75})
	// Free some node ids and add a late name.
	for i := 0; i < 5; i++ {
		if err := s.Delete(s.NthChild(s.Root(), 3)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.SetAttr(s.NthChild(s.Root(), 0), "extra", "late-value"); err != nil {
		t.Fatal(err)
	}
	want := stateBytes(s)

	cs := chunkstore.NewDir(t.TempDir())
	m, stats := mustSaveChunked(t, s, cs)
	if stats.ChunksWritten == 0 || stats.BytesWritten == 0 {
		t.Fatalf("first save wrote nothing: %+v", stats)
	}
	if stats.ChunksTotal != m.TotalChunks() {
		t.Fatalf("stats count %d chunks, manifest %d", stats.ChunksTotal, m.TotalChunks())
	}

	// The manifest must survive its wire form (JSON inside the image).
	wire, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	var back ChunkManifest
	if err := json.Unmarshal(wire, &back); err != nil {
		t.Fatal(err)
	}

	got := mustLoadChunked(t, &back, cs)
	if !bytes.Equal(stateBytes(got), want) {
		t.Fatal("chunked round trip diverged from the saved store")
	}

	// A loaded store arrives with hashes cached: re-saving it moves no
	// bytes at all.
	_, stats2 := mustSaveChunked(t, got, cs)
	if stats2.ChunksWritten != 0 {
		t.Fatalf("re-save of a just-loaded store wrote %d chunks", stats2.ChunksWritten)
	}
	if stats2.ChunksReused != stats2.ChunksTotal {
		t.Fatalf("re-save reused %d of %d chunks", stats2.ChunksReused, stats2.ChunksTotal)
	}
}

func TestChunkedIncrementalWritesOnlyChurn(t *testing.T) {
	s := mustBuild(t, itemsDoc(2000), Options{PageSize: 64, FillFactor: 0.8})
	cs := chunkstore.NewDir(t.TempDir())
	_, full := mustSaveChunked(t, s, cs)

	// One localized edit: a rename dirties one page chunk (and nothing
	// NodeID-keyed).
	if err := s.Rename(s.NthChild(s.Root(), 17), "renamed"); err != nil {
		t.Fatal(err)
	}
	m2, inc := mustSaveChunked(t, s, cs)
	if inc.ChunksWritten == 0 {
		t.Fatal("edit produced no chunk writes")
	}
	// The rename touches one page plus the name pool's tail group.
	if inc.ChunksWritten > 3 {
		t.Fatalf("1-node edit wrote %d chunks (full image is %d)", inc.ChunksWritten, full.ChunksTotal)
	}
	if inc.BytesWritten*10 > full.BytesWritten {
		t.Fatalf("incremental save wrote %d bytes, full image was %d — not even 10x smaller",
			inc.BytesWritten, full.BytesWritten)
	}
	got := mustLoadChunked(t, m2, cs)
	if !bytes.Equal(stateBytes(got), stateBytes(s)) {
		t.Fatal("incremental manifest did not reproduce the store")
	}
}

// TestChunkedLoadedStoreAllocatesLikeLive: which ids a store hands out
// is a function of node/pos alone, so a store loaded from an image taken
// mid-churn hands out exactly the ids the live store does — the property
// recovery's and a follower's WAL replay rely on, with nothing but the
// chunks persisted.
func TestChunkedLoadedStoreAllocatesLikeLive(t *testing.T) {
	live := mustBuild(t, itemsDoc(300), Options{PageSize: 16, FillFactor: 0.75})
	for len(freeIDs(live)) < 40 {
		if err := live.Delete(live.NthChild(live.Root(), 1)); err != nil {
			t.Fatal(err)
		}
	}
	// Reuse some of the freed ids, so the free ones sit in holes.
	for i := 0; i < 5; i++ {
		if _, err := live.AppendChild(live.NthChild(live.Root(), 2*i), mustFragment(t, "<early>e</early>")); err != nil {
			t.Fatal(err)
		}
	}
	cs := chunkstore.NewDir(t.TempDir())
	m, _ := mustSaveChunked(t, live, cs)
	loaded := mustLoadChunked(t, m, cs)

	for i := 0; i < 30; i++ {
		frag := fmt.Sprintf(`<late n="%d"><x/>text %d</late>`, i, i)
		var got [2][]xenc.NodeID
		for j, s := range []*Store{live, loaded} {
			ids, err := s.AppendChild(s.NthChild(s.Root(), i%7), mustFragment(t, frag))
			if err != nil {
				t.Fatal(err)
			}
			got[j] = ids
		}
		if !reflect.DeepEqual(got[0], got[1]) {
			t.Fatalf("insert %d: live store took ids %v, loaded store %v", i, got[0], got[1])
		}
	}
	if len(freeIDs(live)) != 0 {
		t.Fatalf("%d free ids left: the inserts never reached fresh ids", len(freeIDs(live)))
	}
	if !bytes.Equal(stateBytes(loaded), stateBytes(live)) {
		t.Fatal("the loaded store diverged from the live one under the same inserts")
	}
	if err := loaded.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestChunkedSharesChunksWithPinnedSnapshot: saving a snapshot must not
// be disturbed by base writes, and hashes cached through one side stay
// correct on the other.
func TestChunkedSnapshotIsolation(t *testing.T) {
	base := mustBuild(t, itemsDoc(400), Options{PageSize: 32, FillFactor: 0.8})
	snap := base.Snapshot()
	liveBefore := snap.LiveNodes()

	// Base churns after the pin.
	for i := 0; i < 50; i++ {
		if _, err := base.AppendChild(base.Root(), mustFragment(t, fmt.Sprintf("<late n=\"%d\"/>", i))); err != nil {
			t.Fatal(err)
		}
	}

	cs := chunkstore.NewDir(t.TempDir())
	m, _ := mustSaveChunked(t, snap, cs)
	got := mustLoadChunked(t, m, cs)
	// The snapshot's tree is frozen (COW pages); only the shared
	// append-only name pool may have grown, and both sides of the
	// comparison see the same grown pool.
	if got.LiveNodes() != liveBefore {
		t.Fatalf("snapshot image has %d live nodes, pinned at %d", got.LiveNodes(), liveBefore)
	}
	if !bytes.Equal(stateBytes(got), stateBytes(snap)) {
		t.Fatal("snapshot image saw base writes")
	}

	// The base's own save now reuses every chunk it still shares with
	// the snapshot image.
	_, stats := mustSaveChunked(t, base, cs)
	if stats.ChunksReused == 0 {
		t.Fatal("base save reused nothing despite sharing most chunks with the snapshot")
	}
	got2, err := LoadChunked(mustSaveChunkedManifest(t, base, cs), cs)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(stateBytes(got2), stateBytes(base)) {
		t.Fatal("base image diverged")
	}
}

func mustSaveChunkedManifest(t *testing.T, s *Store, cs chunkstore.Store) *ChunkManifest {
	t.Helper()
	m, _, err := s.SaveChunked(cs)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestChunkedBuildManifestResolver: the replication path computes the
// manifest in memory and serves chunk bytes on demand; every referenced
// chunk must resolve and verify, and a store fed from the resolver must
// equal the source.
func TestChunkedBuildManifestResolver(t *testing.T) {
	s := mustBuild(t, itemsDoc(250), Options{PageSize: 16, FillFactor: 0.75})
	m, resolve := s.BuildManifest()
	hs, err := m.ChunkHashes()
	if err != nil {
		t.Fatal(err)
	}
	dst := chunkstore.NewDir(t.TempDir())
	for _, h := range hs {
		data, ok := resolve(h)
		if !ok {
			t.Fatalf("resolver missing chunk %s", h)
		}
		if chunkstore.Sum(data) != h {
			t.Fatalf("resolver served bytes not matching %s", h)
		}
		if err := dst.Put(h, data); err != nil {
			t.Fatal(err)
		}
	}
	if _, ok := resolve(chunkstore.Sum([]byte("alien"))); ok {
		t.Fatal("resolver invented an alien chunk")
	}
	got := mustLoadChunked(t, m, dst)
	if !bytes.Equal(stateBytes(got), stateBytes(s)) {
		t.Fatal("resolver-fed store diverged")
	}
}

func TestChunkedLoadRejectsCorruption(t *testing.T) {
	s := mustBuild(t, itemsDoc(60), Options{PageSize: 16, FillFactor: 0.75})
	cs := chunkstore.NewDir(t.TempDir())
	m, _ := mustSaveChunked(t, s, cs)

	mutate := func(fn func(c ChunkManifest) ChunkManifest) error {
		c := *m
		c = fn(c)
		_, err := LoadChunked(&c, cs)
		return err
	}
	cases := map[string]func(c ChunkManifest) ChunkManifest{
		"bad page bits":  func(c ChunkManifest) ChunkManifest { c.PageBits = 40; return c },
		"zero page bits": func(c ChunkManifest) ChunkManifest { c.PageBits = 0; return c },
		"truncated logToPhys": func(c ChunkManifest) ChunkManifest {
			c.LogToPhys = nil
			return c
		},
		"out-of-range logToPhys": func(c ChunkManifest) ChunkManifest {
			c.LogToPhys = append([]int32(nil), c.LogToPhys...)
			c.LogToPhys[0] = 99
			return c
		},
		"broken bijection": func(c ChunkManifest) ChunkManifest {
			c.PhysToLog = append([]int32(nil), c.PhysToLog...)
			c.PhysToLog[0]++
			return c
		},
		"wrong live count": func(c ChunkManifest) ChunkManifest { c.LiveNodes++; return c },
		"missing chunk": func(c ChunkManifest) ChunkManifest {
			c.Pages = append([]string(nil), c.Pages...)
			c.Pages[0] = chunkstore.Sum([]byte("gone")).String()
			return c
		},
		"bad hash": func(c ChunkManifest) ChunkManifest {
			c.Pages = append([]string(nil), c.Pages...)
			c.Pages[0] = "zz"
			return c
		},
		"node count": func(c ChunkManifest) ChunkManifest { c.NodeLen += 1000; return c },
		"kind confusion": func(c ChunkManifest) ChunkManifest {
			c.Pages = append([]string(nil), c.Pages...)
			c.Pages[0] = c.Nodes[0]
			return c
		},
	}
	for name, fn := range cases {
		if err := mutate(fn); err == nil {
			t.Errorf("%s: LoadChunked succeeded on corrupt manifest", name)
		}
	}
	// A page chunk gone from the store: the load fails loudly.
	dir := chunkstore.NewDir(filepath.Join(t.TempDir(), "chunks"))
	m2, _ := mustSaveChunked(t, s, dir)
	h, err := chunkstore.ParseHash(m2.Pages[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := dir.Sweep(func(held chunkstore.Hash) bool { return held != h }); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadChunked(m2, dir); err == nil {
		t.Fatal("LoadChunked succeeded with a missing page chunk")
	}
}

// TestChunkedDeterministicAcrossStores: two independently built stores
// with identical content produce identical manifests — the property
// that makes primary/follower chunk dedupe work.
func TestChunkedDeterministic(t *testing.T) {
	doc := itemsDoc(150)
	a := mustBuild(t, doc, Options{PageSize: 16, FillFactor: 0.75})
	b := mustBuild(t, doc, Options{PageSize: 16, FillFactor: 0.75})
	ma, _ := a.BuildManifest()
	mb, _ := b.BuildManifest()
	ja, _ := json.Marshal(ma)
	jb, _ := json.Marshal(mb)
	if !bytes.Equal(ja, jb) {
		t.Fatal("identical stores produced different manifests")
	}
}

// putCounter wraps only Put, the way bench/'s timedStore and ckpt's
// throttling hook do: embedding the interface hides any PutMany of the
// store underneath.
type putCounter struct {
	chunkstore.Store
	puts int
}

func (c *putCounter) Put(h chunkstore.Hash, data []byte) error {
	c.puts++
	return c.Store.Put(h, data)
}

// batchCounter offers PutMany next to Put.
type batchCounter struct {
	putCounter
	batches, batched int
}

func (c *batchCounter) PutMany(hs []chunkstore.Hash, datas [][]byte) error {
	c.batches++
	c.batched += len(hs)
	return c.Store.(chunkstore.BatchPutter).PutMany(hs, datas)
}

// TestChunkedSaveWritePaths: a store that only wraps Put sees exactly
// one Put per missing chunk, a store offering PutMany gets the missing
// chunks as one batch and no Put — and both leave the same image.
func TestChunkedSaveWritePaths(t *testing.T) {
	s := mustBuild(t, itemsDoc(400), Options{PageSize: 16, FillFactor: 0.75})
	plain := &putCounter{Store: chunkstore.NewDir(filepath.Join(t.TempDir(), "plain"))}
	batch := &batchCounter{putCounter: putCounter{Store: chunkstore.NewDir(filepath.Join(t.TempDir(), "batch"))}}

	m1, st1 := mustSaveChunked(t, s, plain)
	m2, st2 := mustSaveChunked(t, s, batch)
	if plain.puts != st1.ChunksWritten || st1.ChunksWritten == 0 {
		t.Fatalf("Put-wrapping store saw %d Puts for %d missing chunks", plain.puts, st1.ChunksWritten)
	}
	if batch.puts != 0 || batch.batches != 1 || batch.batched != st2.ChunksWritten {
		t.Fatalf("batch store saw %d Puts and %d batches of %d chunks in total for %d missing chunks",
			batch.puts, batch.batches, batch.batched, st2.ChunksWritten)
	}
	if st1 != st2 {
		t.Fatalf("write paths disagree on what was saved: %+v vs %+v", st1, st2)
	}
	if !bytes.Equal(stateBytes(mustLoadChunked(t, m1, plain)), stateBytes(mustLoadChunked(t, m2, batch))) {
		t.Fatal("write paths left different images")
	}

	// Churn, then save again: only the dirtied chunks travel, on either path.
	if err := s.Rename(s.NthChild(s.Root(), 17), "renamed"); err != nil {
		t.Fatal(err)
	}
	plain.puts, batch.batches, batch.batched = 0, 0, 0
	_, st1 = mustSaveChunked(t, s, plain)
	_, st2 = mustSaveChunked(t, s, batch)
	if plain.puts != st1.ChunksWritten || batch.batched != st2.ChunksWritten || st1 != st2 || st1.ChunksWritten > 3 {
		t.Fatalf("incremental save: %d Puts / %d batched, stats %+v vs %+v", plain.puts, batch.batched, st1, st2)
	}
}

// packedAt finds chunk h in the packs under root by reading their indexes
// — magic, count, then per chunk its hash, stored and raw length, as
// internal/chunkstore's pack format has it — and returns the pack and the
// range of the chunk's stored bytes.
func packedAt(t *testing.T, root string, h chunkstore.Hash) (path string, off, n int64, ok bool) {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(root, "*.pack"))
	if err != nil {
		t.Fatal(err)
	}
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
			if chunkstore.Hash(e[:32]) == h {
				return path, off, n, true
			}
			off += n
		}
	}
	return "", 0, 0, false
}

// TestChunkedParallelSaveLoad: saving and loading fan out over the cores
// (run under -race) and are still the same save and load. A store with
// many chunks of every kind loads from a Dir (pread, inflate, verify) and
// from a Mem to the same state, with every hash cached; a chunk missing
// or corrupt in the middle of the page list — among other failures after
// it — is the one the error names, every time; and a snapshot's manifest
// is the same however often, and from however many goroutines at once,
// it is collected.
func TestChunkedParallelSaveLoad(t *testing.T) {
	s := mustBuild(t, itemsDoc(1500), Options{PageSize: 16, FillFactor: 0.75})
	for i := 0; i < 40; i++ { // free ids in many node chunks
		if err := s.Delete(s.NthChild(s.Root(), 3)); err != nil {
			t.Fatal(err)
		}
	}
	want := stateBytes(s)
	snap := s.Snapshot()

	// Concurrent collection over one snapshot, no hash cached yet: every
	// collector encodes and hashes, all agree.
	// perPut hides Dir's PutMany, so its saves take PutAll's one-Put-per-chunk
	// fallback (the shape of a store that wraps another's Put).
	dir := chunkstore.NewDir(filepath.Join(t.TempDir(), "chunks"))
	perPut := struct{ chunkstore.Store }{chunkstore.NewDir(filepath.Join(t.TempDir(), "perput"))}
	var wg sync.WaitGroup
	mans := make([]*ChunkManifest, 4)
	for i := range mans {
		wg.Add(1)
		go func() {
			defer wg.Done()
			switch i {
			case 0:
				mans[i], _, _ = snap.SaveChunked(dir)
			case 1:
				mans[i], _, _ = snap.SaveChunked(perPut)
			default:
				mans[i], _ = snap.BuildManifest()
			}
		}()
	}
	wg.Wait()
	again, _ := snap.collectChunks() // every hash cached by now
	for i, m := range append(mans, again) {
		if !reflect.DeepEqual(m, mans[0]) || m == nil {
			t.Fatalf("collection %d of one snapshot differs from the first", i)
		}
	}
	m := mans[0]
	if len(m.Pages) < 100 || len(m.Nodes) < 100 {
		t.Fatalf("%d page and %d node chunks: too few to fan out", len(m.Pages), len(m.Nodes))
	}

	for name, cs := range map[string]chunkstore.Store{"dir": chunkstore.NewDir(dir.Root()), "per-put": perPut} {
		got := mustLoadChunked(t, m, cs)
		if !bytes.Equal(stateBytes(got), want) {
			t.Fatalf("%s: loaded store diverged from the saved one", name)
		}
		if _, stats := mustSaveChunked(t, got, cs); stats.ChunksWritten != 0 {
			t.Fatalf("%s: re-save of a just-loaded store wrote %d chunks", name, stats.ChunksWritten)
		}
	}

	// One page chunk gone, one corrupt on disk after it, a third — later
	// still — decoding as the wrong kind: the first in list order is named.
	mid := len(m.Pages) / 2
	gone, err := chunkstore.ParseHash(m.Pages[mid])
	if err != nil {
		t.Fatal(err)
	}
	torn, err := chunkstore.ParseHash(m.Pages[mid+3])
	if err != nil {
		t.Fatal(err)
	}
	broken := *m
	broken.Pages = append([]string(nil), m.Pages...)
	broken.Pages[mid+7] = m.Nodes[0]
	path, off, n, ok := packedAt(t, dir.Root(), torn)
	if !ok {
		t.Fatal("page chunk not in the store")
	}
	pack, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	pack[off+n/2] ^= 0xff
	if err := os.WriteFile(path, pack, 0o644); err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 20; round++ {
		_, err := LoadChunked(&broken, chunkstore.NewDir(dir.Root()))
		if err == nil || !strings.Contains(err.Error(), torn.String()) || !errors.Is(err, chunkstore.ErrMissing) {
			t.Fatalf("round %d: LoadChunked = %v, want chunk %s reported missing", round, err, torn)
		}
	}
	// (A swept chunk is gone for the Dir that swept it; its bytes stay in
	// the pack until that is rewritten.)
	if err := dir.Sweep(func(h chunkstore.Hash) bool { return h != gone }); err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 20; round++ {
		_, err := LoadChunked(&broken, dir)
		if err == nil || !strings.Contains(err.Error(), gone.String()) || !errors.Is(err, chunkstore.ErrMissing) {
			t.Fatalf("round %d: LoadChunked = %v, want chunk %s reported missing", round, err, gone)
		}
	}
}

// TestLoadChunkedRefusesUnknownNameIDs: a page chunk naming a QName id
// past the name pool, or a node chunk whose attribute does, hashes
// correctly — a chunk's name proves only that its bytes are the ones
// named — so the load itself must refuse it, naming the tuple, rather
// than hand out a store whose first read of that node panics.
func TestLoadChunkedRefusesUnknownNameIDs(t *testing.T) {
	s := mustBuild(t, `<r k="v"><a/>text</r>`, Options{PageSize: 8})
	cs := chunkstore.NewDir(t.TempDir())
	m, _ := mustSaveChunked(t, s, cs)
	put := func(data []byte) string {
		h := chunkstore.Sum(data)
		if err := cs.Put(h, data); err != nil {
			t.Fatal(err)
		}
		return h.String()
	}
	chunk := func(list []string, i int) []byte {
		h, err := chunkstore.ParseHash(list[i])
		if err != nil {
			t.Fatal(err)
		}
		data, err := cs.Get(h)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}

	pageBad := *m
	p, err := decodePageChunk(chunk(m.Pages, 0), 8)
	if err != nil {
		t.Fatal(err)
	}
	p.name[0] = 999 // the root element
	pageBad.Pages = append([]string{put(encodePageChunk(p))}, m.Pages[1:]...)

	nodeBad := *m
	c, err := decodeNodeChunk(chunk(m.Nodes, 0), 8)
	if err != nil {
		t.Fatal(err)
	}
	c.attrs[0] = append([]attrRef(nil), c.attrs[0]...) // the root's k="v"
	c.attrs[0][0].name = 999
	nodeBad.Nodes = append([]string{put(encodeNodeChunk(c))}, m.Nodes[1:]...)

	for name, bad := range map[string]*ChunkManifest{"tuple name": &pageBad, "attribute name": &nodeBad} {
		got, err := LoadChunked(bad, cs)
		if err == nil {
			t.Fatalf("%s: LoadChunked accepted name id 999 (pool of %d); Names().Name on it would panic", name, got.Names().Len())
		}
		if !strings.Contains(err.Error(), "pre 0 has name id 999") {
			t.Fatalf("%s: error does not name the tuple: %v", name, err)
		}
	}
}

// TestChunkedAttributeValuesRoundTrip: values stored inline survive a
// save and load whatever they hold — empty, shared by many nodes, not
// ASCII — beside node chunks that hold no attribute at all, and a value
// shared before the round trip is not shared storage after it: setting
// one node's leaves the others alone.
func TestChunkedAttributeValuesRoundTrip(t *testing.T) {
	doc := `<r><e a="" b="shared"/><e a="shared"/><e a="shared" b=""/><e a="ünï ☃ 𝄞"/>` +
		strings.Repeat("<f/>", 20) + `<e a="shared"/></r>`
	s := mustBuild(t, doc, Options{PageSize: 8})
	bare := 0
	for _, c := range s.nodes {
		n := 0
		for _, refs := range c.attrs {
			n += len(refs)
		}
		if n == 0 {
			bare++
		}
	}
	if bare == 0 {
		t.Fatal("every node chunk holds attributes: the bare case is not tested")
	}
	cs := chunkstore.NewDir(t.TempDir())
	m, _ := mustSaveChunked(t, s, cs)
	got := mustLoadChunked(t, m, cs)
	if !bytes.Equal(stateBytes(got), stateBytes(s)) {
		t.Fatal("attribute values diverged across the round trip")
	}
	if x, want := snapshotXML(t, got), snapshotXML(t, s); x != want {
		t.Fatalf("loaded document\n%s\nwant\n%s", x, want)
	}

	a, _ := got.Names().Lookup("a")
	second := got.NthChild(got.Root(), 1)
	if err := got.SetAttr(second, "a", "changed"); err != nil {
		t.Fatal(err)
	}
	var vals []string
	for k := 0; k < 4; k++ {
		v, _ := got.AttrValue(got.NthChild(got.Root(), k), a)
		vals = append(vals, v)
	}
	if want := []string{"", "changed", "shared", "ünï ☃ 𝄞"}; !reflect.DeepEqual(vals, want) {
		t.Fatalf("values after SetAttr on the second element: %q, want %q", vals, want)
	}
	if last, _ := got.AttrValue(got.NthChild(got.Root(), 24), a); last != "shared" {
		t.Fatalf("the last element's value is %q after SetAttr on the second, want \"shared\"", last)
	}
}

// TestLoadChunkedRefusesInconsistentTree: every chunk of these manifests
// decodes on its own, but the tree they hold together is one no store
// holds, and the pass that derives size, parent and node/pos refuses it.
func TestLoadChunkedRefusesInconsistentTree(t *testing.T) {
	// Full pages of <item> (level 1) and its text (level 2); the sixth
	// item is deleted, so ids 11 and 12 are free and its tuples unused.
	s := mustBuild(t, itemsDoc(12), Options{PageSize: 8, FillFactor: 1})
	if err := s.Delete(s.NthChild(s.Root(), 5)); err != nil {
		t.Fatal(err)
	}
	cs := chunkstore.NewDir(t.TempDir())
	m, _ := mustSaveChunked(t, s, cs)
	if got := mustLoadChunked(t, m, cs); !bytes.Equal(stateBytes(got), stateBytes(s)) {
		t.Fatal("the unbroken manifest does not round-trip")
	}
	// with returns m with the chunk at list[i] decoded, changed by fn and
	// put back under its new name.
	with := func(list func(*ChunkManifest) *[]string, i int, fn func(p *page, c *nodeChunk)) *ChunkManifest {
		bad := *m
		names := list(&bad)
		*names = append([]string(nil), *names...)
		h, err := chunkstore.ParseHash((*names)[i])
		if err != nil {
			t.Fatal(err)
		}
		data, err := cs.Get(h)
		if err != nil {
			t.Fatal(err)
		}
		if data[0] == chunkKindPage {
			p, err := decodePageChunk(data, 8)
			if err != nil {
				t.Fatal(err)
			}
			fn(p, nil)
			data = encodePageChunk(p)
		} else {
			c, err := decodeNodeChunk(data, 8)
			if err != nil {
				t.Fatal(err)
			}
			fn(nil, c)
			data = encodeNodeChunk(c)
		}
		h = chunkstore.Sum(data)
		if err := cs.Put(h, data); err != nil {
			t.Fatal(err)
		}
		(*names)[i] = h.String()
		return &bad
	}
	// A pool naming "item" twice would shift every later name id.
	twice := *m
	dict := encodeDictChunk(append([]string{"item"}, s.qn.NamesList()...))
	if err := cs.Put(chunkstore.Sum(dict), dict); err != nil {
		t.Fatal(err)
	}
	twice.Names = []string{chunkstore.Sum(dict).String()}
	pages := func(m *ChunkManifest) *[]string { return &m.Pages }
	nodes := func(m *ChunkManifest) *[]string { return &m.Nodes }
	// Logical page 1 opens with the text of item 3 (level 2) after item
	// 3 itself (level 1) closed page 0; it holds item 4 at slot 1 and the
	// deleted item's unused tuples at slots 3 and 4.
	second := int(m.LogToPhys[1])
	for _, tc := range []struct {
		name, want string
		bad        *ChunkManifest
	}{
		{"level jump at a page boundary", "level jump at pre 8: 3 after 1",
			with(pages, second, func(p *page, _ *nodeChunk) { p.level[0] = 3 })},
		{"node id held by two tuples", "node id 1 is held at pre",
			with(pages, second, func(p *page, _ *nodeChunk) { p.node[1] = 1 })},
		{"id at nodeLen", fmt.Sprintf("node id %d outside [0,%d)", m.NodeLen, m.NodeLen),
			with(pages, second, func(p *page, _ *nodeChunk) { p.node[1] = m.NodeLen })},
		{"attribute refs on a free id", "attributes owned by free node id 11",
			with(nodes, 1, func(_ *page, c *nodeChunk) { c.attrs[11-8] = []attrRef{{name: 0, val: "v"}} })},
		{"tuple name outside the pool", "tuple at pre 9 has name id 999 outside the name pool",
			with(pages, second, func(p *page, _ *nodeChunk) { p.name[1] = 999 })},
		{"unused tuple holding an id", "unused tuple at pre 11 has node id 11",
			with(pages, second, func(p *page, _ *nodeChunk) { p.node[3] = 11 })},
		{"a name twice in the pool", `name "item" is in the pool twice`, &twice},
	} {
		got, err := LoadChunked(tc.bad, cs)
		if err == nil {
			t.Errorf("%s: LoadChunked accepted it:\n%s", tc.name, snapshotXML(t, got))
		} else if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: LoadChunked = %v, want %q", tc.name, err, tc.want)
		}
	}
}

// memChunks is a chunk store in a map.
type memChunks map[chunkstore.Hash][]byte

func (m memChunks) Put(h chunkstore.Hash, data []byte) error { m[h] = data; return nil }
func (m memChunks) Sweep(func(chunkstore.Hash) bool) error   { return nil }
func (m memChunks) Sync() error                              { return nil }

func (m memChunks) Get(h chunkstore.Hash) ([]byte, error) {
	if data, ok := m[h]; ok {
		return data, nil
	}
	return nil, fmt.Errorf("chunk %s: %w", h, chunkstore.ErrMissing)
}

func (m memChunks) HasMany(hs []chunkstore.Hash) ([]bool, error) {
	out := make([]bool, len(hs))
	for i, h := range hs {
		_, out[i] = m[h]
	}
	return out, nil
}

// FuzzLoadChunked replaces one chunk of a small churned store's manifest
// with other bytes. LoadChunked either refuses the manifest or returns a
// store whose invariants hold and that, encoded afresh, names the same
// chunks: a load accepts only what a store could have saved.
func FuzzLoadChunked(f *testing.F) {
	s := churnedItems(f)
	base := memChunks{}
	m, _, err := s.SaveChunked(base)
	if err != nil {
		f.Fatal(err)
	}
	lists := func(m *ChunkManifest) []*[]string { return []*[]string{&m.Pages, &m.Nodes, &m.Names} }
	i := 0
	for _, list := range lists(m) {
		for _, name := range *list {
			h, _ := chunkstore.ParseHash(name)
			f.Add(uint16(i), base[h])
			i++
		}
	}
	f.Fuzz(func(t *testing.T, which uint16, data []byte) {
		bad, at := *m, int(which)%m.TotalChunks()
		for _, list := range lists(&bad) {
			if *list = append([]string(nil), *list...); 0 <= at && at < len(*list) {
				(*list)[at] = chunkstore.Sum(data).String()
			}
			at -= len(*list)
		}
		cs := memChunks{chunkstore.Sum(data): data}
		for h, d := range base {
			cs[h] = d
		}
		got, err := LoadChunked(&bad, cs)
		if err != nil {
			return
		}
		if err := got.CheckInvariants(); err != nil {
			t.Fatalf("a loaded store fails its invariants: %v", err)
		}
		for _, p := range got.pages {
			p.hash.invalidate()
		}
		for _, c := range got.nodes {
			c.hash.invalidate()
		}
		again, _, err := got.SaveChunked(memChunks{})
		if err != nil {
			t.Fatal(err)
		}
		for k, list := range lists(again) {
			if want := *lists(&bad)[k]; !reflect.DeepEqual(*list, want) {
				t.Fatalf("a loaded store encodes to other chunks (list %d):\n got  %v\n want %v", k, *list, want)
			}
		}
	})
}
