package ckpt

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mxq/internal/chunkstore"
	"mxq/internal/core"
	"mxq/internal/serialize"
	"mxq/internal/shred"
	"mxq/internal/tx"
	"mxq/internal/vfs"
	"mxq/internal/wal"
	"mxq/internal/xenc"
	"mxq/internal/xpath"
)

const docXML = `<lib><shelf id="s1"><book>A</book><book>B</book></shelf><shelf id="s2"><book>C</book></shelf></lib>`

func buildStore(t testing.TB, xml string, ps int) *core.Store {
	t.Helper()
	tr, err := shred.Parse(strings.NewReader(xml), shred.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s, err := core.Build(tr, core.Options{PageSize: ps, FillFactor: 0.75})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// env is one document's durability world: store, manager, wal,
// checkpointer.
type env struct {
	dir string
	log *wal.Log
	s   *core.Store
	m   *tx.Manager
	ck  *Checkpointer
}

func newEnv(t testing.TB, segBytes int64) *env {
	t.Helper()
	dir := t.TempDir()
	log, err := wal.Open(filepath.Join(dir, "d.wal"), wal.Options{NoSync: true, SegmentBytes: segBytes})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { log.Close() })
	s := buildStore(t, docXML, 16)
	m := tx.NewManager(s, log)
	ck := New(vfs.OS, dir, "d", log, m.PinCheckpoint, DefaultChunkStore(dir, "d"), nil)
	return &env{dir: dir, log: log, s: s, m: m, ck: ck}
}

func (e *env) commitBook(t testing.TB, shelf, name string) {
	t.Helper()
	txn := e.m.Begin()
	ns, err := xpath.MustParse(`//shelf[@id="` + shelf + `"]`).Select(txn)
	if err != nil || len(ns) == 0 {
		t.Fatalf("select shelf %s: %v", shelf, err)
	}
	fr, err := shred.ParseFragment(`<book>`+name+`</book>`, shred.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := txn.Apply(wal.Op{Kind: wal.OpAppendChild, Target: txn.NodeOf(ns[0].Pre), Frag: fr}); err != nil {
		t.Fatal(err)
	}
	if err := txn.Commit(); err != nil {
		t.Fatal(err)
	}
}

func viewXML(t testing.TB, v xenc.DocView) string {
	t.Helper()
	var b bytes.Buffer
	if err := serialize.Document(&b, v, serialize.Options{}); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

func (e *env) baseXML(t testing.TB) string {
	t.Helper()
	rv := e.m.AcquireRead()
	defer rv.Close()
	return viewXML(t, rv.View())
}

// recover reopens the WAL from disk (as a restart would) and runs
// Recover against it.
func (e *env) recover(t testing.TB) (*core.Store, uint64) {
	t.Helper()
	log, err := wal.Open(filepath.Join(e.dir, "d.wal"), wal.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer log.Close()
	store, lsn, err := Recover(e.dir, "d", log, nil)
	if err != nil {
		t.Fatal(err)
	}
	return store, lsn
}

func TestCheckpointAndRecover(t *testing.T) {
	e := newEnv(t, wal.DefaultSegmentBytes)
	e.commitBook(t, "s1", "pre")
	lsn, err := e.ck.Run()
	if err != nil {
		t.Fatal(err)
	}
	if lsn != 1 {
		t.Fatalf("checkpoint lsn = %d, want 1", lsn)
	}
	e.commitBook(t, "s2", "post")
	want := e.baseXML(t)

	store, recLSN := e.recover(t)
	if recLSN != 2 {
		t.Fatalf("recovered lsn = %d, want 2", recLSN)
	}
	if got := viewXML(t, store); got != want {
		t.Fatalf("recovered state differs:\nwant %s\ngot  %s", want, got)
	}
}

func TestRecoverNoCheckpoint(t *testing.T) {
	dir := t.TempDir()
	if _, _, err := Recover(dir, "nope", nil, nil); !errors.Is(err, ErrNoCheckpoint) {
		t.Fatalf("err = %v, want ErrNoCheckpoint", err)
	}
}

// slowStore stretches the checkpoint streaming phase so the test can
// prove commits overlap it: every chunk Put pauses before landing.
type slowStore struct {
	chunkstore.Store
	delay time.Duration
	puts  atomic.Int64
	onPut func()
}

func (ss *slowStore) Put(h chunkstore.Hash, data []byte) error {
	if ss.onPut != nil {
		ss.onPut()
	}
	time.Sleep(ss.delay)
	ss.puts.Add(1)
	return ss.Store.Put(h, data)
}

// TestOnlineCheckpointNonBlocking is the acceptance test for the
// subsystem: while a checkpoint of the document streams (artificially
// slowly), commits must keep landing with individual latencies far below
// the streaming duration — the global lock is NOT held during Save —
// and recovery after the checkpoint must replay exactly the commits
// that landed after the pin.
func TestOnlineCheckpointNonBlocking(t *testing.T) {
	e := newEnv(t, wal.DefaultSegmentBytes)
	e.commitBook(t, "s1", "seed")

	// The small test document yields only a handful of chunks; a per-Put
	// pause keeps the streaming window wide enough to observe overlap.
	const delay = 25 * time.Millisecond
	e.ck = New(vfs.OS, e.dir, "d", e.log, e.m.PinCheckpoint, &slowStore{Store: DefaultChunkStore(e.dir, "d"), delay: delay}, nil)

	stop := make(chan struct{})
	var (
		wg         sync.WaitGroup
		maxLatency atomic.Int64
		commits    atomic.Int64
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			start := time.Now()
			e.commitBook(t, "s2", fmt.Sprintf("during-%d", i))
			lat := time.Since(start)
			for {
				cur := maxLatency.Load()
				if int64(lat) <= cur || maxLatency.CompareAndSwap(cur, int64(lat)) {
					break
				}
			}
			commits.Add(1)
		}
	}()

	ckStart := time.Now()
	lsn, err := e.ck.Run()
	ckDur := time.Since(ckStart)
	close(stop)
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if ckDur < 50*time.Millisecond {
		t.Fatalf("throttled checkpoint finished in %v; streaming window too small to prove anything", ckDur)
	}
	if n := commits.Load(); n < 5 {
		t.Fatalf("only %d commits landed during a %v checkpoint — commits stalled", n, ckDur)
	}
	// A commit that had to wait for the streaming phase would take on the
	// order of ckDur; one that only shares the pin takes microseconds. The
	// generous bound keeps CI nondeterminism out.
	if lat := time.Duration(maxLatency.Load()); lat > ckDur/2 {
		t.Fatalf("max commit latency %v during a %v checkpoint — commit stalled behind Save", lat, ckDur)
	}
	t.Logf("checkpoint %v, %d commits during it, max commit latency %v",
		ckDur, commits.Load(), time.Duration(maxLatency.Load()))

	// Recovery = pinned image + exactly the post-pin commits.
	want := e.baseXML(t)
	store, recLSN := e.recover(t)
	if got := viewXML(t, store); got != want {
		t.Fatalf("recovered state differs after online checkpoint:\nwant %s\ngot  %s", want, got)
	}
	if recLSN < lsn {
		t.Fatalf("recovered lsn %d below checkpoint pin %d", recLSN, lsn)
	}
	if err := store.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestCommitsDuringCheckpointSurvivePrune: records landing while the
// checkpoint streams are above the pin LSN and must survive the
// post-publish prune.
func TestCommitsDuringCheckpointSurvivePrune(t *testing.T) {
	e := newEnv(t, 128) // rotate aggressively
	for i := 0; i < 10; i++ {
		e.commitBook(t, "s1", fmt.Sprintf("pre-%d", i))
	}
	if _, err := e.ck.Run(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		e.commitBook(t, "s2", fmt.Sprintf("post-%d", i))
	}
	want := e.baseXML(t)
	store, recLSN := e.recover(t)
	if recLSN != 20 {
		t.Fatalf("recovered lsn = %d, want 20", recLSN)
	}
	if got := viewXML(t, store); got != want {
		t.Fatalf("post-checkpoint commits lost:\nwant %s\ngot  %s", want, got)
	}
}

// TestTornArtifacts drives every torn-artifact scenario the satellite
// names: recovery must degrade to an older checkpoint — never error,
// never silently lose a committed record the artifacts still cover.
func TestTornArtifacts(t *testing.T) {
	// setup: two checkpoints with commits before, between and after, so
	// both a current and a previous image exist. The segment bound holds
	// four one-book records, so the live log keeps three sealed-or-active
	// segments and the gap subtest has one the previous image needs.
	setup := func(t *testing.T) (*env, string) {
		e := newEnv(t, 128)
		for i := 0; i < 6; i++ {
			e.commitBook(t, "s1", fmt.Sprintf("a%d", i))
		}
		if _, err := e.ck.Run(); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 6; i++ {
			e.commitBook(t, "s2", fmt.Sprintf("b%d", i))
		}
		if _, err := e.ck.Run(); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 3; i++ {
			e.commitBook(t, "s1", fmt.Sprintf("c%d", i))
		}
		return e, e.baseXML(t)
	}

	newest := func(t *testing.T, e *env) Image {
		t.Helper()
		imgs, err := Images(e.dir, "d")
		if err != nil || len(imgs) == 0 {
			t.Fatalf("no image on disk: %v", err)
		}
		return imgs[0]
	}
	currentImage := func(t *testing.T, e *env) string {
		t.Helper()
		return filepath.Join(e.dir, newest(t, e).File)
	}

	t.Run("LeftoverTmpFilesIgnored", func(t *testing.T) {
		e, want := setup(t)
		for _, junk := range []string{"d-00000000000000ff.ckpt.tmp", "d.wal.tmp"} {
			if err := os.WriteFile(filepath.Join(e.dir, junk), []byte("torn garbage"), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		store, _ := e.recover(t)
		if got := viewXML(t, store); got != want {
			t.Fatalf("tmp leftovers corrupted recovery:\nwant %s\ngot  %s", want, got)
		}
		// The next checkpoint sweeps the leftovers.
		if _, err := e.ck.Run(); err != nil {
			t.Fatal(err)
		}
		if _, err := os.Stat(filepath.Join(e.dir, "d-00000000000000ff.ckpt.tmp")); !os.IsNotExist(err) {
			t.Fatal("stale .ckpt.tmp survived the next checkpoint")
		}
	})

	t.Run("NewestImageMissing", func(t *testing.T) {
		e, want := setup(t)
		if err := os.Remove(currentImage(t, e)); err != nil {
			t.Fatal(err)
		}
		store, _ := e.recover(t)
		if got := viewXML(t, store); got != want {
			t.Fatalf("degrade to previous checkpoint lost state:\nwant %s\ngot  %s", want, got)
		}
	})

	t.Run("TornCurrentImage", func(t *testing.T) {
		e, want := setup(t)
		img := currentImage(t, e)
		fi, err := os.Stat(img)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.Truncate(img, fi.Size()/2); err != nil {
			t.Fatal(err)
		}
		store, _ := e.recover(t)
		if got := viewXML(t, store); got != want {
			t.Fatalf("degrade over torn image lost state:\nwant %s\ngot  %s", want, got)
		}
	})

	t.Run("EmptySegmentTail", func(t *testing.T) {
		e, want := setup(t)
		segs := e.log.Segments()
		next := fmt.Sprintf("%s.%08d", filepath.Join(e.dir, "d.wal"), segs[len(segs)-1].Seq+1)
		if err := os.WriteFile(next, nil, 0o644); err != nil {
			t.Fatal(err)
		}
		store, _ := e.recover(t)
		if got := viewXML(t, store); got != want {
			t.Fatalf("empty tail segment broke recovery:\nwant %s\ngot  %s", want, got)
		}
	})

	t.Run("MissingSegmentBelowManifestIsHarmless", func(t *testing.T) {
		e, want := setup(t)
		// A sealed segment every record of which the newest image (and so
		// the chunk manifest it holds) covers is dead weight (it exists
		// only to serve the *previous* image); deleting it must not
		// disturb recovery rooted at the newest image.
		lsn := newest(t, e).LSN
		var victim string
		for _, seg := range e.log.Segments()[:len(e.log.Segments())-1] {
			if seg.Records > 0 && seg.LastLSN <= lsn {
				victim = seg.Path
				break
			}
		}
		if victim == "" {
			t.Skip("layout kept no sealed segment below the newest image's LSN")
		}
		if err := os.Remove(victim); err != nil {
			t.Fatal(err)
		}
		store, _ := e.recover(t)
		if got := viewXML(t, store); got != want {
			t.Fatalf("recovery needed a segment the newest image covers:\nwant %s\ngot  %s", want, got)
		}
	})

	t.Run("MissingNeededSegmentIsGapNotSilentLoss", func(t *testing.T) {
		e, _ := setup(t)
		// Delete the newest image AND a sealed segment the previous
		// image needs: the previous candidate must fail with a gap, not
		// recover a hole-y document. (With the current image also gone
		// nothing can recover — the point is the failure is loud.)
		if err := os.Remove(currentImage(t, e)); err != nil {
			t.Fatal(err)
		}
		segs := e.log.Segments()
		if len(segs) < 3 {
			t.Skip("not enough segments to carve a gap")
		}
		if segs[0].Records == 0 {
			t.Skip("first live segment is empty")
		}
		if err := os.Remove(segs[0].Path); err != nil {
			t.Fatal(err)
		}
		log, err := wal.Open(filepath.Join(e.dir, "d.wal"), wal.Options{NoSync: true})
		if err != nil {
			t.Fatal(err)
		}
		defer log.Close()
		_, _, err = Recover(e.dir, "d", log, nil)
		if err == nil {
			t.Fatal("recovery over a missing needed segment succeeded silently")
		}
	})
}

// TestPreviousCheckpointStaysRollable: the WAL is pruned only below the
// oldest *retained* image, so even after several checkpoints the
// previous image plus the remaining segments reproduce the full state.
func TestPreviousCheckpointStaysRollable(t *testing.T) {
	e := newEnv(t, 160)
	for round := 0; round < 4; round++ {
		for i := 0; i < 5; i++ {
			e.commitBook(t, "s1", fmt.Sprintf("r%d-%d", round, i))
		}
		if _, err := e.ck.Run(); err != nil {
			t.Fatal(err)
		}
	}
	want := e.baseXML(t)

	// Kill the newest image outright.
	imgs, err := Images(e.dir, "d")
	if err != nil || len(imgs) < 2 {
		t.Fatalf("want two retained images, have %v (%v)", imgs, err)
	}
	if err := os.Remove(filepath.Join(e.dir, imgs[0].File)); err != nil {
		t.Fatal(err)
	}

	store, _ := e.recover(t)
	if got := viewXML(t, store); got != want {
		t.Fatalf("previous checkpoint could not be rolled forward:\nwant %s\ngot  %s", want, got)
	}
}

// TestRetireBoundsImageCount: old images beyond the retention horizon
// are deleted.
func TestRetireBoundsImageCount(t *testing.T) {
	e := newEnv(t, wal.DefaultSegmentBytes)
	for round := 0; round < 6; round++ {
		e.commitBook(t, "s1", fmt.Sprintf("x%d", round))
		if _, err := e.ck.Run(); err != nil {
			t.Fatal(err)
		}
	}
	imgs, err := Images(e.dir, "d")
	if err != nil {
		t.Fatal(err)
	}
	if len(imgs) > 2 {
		t.Fatalf("%d images on disk, want <= 2 (current + previous)", len(imgs))
	}
}

func TestParseCkptLSN(t *testing.T) {
	if doc, lsn, ok := DocumentOfArtifact(ckptFile("d", 0xab)); !ok || doc != "d" || lsn != 0xab {
		t.Fatalf("round trip failed: %q %d %v", doc, lsn, ok)
	}
	// Uppercase hex is never produced; reject it.
	for _, bad := range []string{"d.ckpt", "d-xyz.ckpt", "d-ab.ckpt", "d-00000000000000AB.ckpt", "-00000000000000ab.ckpt", "d-00000000000000ab.ckpt.tmp"} {
		if doc, _, ok := DocumentOfArtifact(bad); ok {
			t.Fatalf("parsed %q as an image of %q", bad, doc)
		}
	}
}

func TestArtifactOwnershipBoundaries(t *testing.T) {
	// The one image-name parser: the document is everything before the
	// last "-<16 hex>.ckpt", so a dash-prefix never claims a sibling.
	cases := map[string]string{
		"d-00000000000000ab.ckpt":   "d",
		"a-b-00000000000000ff.ckpt": "a-b",
	}
	for file, want := range cases {
		if got, _, ok := DocumentOfArtifact(file); !ok || got != want {
			t.Fatalf("DocumentOfArtifact(%q) = %q/%v, want %q", file, got, ok, want)
		}
	}
	// A <name>.manifest (the pointer builds before PR 24 wrote) is as
	// foreign as a bare <name>.ckpt: no document exists because of it.
	for _, file := range []string{"d.manifest", "d.manifest.tmp", "d-00000000000000ab.ckpt.tmp", "d.wal.00000001", "d.ckpt", "d.wal", "other.txt"} {
		if name, _, ok := DocumentOfArtifact(file); ok {
			t.Fatalf("DocumentOfArtifact(%q) claimed %q", file, name)
		}
	}

	// The per-document scan claims exactly the document's images and
	// their in-flight tmp files — not a dash-sibling's, not a manifest's,
	// not a bare a.ckpt.tmp (only LSN-stamped images are artifacts).
	dir := t.TempDir()
	for _, f := range []string{
		"a-0000000000000001.ckpt", "a-00000000000000ff.ckpt", "a-0000000000000100.ckpt.tmp",
		"a-b-00000000000000ff.ckpt", "a-b-0000000000000100.ckpt.tmp",
		"a.manifest", "a.manifest.tmp", "a.ckpt", "a.ckpt.tmp",
	} {
		if err := os.WriteFile(filepath.Join(dir, f), []byte("x"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	imgs, tmps, err := scan(dir, "a")
	if err != nil {
		t.Fatal(err)
	}
	if got, want := fmt.Sprint(imgs, tmps), "[{a-00000000000000ff.ckpt 255} {a-0000000000000001.ckpt 1}] [a-0000000000000100.ckpt.tmp]"; got != want {
		t.Fatalf("scan(a) = %s, want %s", got, want)
	}
	if imgs, tmps, _ := scan(dir, "a-b"); fmt.Sprint(imgs, tmps) != "[{a-b-00000000000000ff.ckpt 255}] [a-b-0000000000000100.ckpt.tmp]" {
		t.Fatalf("scan(a-b) = %v %v", imgs, tmps)
	}
	if got := CurrentLSN(dir, "a"); got != 0xff {
		t.Fatalf("CurrentLSN(a) = %d, want 255 (the newest image's)", got)
	}
	if got := CurrentLSN(dir, "nobody"); got != 0 {
		t.Fatalf("CurrentLSN(nobody) = %d, want 0", got)
	}
}

// TestRemoveArtifactsSparesSiblings: removing "a"'s artifacts must not
// touch "a-b"'s, even mid-checkpoint (its .tmp files included), nor a
// bare a.ckpt or an a.manifest, which are not artifacts.
func TestRemoveArtifactsSparesSiblings(t *testing.T) {
	dir := t.TempDir()
	for _, f := range []string{
		"a.manifest", "a-0000000000000001.ckpt", "a.ckpt", "a-0000000000000002.ckpt.tmp",
		"a-b.manifest", "a-b-0000000000000001.ckpt", "a-b-0000000000000002.ckpt.tmp",
	} {
		if err := os.WriteFile(filepath.Join(dir, f), []byte("x"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	RemoveArtifacts(dir, "a")
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var left []string
	for _, e := range entries {
		left = append(left, e.Name())
	}
	want := []string{"a-b-0000000000000001.ckpt", "a-b-0000000000000002.ckpt.tmp", "a-b.manifest", "a.ckpt", "a.manifest"}
	if fmt.Sprint(left) != fmt.Sprint(want) {
		t.Fatalf("left %v, want %v", left, want)
	}
}

// TestRetentionCountsOnlyUsableImages: an image readImage refuses must
// not hold the "previous image" slot. Checkpoint at LSN 1 and 2, tear
// image 2, restart (recovery falls back to image 1 and replays to 2),
// commit, checkpoint: the directory must hold image 3 and the readable
// image 1 — not the torn image 2, with image 1 retired and the WAL
// pruned to 2, which would leave nothing to fall back on.
func TestRetentionCountsOnlyUsableImages(t *testing.T) {
	e := newEnv(t, 160)
	for _, name := range []string{"one", "two"} {
		e.commitBook(t, "s1", name)
		if _, err := e.ck.Run(); err != nil {
			t.Fatal(err)
		}
	}
	torn := filepath.Join(e.dir, ckptFile("d", 2))
	fi, err := os.Stat(torn)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(torn, fi.Size()/2); err != nil {
		t.Fatal(err)
	}
	e.log.Close()

	log, err := wal.Open(filepath.Join(e.dir, "d.wal"), wal.Options{NoSync: true, SegmentBytes: 160})
	if err != nil {
		t.Fatal(err)
	}
	defer log.Close()
	store, lsn, err := Recover(e.dir, "d", log, nil)
	if err != nil || lsn != 2 {
		t.Fatalf("recovery over the torn image: LSN %d, %v; want 2", lsn, err)
	}
	m := tx.NewManager(store, log)
	e = &env{dir: e.dir, log: log, s: store, m: m, ck: New(vfs.OS, e.dir, "d", log, m.PinCheckpoint, DefaultChunkStore(e.dir, "d"), nil)}
	e.commitBook(t, "s2", "three")
	if _, err := e.ck.Run(); err != nil {
		t.Fatal(err)
	}

	imgs, err := Images(e.dir, "d")
	if err != nil {
		t.Fatal(err)
	}
	if got, want := fmt.Sprint(imgs), fmt.Sprint([]Image{{ckptFile("d", 3), 3}, {ckptFile("d", 1), 1}}); got != want {
		t.Fatalf("retained images %s, want %s", got, want)
	}
	// The previous retained image is one recovery can use.
	want := e.baseXML(t)
	if err := os.Remove(filepath.Join(e.dir, imgs[0].File)); err != nil {
		t.Fatal(err)
	}
	got, lsn := e.recover(t)
	if xml := viewXML(t, got); lsn != 3 || xml != want {
		t.Fatalf("recovery from the previous image reached LSN %d:\nwant %s\ngot  %s", lsn, want, xml)
	}
}

// TestDirectoryHoldsOnlyArtifacts: after several checkpoints a
// document's directory entries are exactly its images, its WAL segments
// and its chunk directory — no pointer file, no tmp — and a
// <name>.manifest left by an older build is a foreign file: never read,
// never removed.
func TestDirectoryHoldsOnlyArtifacts(t *testing.T) {
	e := newEnv(t, 160)
	for round := 0; round < 4; round++ {
		e.commitBook(t, "s1", fmt.Sprintf("r%d", round))
		if _, err := e.ck.Run(); err != nil {
			t.Fatal(err)
		}
	}
	expect := func(extra ...string) {
		t.Helper()
		want := map[string]bool{"d.chunks": true}
		for _, f := range extra {
			want[f] = true
		}
		imgs, err := Images(e.dir, "d")
		if err != nil || len(imgs) != 2 {
			t.Fatalf("images %v (%v), want 2", imgs, err)
		}
		for _, img := range imgs {
			want[img.File] = true
		}
		for _, seg := range e.log.Segments() {
			want[filepath.Base(seg.Path)] = true
		}
		entries, err := os.ReadDir(e.dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, en := range entries {
			if !want[en.Name()] {
				t.Fatalf("unexpected directory entry %q", en.Name())
			}
			delete(want, en.Name())
		}
		if len(want) != 0 {
			t.Fatalf("missing directory entries %v", want)
		}
	}
	expect()

	// A stale pointer naming a file that is not there changes nothing.
	stale := []byte(`{"file":"d-00000000000000ee.ckpt","lsn":238}`)
	if err := os.WriteFile(filepath.Join(e.dir, "d.manifest"), stale, 0o644); err != nil {
		t.Fatal(err)
	}
	e.commitBook(t, "s2", "after")
	if lsn, err := e.ck.Run(); err != nil || e.ck.LastLSN() != lsn || CurrentLSN(e.dir, "d") != lsn {
		t.Fatalf("Run = %d, %v; LastLSN %d, CurrentLSN %d", lsn, err, e.ck.LastLSN(), CurrentLSN(e.dir, "d"))
	}
	expect("d.manifest")
	if got, err := os.ReadFile(filepath.Join(e.dir, "d.manifest")); err != nil || !bytes.Equal(got, stale) {
		t.Fatalf("the foreign d.manifest was touched: %q, %v", got, err)
	}
	store, _ := e.recover(t)
	if got, want := viewXML(t, store), e.baseXML(t); got != want {
		t.Fatalf("recovery beside a foreign d.manifest:\nwant %s\ngot  %s", want, got)
	}
}
