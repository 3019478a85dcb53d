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
	ck := New(dir, "d", log, m.PinCheckpoint)
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
	if _, err := txn.AppendChild(ns[0].Pre, fr); err != nil {
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
	e.ck.SetChunkWrapper(func(s chunkstore.Store) chunkstore.Store {
		return &slowStore{Store: s, delay: delay}
	})

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
	// both a current and a previous image exist.
	setup := func(t *testing.T) (*env, string) {
		e := newEnv(t, 192)
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

	currentImage := func(t *testing.T, e *env) string {
		t.Helper()
		m, err := readManifest(e.dir, "d")
		if err != nil {
			t.Fatal(err)
		}
		return filepath.Join(e.dir, m.File)
	}

	t.Run("LeftoverTmpFilesIgnored", func(t *testing.T) {
		e, want := setup(t)
		for _, junk := range []string{"d-00000000000000ff.ckpt.tmp", "d.manifest.tmp", "d.wal.tmp"} {
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

	t.Run("ManifestPointsAtMissingImage", func(t *testing.T) {
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

	t.Run("CorruptManifest", func(t *testing.T) {
		e, want := setup(t)
		if err := os.WriteFile(filepath.Join(e.dir, "d.manifest"), []byte("{torn"), 0o644); err != nil {
			t.Fatal(err)
		}
		store, _ := e.recover(t)
		if got := viewXML(t, store); got != want {
			t.Fatalf("corrupt manifest broke recovery:\nwant %s\ngot  %s", want, got)
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
		m, err := readManifest(e.dir, "d")
		if err != nil {
			t.Fatal(err)
		}
		// A sealed segment every record of which the manifest's image
		// covers is dead weight (it exists only to serve the *previous*
		// image); deleting it must not disturb manifest-rooted recovery.
		var victim string
		for _, seg := range e.log.Segments()[:len(e.log.Segments())-1] {
			if seg.Records > 0 && seg.LastLSN <= m.LSN {
				victim = seg.Path
				break
			}
		}
		if victim == "" {
			t.Skip("layout kept no sealed segment below the manifest LSN")
		}
		if err := os.Remove(victim); err != nil {
			t.Fatal(err)
		}
		store, _ := e.recover(t)
		if got := viewXML(t, store); got != want {
			t.Fatalf("recovery needed a segment the manifest image covers:\nwant %s\ngot  %s", want, got)
		}
	})

	t.Run("MissingNeededSegmentIsGapNotSilentLoss", func(t *testing.T) {
		e, _ := setup(t)
		// Delete the manifest image AND a sealed segment the previous
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

	// Kill the newest image and the manifest outright.
	m, err := readManifest(e.dir, "d")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(filepath.Join(e.dir, m.File)); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(filepath.Join(e.dir, "d.manifest")); err != nil {
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
	entries, err := os.ReadDir(e.dir)
	if err != nil {
		t.Fatal(err)
	}
	images := 0
	for _, en := range entries {
		if _, ok := parseCkptLSN("d", en.Name()); ok {
			images++
		}
	}
	if images > 2 {
		t.Fatalf("%d images on disk, want <= 2 (current + previous)", images)
	}
}

func TestParseCkptLSN(t *testing.T) {
	if lsn, ok := parseCkptLSN("d", ckptFile("d", 0xab)); !ok || lsn != 0xab {
		t.Fatalf("round trip failed: %d %v", lsn, ok)
	}
	for _, bad := range []string{"d.ckpt", "e-00000000000000ab.ckpt", "d-xyz.ckpt", "d-ab.ckpt", "d-00000000000000ab.ckpt.tmp"} {
		if _, ok := parseCkptLSN("d", bad); ok {
			t.Fatalf("parsed %q as an image", bad)
		}
	}
}

func TestArtifactOwnershipBoundaries(t *testing.T) {
	// ownsTmp must not claim a dash-sibling's in-flight tmp.
	if ownsTmp("a", "a-b-00000000000000ff.ckpt.tmp") {
		t.Fatal(`doc "a" claimed doc "a-b"'s image tmp`)
	}
	if !ownsTmp("a-b", "a-b-00000000000000ff.ckpt.tmp") {
		t.Fatal("owner did not claim its own image tmp")
	}
	if !ownsTmp("a", "a.manifest.tmp") {
		t.Fatal("owner did not claim its manifest tmp")
	}
	if ownsTmp("a", "a.ckpt.tmp") {
		t.Fatal("a bare a.ckpt.tmp claimed: only LSN-stamped images are artifacts")
	}
	// Uppercase hex is never produced; reject it.
	if _, ok := parseCkptLSN("d", "d-00000000000000AB.ckpt"); ok {
		t.Fatal("uppercase hex accepted")
	}
	// DocumentOfArtifact mirrors the same rules.
	cases := map[string]string{
		"d.manifest":                "d",
		"d-00000000000000ab.ckpt":   "d",
		"a-b-00000000000000ff.ckpt": "a-b",
	}
	for file, want := range cases {
		if got, ok := DocumentOfArtifact(file); !ok || got != want {
			t.Fatalf("DocumentOfArtifact(%q) = %q/%v, want %q", file, got, ok, want)
		}
	}
	for _, file := range []string{"d.manifest.tmp", "d-00000000000000ab.ckpt.tmp", "d.wal.00000001", "d.ckpt", "d.wal", "other.txt"} {
		if name, ok := DocumentOfArtifact(file); ok {
			t.Fatalf("DocumentOfArtifact(%q) claimed %q", file, name)
		}
	}
}

// TestRemoveArtifactsSparesSiblings: removing "a"'s artifacts must not
// touch "a-b"'s, even mid-checkpoint (its .tmp files included), nor a
// bare a.ckpt, which is not an artifact.
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
	want := []string{"a-b-0000000000000001.ckpt", "a-b-0000000000000002.ckpt.tmp", "a-b.manifest", "a.ckpt"}
	if fmt.Sprint(left) != fmt.Sprint(want) {
		t.Fatalf("left %v, want %v", left, want)
	}
}
