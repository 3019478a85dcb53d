package mxq

import (
	"errors"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mxq/internal/chunkstore"
	"mxq/internal/ckpt"
)

// slowChunks is an Options.ChunkStore factory over the default stores
// in dir whose Puts, once armed, are throttled by delay each.
type slowChunks struct {
	dir       string
	delay     time.Duration
	armed     atomic.Bool
	once      sync.Once
	streaming chan struct{}
}

func newSlowChunks(dir string, delay time.Duration) *slowChunks {
	return &slowChunks{dir: dir, delay: delay, streaming: make(chan struct{})}
}

func (s *slowChunks) open(doc string) ChunkStore {
	return slowStore{ckpt.DefaultChunkStore(s.dir, doc), s}
}

// arm throttles every later Put; the channel it returns is closed once
// the first of them starts.
func (s *slowChunks) arm() <-chan struct{} {
	s.armed.Store(true)
	return s.streaming
}

type slowStore struct {
	chunkstore.Store
	slow *slowChunks
}

func (s slowStore) Put(h chunkstore.Hash, data []byte) error {
	if s.slow.armed.Load() {
		s.slow.once.Do(func() { close(s.slow.streaming) })
		time.Sleep(s.slow.delay)
	}
	return s.Store.Put(h, data)
}

// TestCloseRacesThrottledCheckpoint closes the database while a
// throttled checkpoint is mid-stream (the auto goroutine and a manual
// Checkpoint both racing): Close must wait the checkpoint out — never
// panic, never close the WAL under its prune, never leak the goroutine —
// and a second Close and a post-Close Checkpoint must fail cleanly.
// Run under -race (make check does).
func TestCloseRacesThrottledCheckpoint(t *testing.T) {
	dir := t.TempDir()
	slow := newSlowChunks(dir, 5*time.Millisecond)
	db, err := Open(Options{
		Dir: dir, NoSync: true,
		CheckpointEvery: CheckpointPolicy{Records: 2},
		ChunkStore:      slow.open,
	})
	if err != nil {
		t.Fatal(err)
	}
	doc, err := db.LoadXMLString("lib", libDoc)
	if err != nil {
		t.Fatal(err)
	}
	// Throttle the chunk stream so the close provably overlaps it.
	streaming := slow.arm()
	for i := 0; i < 8; i++ {
		if _, err := doc.Update(wrapMods(`<xupdate:append select="/lib/shelf"><book>race</book></xupdate:append>`)); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if err := doc.Checkpoint(); err != nil && !errors.Is(err, ckpt.ErrClosed) {
			t.Errorf("racing manual checkpoint: %v", err)
		}
	}()
	<-streaming // some checkpoint (auto or manual) is mid-stream
	if err := db.Close(); err != nil {
		t.Fatalf("Close during streaming checkpoint: %v", err)
	}
	if err := db.Close(); err != nil {
		t.Fatalf("double Close: %v", err)
	}
	wg.Wait()
	if err := doc.Checkpoint(); !errors.Is(err, ckpt.ErrClosed) {
		t.Fatalf("Checkpoint after Close = %v, want ckpt.ErrClosed", err)
	}
	if _, err := db.LoadXMLString("late", libDoc); !errors.Is(err, ErrDatabaseClosed) {
		t.Fatalf("LoadXML after Close = %v, want ErrDatabaseClosed", err)
	}
}

// TestChunkStoreOpensOncePerAttach: the Options.ChunkStore factory runs
// once per attach — at the load, and again at the OpenDocument that
// recovers the document — and the recovered document checkpoints
// through the store it was recovered from.
func TestChunkStoreOpensOncePerAttach(t *testing.T) {
	dir := t.TempDir()
	var opened []*chunkstore.Dir
	db, err := Open(Options{Dir: dir, NoSync: true, ChunkStore: func(doc string) ChunkStore {
		cs := ckpt.DefaultChunkStore(dir, doc)
		opened = append(opened, cs)
		return cs
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if _, err := db.LoadXMLString("lib", libDoc); err != nil {
		t.Fatal(err)
	}
	if err := db.CloseDocument("lib"); err != nil {
		t.Fatal(err)
	}
	doc, err := db.OpenDocument("lib")
	if err != nil {
		t.Fatal(err)
	}
	if len(opened) != 2 {
		t.Fatalf("factory ran %d times for a load and a recovery, want 2", len(opened))
	}
	if _, err := doc.Update(wrapMods(`<xupdate:append select="/lib/shelf"><book>after</book></xupdate:append>`)); err != nil {
		t.Fatal(err)
	}
	if err := doc.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if opened[1].BytesStored() == 0 {
		t.Fatal("the recovered document did not checkpoint through the store it recovered from")
	}
}

// TestCloseDocumentReopen detaches a never-explicitly-checkpointed
// document and recovers it through OpenDocument: the final checkpoint
// CloseDocument writes must make the round trip lossless, and the
// reattached WAL must accept new commits.
func TestCloseDocumentReopen(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(Options{Dir: dir, NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	doc, err := db.LoadXMLString("lib", libDoc)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := doc.Update(wrapMods(`<xupdate:append select="/lib/shelf"><book>pre-close</book></xupdate:append>`)); err != nil {
		t.Fatal(err)
	}
	want, _ := doc.XML()

	if err := db.CloseDocument("lib"); err != nil {
		t.Fatal(err)
	}
	if err := doc.Checkpoint(); !errors.Is(err, ckpt.ErrClosed) {
		t.Fatalf("Checkpoint on the closed instance = %v, want ckpt.ErrClosed", err)
	}
	doc2, err := db.OpenDocument("lib")
	if err != nil {
		t.Fatal(err)
	}
	if doc2 == doc {
		t.Fatal("OpenDocument after CloseDocument returned the detached instance")
	}
	if got, _ := doc2.XML(); got != want {
		t.Fatalf("reopened state differs:\nwant %s\ngot  %s", want, got)
	}
	if _, err := doc2.Update(wrapMods(`<xupdate:append select="/lib/shelf"><book>post-reopen</book></xupdate:append>`)); err != nil {
		t.Fatalf("commit on reopened document: %v", err)
	}
	// Idempotent lookup: a second OpenDocument returns the same instance.
	again, err := db.OpenDocument("lib")
	if err != nil || again != doc2 {
		t.Fatalf("second OpenDocument = %p (%v), want %p", again, err, doc2)
	}
	if err := db.CloseDocument("lib"); err != nil {
		t.Fatal(err)
	}
	if err := db.CloseDocument("lib"); err == nil {
		t.Fatal("CloseDocument of a detached document succeeded")
	}
}

// TestOpenAttachesOnFirstUse: Open recovers nothing — it succeeds over
// a directory whose only image of one document is torn, and that
// document's first OpenDocument reports the failure. OpenDocument
// recovers the others on first use and errors on unknown names and
// closed databases.
func TestOpenAttachesOnFirstUse(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(Options{Dir: dir, NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	var want string
	for _, name := range []string{"lib", "torn"} {
		doc, err := db.LoadXMLString(name, libDoc)
		if err != nil {
			t.Fatal(err)
		}
		if err := doc.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		want, _ = doc.XML() // the same for both
	}
	db.Close()
	imgs, err := ckpt.Images(dir, "torn")
	if err != nil || len(imgs) != 1 {
		t.Fatalf("images of torn = %v, %v; want one", imgs, err)
	}
	if err := os.Truncate(filepath.Join(dir, imgs[0].File), 10); err != nil {
		t.Fatal(err)
	}

	db2, err := Open(Options{Dir: dir, NoSync: true})
	if err != nil {
		t.Fatalf("Open over a torn image: %v", err)
	}
	if _, err := db2.OpenDocument("torn"); err == nil || errors.Is(err, ErrNoDocument) {
		t.Fatalf("OpenDocument over a torn image = %v, want the recovery failure", err)
	}
	doc2, err := db2.OpenDocument("lib")
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := doc2.XML(); got != want {
		t.Fatalf("recovered state differs:\nwant %s\ngot  %s", want, got)
	}
	if _, err := db2.OpenDocument("nope"); !errors.Is(err, ErrNoDocument) {
		t.Fatalf("OpenDocument of unknown name = %v, want ErrNoDocument", err)
	}
	db2.Close()
	if _, err := db2.OpenDocument("lib"); !errors.Is(err, ErrDatabaseClosed) {
		t.Fatalf("OpenDocument after Close = %v, want ErrDatabaseClosed", err)
	}
}

// closeThrottled loads and checkpoints "lib" in db, whose chunk stores
// are slow's, commits past the image, arms slow and starts
// CloseDocument; it returns once the final checkpoint is mid-stream,
// with the document's XML and last LSN and a channel that yields
// CloseDocument's result.
func closeThrottled(t *testing.T, db *Database, slow *slowChunks) (doc *Document, want string, lsn uint64, closed <-chan error) {
	t.Helper()
	doc, err := db.LoadXMLString("lib", libDoc)
	if err != nil {
		t.Fatal(err)
	}
	if err := doc.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if _, err := doc.Update(wrapMods(`<xupdate:append select="/lib/shelf"><book>fence</book></xupdate:append>`)); err != nil {
			t.Fatal(err)
		}
	}
	want, _ = doc.XML()
	streaming := slow.arm()
	errc := make(chan error, 1)
	go func() { errc <- db.CloseDocument("lib") }()
	<-streaming
	return doc, want, doc.LastLSN(), errc
}

// TestOpenDocumentWaitsOutCloseDocument: an OpenDocument issued while
// CloseDocument's final checkpoint is still writing waits for the name's
// artifacts to settle. It returns a new instance recovered from the
// published final image — never a second live instance over the WAL the
// closing one still holds.
func TestOpenDocumentWaitsOutCloseDocument(t *testing.T) {
	dir := t.TempDir()
	slow := newSlowChunks(dir, 20*time.Millisecond)
	db, err := Open(Options{Dir: dir, NoSync: true, ChunkStore: slow.open})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	doc, want, lsn, closed := closeThrottled(t, db, slow)
	doc2, err := db.OpenDocument("lib")
	if err != nil {
		t.Fatal(err)
	}
	if got := ckpt.CurrentLSN(dir, "lib"); got != lsn {
		t.Fatalf("OpenDocument returned before the final image: newest image at LSN %d, want %d", got, lsn)
	}
	if err := <-closed; err != nil {
		t.Fatal(err)
	}
	if doc2 == doc {
		t.Fatal("OpenDocument returned the closing instance")
	}
	if got, _ := doc2.XML(); got != want {
		t.Fatalf("reopened state differs:\nwant %s\ngot  %s", want, got)
	}
	if err := doc.Checkpoint(); !errors.Is(err, ckpt.ErrClosed) {
		t.Fatalf("Checkpoint on the closed instance = %v, want ckpt.ErrClosed", err)
	}
}

// TestCloseWakesFenceWaiters: a lookup waiting out a CloseDocument fails
// with ErrDatabaseClosed when the database closes under it.
func TestCloseWakesFenceWaiters(t *testing.T) {
	slow := newSlowChunks(t.TempDir(), 20*time.Millisecond)
	db, err := Open(Options{Dir: slow.dir, NoSync: true, ChunkStore: slow.open})
	if err != nil {
		t.Fatal(err)
	}
	_, _, _, closed := closeThrottled(t, db, slow)
	opened := make(chan error, 1)
	go func() {
		_, err := db.OpenDocument("lib")
		opened <- err
	}()
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if err := <-opened; !errors.Is(err, ErrDatabaseClosed) {
		t.Fatalf("OpenDocument waiting on a closing document = %v, want ErrDatabaseClosed", err)
	}
	if err := <-closed; err != nil {
		t.Fatal(err)
	}
}

// TestCloseKeepsUncheckpointedDocument: a document that never reached a
// checkpoint survives a clean Close — Close writes its image as
// CloseDocument does — and comes back with its committed update.
func TestCloseKeepsUncheckpointedDocument(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(Options{Dir: dir, NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	doc, err := db.LoadXMLString("a", libDoc)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := doc.Update(wrapMods(`<xupdate:append select="/lib/shelf"><book>kept</book></xupdate:append>`)); err != nil {
		t.Fatal(err)
	}
	want, _ := doc.XML()
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db, err = Open(Options{Dir: dir, NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if got := db.Documents(); len(got) != 1 || got[0] != "a" {
		t.Fatalf("Documents after Close and Open = %v, want [a]", got)
	}
	doc, err = db.OpenDocument("a")
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := doc.XML(); got != want {
		t.Fatalf("reopened document differs:\nwant %s\ngot  %s", want, got)
	}
}

// TestLoadDiscardsOrphanedLog: a crash before a document's first
// checkpoint leaves WAL segments and no image — no document. A new load
// of the name starts a log of its own at LSN 1 instead of continuing the
// dead document's.
func TestLoadDiscardsOrphanedLog(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(Options{Dir: dir, NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	doc, err := db.LoadXMLString("a", libDoc)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, err := doc.Update(wrapMods(`<xupdate:append select="/lib/shelf"><book>lost</book></xupdate:append>`)); err != nil {
			t.Fatal(err)
		}
	}
	crashed := filepath.Join(t.TempDir(), "crashed")
	if err := os.CopyFS(crashed, os.DirFS(dir)); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db, err = Open(Options{Dir: crashed, NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if got := db.Documents(); len(got) != 0 {
		t.Fatalf("Documents over an image-less crash state = %v, want none", got)
	}
	doc, err = db.LoadXMLString("a", libDoc)
	if err != nil {
		t.Fatal(err)
	}
	_, lsn, err := doc.UpdateLSN(wrapMods(`<xupdate:append select="/lib/shelf"><book>new</book></xupdate:append>`))
	if err != nil {
		t.Fatal(err)
	}
	if lsn != 1 {
		t.Fatalf("first commit of the new document has LSN %d, want 1", lsn)
	}
}
