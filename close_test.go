package mxq

import (
	"errors"
	"sync"
	"testing"
	"time"

	"mxq/internal/chunkstore"
	"mxq/internal/ckpt"
)

// slowChunks throttles chunk Puts and signals once the first one starts.
type slowChunks struct {
	chunkstore.Store
	start func()
	delay time.Duration
}

func (s *slowChunks) Put(h chunkstore.Hash, data []byte) error {
	s.start()
	time.Sleep(s.delay)
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
	db, err := Open(Options{
		Dir: dir, NoSync: true,
		CheckpointEvery: CheckpointPolicy{Records: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	doc, err := db.LoadXMLString("lib", libDoc)
	if err != nil {
		t.Fatal(err)
	}
	// Throttle the chunk stream so the close provably overlaps it.
	streaming := make(chan struct{})
	var once sync.Once
	doc.ckpter.SetChunkStore(&slowChunks{
		Store: ckpt.DefaultChunkStore(dir, "lib"),
		start: func() { once.Do(func() { close(streaming) }) },
		delay: 5 * time.Millisecond,
	})
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
	if _, ok := db.Document("lib"); ok {
		t.Fatal("document still registered after CloseDocument")
	}
	doc2, err := db.OpenDocument("lib")
	if err != nil {
		t.Fatal(err)
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

// TestLazyOpen: with Options.LazyOpen, Open recovers nothing eagerly;
// OpenDocument recovers on first use and errors on unknown names and
// closed databases.
func TestLazyOpen(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(Options{Dir: dir, NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	doc, err := db.LoadXMLString("lib", libDoc)
	if err != nil {
		t.Fatal(err)
	}
	if err := doc.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	want, _ := doc.XML()
	db.Close()

	db2, err := Open(Options{Dir: dir, NoSync: true, LazyOpen: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := db2.Document("lib"); ok {
		t.Fatal("LazyOpen recovered eagerly")
	}
	doc2, err := db2.OpenDocument("lib")
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := doc2.XML(); got != want {
		t.Fatalf("lazily recovered state differs:\nwant %s\ngot  %s", want, got)
	}
	if _, err := db2.OpenDocument("nope"); err == nil {
		t.Fatal("OpenDocument of unknown name succeeded")
	}
	db2.Close()
	if _, err := db2.OpenDocument("lib"); !errors.Is(err, ErrDatabaseClosed) {
		t.Fatalf("OpenDocument after Close = %v, want ErrDatabaseClosed", err)
	}
}
