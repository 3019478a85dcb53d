package server_test

import (
	"context"
	"errors"
	"net"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"mxq"
	"mxq/client"
	"mxq/internal/server"
	"mxq/internal/wire"
)

var bg = context.Background()

const libDoc = `<lib><shelf id="s1"><book year="1999">Alpha</book><book year="2003">Beta</book></shelf></lib>`

const modsWrap = `<xupdate:modifications version="1.0" xmlns:xupdate="http://www.xmldb.org/xupdate">%BODY%</xupdate:modifications>`

func wrapMods(body string) string { return strings.Replace(modsWrap, "%BODY%", body, 1) }

// startServer brings up a server on a loopback port and tears it down
// with the test.
func startServer(t *testing.T, cfg server.Config) (addr string, db *mxq.Database) {
	t.Helper()
	if cfg.DB == nil {
		var err error
		cfg.DB, err = mxq.Open(mxq.Options{})
		if err != nil {
			t.Fatal(err)
		}
	}
	db = cfg.DB
	srv := server.New(cfg)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(l)
	t.Cleanup(func() {
		srv.Shutdown(5 * time.Second)
		db.Close()
	})
	return l.Addr().String(), db
}

func dial(t *testing.T, addr string) *client.Client {
	t.Helper()
	c, err := client.Dial(bg, addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func TestClientBasic(t *testing.T) {
	addr, _ := startServer(t, server.Config{})
	c := dial(t, addr)
	if err := c.Ping(bg); err != nil {
		t.Fatalf("ping: %v", err)
	}
	if err := c.Load(bg, "lib", libDoc); err != nil {
		t.Fatalf("load: %v", err)
	}
	docs, err := c.ListDocs(bg)
	if err != nil || len(docs) != 1 || docs[0] != "lib" {
		t.Fatalf("docs = %v, %v", docs, err)
	}
	items, err := c.Query(bg, "lib", "//book", nil)
	if err != nil {
		t.Fatalf("query: %v", err)
	}
	if len(items) != 2 || items[0].Kind != "element" || items[0].Value != "Alpha" {
		t.Fatalf("items = %+v", items)
	}
	if !strings.Contains(items[1].XML, `<book year="2003">Beta</book>`) {
		t.Fatalf("item xml = %q", items[1].XML)
	}
	items, err = c.Query(bg, "lib", "count(//book)", nil)
	if err != nil || len(items) != 1 || items[0].Kind != "number" || items[0].Value != "2" {
		t.Fatalf("count = %+v, %v", items, err)
	}
	items, err = c.Query(bg, "lib", "//book[. = $v]/@year", map[string]string{"v": "Beta"})
	if err != nil || len(items) != 1 || items[0].Kind != "attribute" || items[0].Value != "2003" {
		t.Fatalf("var query = %+v, %v", items, err)
	}
}

func TestClientErrors(t *testing.T) {
	addr, _ := startServer(t, server.Config{})
	c := dial(t, addr)
	if _, err := c.Query(bg, "nope", "//x", nil); !errors.Is(err, client.ErrNoDocument) {
		t.Fatalf("unknown doc = %v, want ErrNoDocument", err)
	}
	if err := c.Load(bg, "lib", libDoc); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Query(bg, "lib", "//book[", nil); err == nil {
		t.Fatal("bad query should error")
	}
	if err := c.EndRead(bg, "lib"); err == nil {
		t.Fatal("EndRead without BeginRead should error")
	}
	// The session must survive every error above.
	if err := c.Ping(bg); err != nil {
		t.Fatalf("ping after errors: %v", err)
	}
}

// A result whose frame would pass the frame limit used to go out whole;
// the client refused the frame and closed the connection. The server
// now refuses the query with a message naming the size and the limit,
// and the session goes on serving.
func TestOversizedResultIsRefused(t *testing.T) {
	db, err := mxq.Open(mxq.Options{})
	if err != nil {
		t.Fatal(err)
	}
	para := "<p>" + strings.Repeat("x", 1000) + "</p>"
	if _, err := db.LoadXMLString("big", "<r>"+strings.Repeat(para, 100)+"</r>"); err != nil {
		t.Fatal(err)
	}
	const limit = 64 << 10
	addr, _ := startServer(t, server.Config{DB: db, MaxFrame: limit})
	c := dial(t, addr)
	_, err = c.Query(bg, "big", "//p", nil)
	var ce *client.Error
	if !errors.As(err, &ce) || ce.Status != wire.CodeQuery || !strings.Contains(ce.Msg, "65536-byte frame limit") {
		t.Fatalf("query for a 200 KB result under a 64 KiB frame limit = %v, want a CodeQuery error naming the limit", err)
	}
	if !strings.Contains(ce.Msg, "of 100 items is a 2") {
		t.Errorf("refusal %q does not name the result's size", ce.Msg)
	}
	if err := c.Ping(bg); err != nil {
		t.Fatalf("ping after the refused result: %v", err)
	}
	items, err := c.Query(bg, "big", "//p[3]", nil)
	if err != nil || len(items) != 1 || items[0].XML != para {
		t.Fatalf("a result under the limit after the refusal = %d items, %v", len(items), err)
	}
}

// A Load nested past xenc.MaxLevel used to wrap the shredder's depth
// count and panic core.Build on a session goroutine, which has no
// recover: one 280 KB frame took the daemon down. It is a query error
// now, and the daemon answers the next request.
func TestLoadRefusesDeepNesting(t *testing.T) {
	addr, _ := startServer(t, server.Config{})
	c := dial(t, addr)
	deep := strings.Repeat("<a>", 40000) + strings.Repeat("</a>", 40000)
	err := c.Load(bg, "deep", deep)
	var ce *client.Error
	if !errors.As(err, &ce) || ce.Status != wire.CodeQuery {
		t.Fatalf("load of 40000 nested elements = %v, want a CodeQuery error", err)
	}
	if err := c.Ping(bg); err != nil {
		t.Fatalf("ping after the refused load: %v", err)
	}
	if err := dial(t, addr).Load(bg, "lib", libDoc); err != nil {
		t.Fatalf("load on a second session: %v", err)
	}
}

func TestClientUpdate(t *testing.T) {
	addr, _ := startServer(t, server.Config{})
	c := dial(t, addr)
	if err := c.Load(bg, "lib", libDoc); err != nil {
		t.Fatal(err)
	}
	res, err := c.Update(bg, "lib", wrapMods(`<xupdate:append select="/lib/shelf"><book year="2020">Gamma</book></xupdate:append>`))
	if err != nil {
		t.Fatalf("update: %v", err)
	}
	if res.Ops != 1 || res.Affected < 1 {
		t.Fatalf("update result = %+v", res)
	}
	items, err := c.Query(bg, "lib", "count(//book)", nil)
	if err != nil || items[0].Value != "3" {
		t.Fatalf("count after update = %+v, %v", items, err)
	}
}

func TestClientExplain(t *testing.T) {
	addr, _ := startServer(t, server.Config{})
	c := dial(t, addr)
	if err := c.Load(bg, "lib", libDoc); err != nil {
		t.Fatal(err)
	}
	plan, err := c.Explain(bg, "lib", "//shelf[book]")
	if err != nil {
		t.Fatalf("explain: %v", err)
	}
	if !strings.Contains(plan, "seq (fused //)") || !strings.Contains(plan, "seq filter") {
		t.Fatalf("plan = %q, want fused sequence scan with in-place filter", plan)
	}
	if strings.Contains(plan, "per-node") {
		t.Fatalf("plan = %q, want no per-node fallback", plan)
	}
}

// TestClientSnapshotIsolation pins a read version and checks queries in
// the window ignore a commit that lands mid-window.
func TestClientSnapshotIsolation(t *testing.T) {
	addr, _ := startServer(t, server.Config{})
	reader := dial(t, addr)
	writer := dial(t, addr)
	if err := reader.Load(bg, "lib", libDoc); err != nil {
		t.Fatal(err)
	}
	v1, err := reader.BeginRead(bg, "lib")
	if err != nil {
		t.Fatalf("begin read: %v", err)
	}
	if _, err := writer.Update(bg, "lib", wrapMods(`<xupdate:append select="/lib/shelf"><book>New</book></xupdate:append>`)); err != nil {
		t.Fatal(err)
	}
	items, err := reader.Query(bg, "lib", "count(//book)", nil)
	if err != nil || items[0].Value != "2" {
		t.Fatalf("pinned count = %+v, %v (version %d)", items, err, v1)
	}
	items, err = writer.Query(bg, "lib", "count(//book)", nil)
	if err != nil || items[0].Value != "3" {
		t.Fatalf("unpinned count = %+v, %v", items, err)
	}
	if err := reader.EndRead(bg, "lib"); err != nil {
		t.Fatal(err)
	}
	items, err = reader.Query(bg, "lib", "count(//book)", nil)
	if err != nil || items[0].Value != "3" {
		t.Fatalf("count after EndRead = %+v, %v", items, err)
	}
	if _, err := reader.BeginRead(bg, "lib"); err != nil {
		t.Fatalf("re-pin: %v", err)
	}
	if _, err := reader.BeginRead(bg, "lib"); err == nil {
		t.Fatal("double BeginRead should error")
	}
}

// TestIdleClose checks the catalog detaches an unreferenced durable
// document and recovers it transparently on the next request.
func TestIdleClose(t *testing.T) {
	dir := t.TempDir()
	db, err := mxq.Open(mxq.Options{Dir: dir, NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	addr, _ := startServer(t, server.Config{DB: db, IdleClose: 30 * time.Millisecond})
	c := dial(t, addr)
	if err := c.Load(bg, "lib", libDoc); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Query(bg, "lib", "count(//book)", nil); err != nil {
		t.Fatal(err)
	}
	attached, err := db.OpenDocument("lib")
	if err != nil {
		t.Fatal(err)
	}
	// The idle timer detaches the document from the database: the next
	// lookup recovers a new instance.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if d, err := db.OpenDocument("lib"); err == nil && d != attached {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("document not detached after idle close")
		}
		time.Sleep(5 * time.Millisecond)
	}
	// The next request recovers it from its checkpoint.
	items, err := c.Query(bg, "lib", "count(//book)", nil)
	if err != nil || items[0].Value != "2" {
		t.Fatalf("query after idle close = %+v, %v", items, err)
	}
}

// TestIdleCloseDoesNotDetachPinnedRead: a pinned read holds a catalog
// reference, so the idle closer must leave the document attached.
func TestIdleCloseDoesNotDetachPinnedRead(t *testing.T) {
	dir := t.TempDir()
	db, err := mxq.Open(mxq.Options{Dir: dir, NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	addr, _ := startServer(t, server.Config{DB: db, IdleClose: 20 * time.Millisecond})
	c := dial(t, addr)
	if err := c.Load(bg, "lib", libDoc); err != nil {
		t.Fatal(err)
	}
	if _, err := c.BeginRead(bg, "lib"); err != nil {
		t.Fatal(err)
	}
	attached, err := db.OpenDocument("lib")
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(100 * time.Millisecond)
	if d, err := db.OpenDocument("lib"); err != nil || d != attached {
		t.Fatalf("pinned document was detached by the idle closer (%v)", err)
	}
	items, err := c.Query(bg, "lib", "count(//book)", nil)
	if err != nil || items[0].Value != "2" {
		t.Fatalf("pinned query = %+v, %v", items, err)
	}
}

func TestShutdownDrains(t *testing.T) {
	db, err := mxq.Open(mxq.Options{})
	if err != nil {
		t.Fatal(err)
	}
	srv := server.New(server.Config{DB: db})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(l)
	c, err := client.Dial(bg, l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Load(bg, "lib", libDoc); err != nil {
		t.Fatal(err)
	}
	if _, err := c.BeginRead(bg, "lib"); err != nil {
		t.Fatal(err)
	}
	if err := srv.Shutdown(5 * time.Second); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	// The listener is closed; new connections fail.
	if _, err := net.DialTimeout("tcp", l.Addr().String(), 200*time.Millisecond); err == nil {
		t.Fatal("dial after shutdown should fail")
	}
	// The drained session released its pinned snapshot, so the database
	// closes cleanly.
	if err := c.Ping(bg); err == nil {
		t.Fatal("request on drained session should fail")
	}
	if err := db.Close(); err != nil {
		t.Fatalf("db close after drain: %v", err)
	}
}

// TestManySessions exercises the server with a burst of concurrent
// sessions mixing queries and updates; every request must succeed (the
// default admission queue absorbs the burst — no overload responses).
func TestManySessions(t *testing.T) {
	addr, _ := startServer(t, server.Config{})
	setup := dial(t, addr)
	if err := setup.Load(bg, "lib", libDoc); err != nil {
		t.Fatal(err)
	}
	const sessions = 32
	var wg sync.WaitGroup
	errs := make(chan error, sessions)
	for i := 0; i < sessions; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c, err := client.Dial(bg, addr)
			if err != nil {
				errs <- err
				return
			}
			defer c.Close()
			for j := 0; j < 10; j++ {
				if i%4 == 0 && j == 5 {
					if _, err := c.Update(bg, "lib", wrapMods(`<xupdate:append select="/lib/shelf"><book>B</book></xupdate:append>`)); err != nil {
						errs <- err
						return
					}
					continue
				}
				if _, err := c.Query(bg, "lib", "//book[. = $v]", map[string]string{"v": "Alpha"}); err != nil {
					errs <- err
					return
				}
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestOpenFailureIsNotNoDocument: "no such document" is classified by
// mxq.ErrNoDocument, not by the error's text. A document whose name
// contains "no document" and whose images are all torn fails to recover,
// and the recovery error quotes the name; the session must answer
// CodeInternal, not CodeNoDocument.
func TestOpenFailureIsNotNoDocument(t *testing.T) {
	const name = "x no document y"
	dir := t.TempDir()
	db, err := mxq.Open(mxq.Options{Dir: dir, NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	doc, err := db.LoadXMLString(name, libDoc)
	if err != nil {
		t.Fatal(err)
	}
	// Two checkpoints with a commit between them: a current image and
	// the previous one.
	if err := doc.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if _, err := doc.Update(wrapMods(`<xupdate:remove select="//book[1]"/>`)); err != nil {
		t.Fatal(err)
	}
	if err := doc.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	images, err := filepath.Glob(filepath.Join(dir, name+"-*.ckpt"))
	if err != nil || len(images) < 2 {
		t.Fatalf("images = %v, %v; want the current and the previous one", images, err)
	}
	for _, img := range images {
		fi, err := os.Stat(img)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.Truncate(img, fi.Size()/2); err != nil {
			t.Fatal(err)
		}
	}

	db, err = mxq.Open(mxq.Options{Dir: dir, NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	addr, _ := startServer(t, server.Config{DB: db})
	c := dial(t, addr)
	_, err = c.Query(bg, name, "count(//book)", nil)
	var ce *client.Error
	if !errors.As(err, &ce) || ce.Status != wire.CodeInternal {
		t.Fatalf("query over torn images = %v, want CodeInternal", err)
	}
	if !strings.Contains(ce.Msg, "recovering") {
		t.Fatalf("error message %q does not report the recovery failure", ce.Msg)
	}
}

// TestReopenedDirectory: a server over a directory a previous process
// checkpointed serves what is there before anything attaches it —
// ListDocs names the document, a Load of its name is refused (taking the
// name would have the next recovery replay the new document's commits
// over the old image), and queries see the old content.
func TestReopenedDirectory(t *testing.T) {
	dir := t.TempDir()
	db, err := mxq.Open(mxq.Options{Dir: dir, NoSync: true})
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
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db, err = mxq.Open(mxq.Options{Dir: dir, NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	addr, _ := startServer(t, server.Config{DB: db})
	c := dial(t, addr)
	if docs, err := c.ListDocs(bg); err != nil || len(docs) != 1 || docs[0] != "lib" {
		t.Fatalf("ListDocs over a reopened directory = %v, %v; want [lib]", docs, err)
	}
	if err := c.Load(bg, "lib", `<other><x>1</x></other>`); err == nil || !strings.Contains(err.Error(), "already exists") {
		t.Fatalf("Load over a checkpointed document = %v, want already exists", err)
	}
	items, err := c.Query(bg, "lib", "count(//book)", nil)
	if err != nil || items[0].Value != "2" {
		t.Fatalf("query after the refused load = %+v, %v", items, err)
	}
}
