package server_test

import (
	"context"
	"errors"
	"fmt"
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

// startServer brings up a server over db (a fresh in-memory database if
// nil) on a loopback port, and tears both down with the test.
func startServer(t *testing.T, cfg server.Config, db *mxq.Database) string {
	t.Helper()
	if db == nil {
		var err error
		if db, err = mxq.Open(mxq.Options{}); err != nil {
			t.Fatal(err)
		}
	}
	cfg.DB = db
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
	return l.Addr().String()
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
	addr := startServer(t, server.Config{}, nil)
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
	addr := startServer(t, server.Config{}, nil)
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

// TestMalformedRequestsAreRefused: a request of any opcode that carries
// a payload, cut short or empty, is answered CodeBadRequest and the
// session goes on answering Pings; so is a Query with more than 1024
// variables, while one with 1024 runs.
func TestMalformedRequestsAreRefused(t *testing.T) {
	addr := startServer(t, server.Config{}, nil)
	if err := dial(t, addr).Load(bg, "lib", libDoc); err != nil {
		t.Fatal(err)
	}
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	id := uint64(0)
	send := func(op byte, payload []byte) wire.Frame {
		t.Helper()
		id++
		if err := wire.WriteFrame(conn, wire.Frame{ID: id, Op: op, Payload: payload}); err != nil {
			t.Fatal(err)
		}
		f, err := wire.ReadFrame(conn, 0)
		if err != nil || f.ID != id {
			t.Fatalf("opcode %d: response %v (id %d, want %d)", op, err, f.ID, id)
		}
		return f
	}
	pb := func() *wire.PayloadBuilder { return new(wire.PayloadBuilder) }
	// SubscribeWAL is parsed only on a session that negotiated replication.
	if f := send(wire.OpHello, pb().Uvarint(wire.Version).Uvarint(wire.FeatReplication).Bytes()); f.Op != wire.StatusOK {
		t.Fatalf("hello: status %d", f.Op)
	}
	for _, req := range []struct {
		op      byte
		payload []byte
	}{
		{wire.OpHello, pb().Uvarint(wire.Version).Uvarint(wire.FeatReplication).Bytes()},
		{wire.OpLoad, pb().String("lib2").String("<lib/>").Bytes()},
		{wire.OpQuery, pb().String("lib").String("//book").Uvarint(0).Bytes()},
		{wire.OpQuery, pb().String("lib").String("//book").Uvarint(1).String("k").String("v").Uvarint(1).Uvarint(5000).Bytes()},
		{wire.OpUpdate, pb().String("lib").String(wrapMods("")).Bytes()},
		{wire.OpExplain, pb().String("lib").String("//book").Bytes()},
		{wire.OpBeginRead, pb().String("lib").Bytes()},
		{wire.OpEndRead, pb().String("lib").Bytes()},
		{wire.OpDocStatus, pb().String("lib").Bytes()},
		{wire.OpSubscribeWAL, pb().String("lib").Uvarint(wire.SubscribeNone).Bytes()},
	} {
		for _, cut := range [][]byte{req.payload[:len(req.payload)-1], nil} {
			if f := send(req.op, cut); f.Op != wire.CodeBadRequest {
				t.Errorf("opcode %d, payload %x: status %d, want CodeBadRequest", req.op, cut, f.Op)
			}
			if f := send(wire.OpPing, nil); f.Op != wire.StatusOK {
				t.Fatalf("ping after a malformed opcode %d: status %d", req.op, f.Op)
			}
		}
	}
	query := func(nvars int) byte {
		p := pb().String("lib").String("//book").Uvarint(uint64(nvars))
		for i := 0; i < nvars; i++ {
			p.String(fmt.Sprintf("k%d", i)).String("v")
		}
		return send(wire.OpQuery, p.Bytes()).Op
	}
	if st := query(1025); st != wire.CodeBadRequest {
		t.Errorf("a query with 1025 variables: status %d, want CodeBadRequest", st)
	}
	if st := query(1024); st != wire.StatusOK {
		t.Errorf("a query with 1024 variables: status %d, want OK", st)
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
	addr := startServer(t, server.Config{MaxFrame: limit}, db)
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
	addr := startServer(t, server.Config{}, nil)
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
	addr := startServer(t, server.Config{}, nil)
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
	addr := startServer(t, server.Config{}, nil)
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
	addr := startServer(t, server.Config{}, nil)
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

// An insert-before or insert-after whose content is an attribute
// constructor used to pass the parser; the executor then handed the
// store a nil fragment, and the panic on the session goroutine took the
// daemon down. With an element beside the constructor the insert
// succeeded and dropped the attribute. The program is refused whole now.
func TestUpdateRefusesAttributeInsert(t *testing.T) {
	addr := startServer(t, server.Config{}, nil)
	c := dial(t, addr)
	if err := c.Load(bg, "lib", libDoc); err != nil {
		t.Fatal(err)
	}
	attr := `<xupdate:attribute name="x">1</xupdate:attribute>`
	for _, body := range []string{
		`<xupdate:insert-before select="/lib/shelf">` + attr + `</xupdate:insert-before>`,
		`<xupdate:insert-after select="//book[1]"><c/>` + attr + `</xupdate:insert-after>`,
	} {
		_, err := c.Update(bg, "lib", wrapMods(body))
		var ce *client.Error
		if !errors.As(err, &ce) || ce.Status != wire.CodeQuery {
			t.Fatalf("update %s = %v, want a CodeQuery error", body, err)
		}
		if err := c.Ping(bg); err != nil {
			t.Fatalf("ping after the refused update: %v", err)
		}
	}
	items, err := c.Query(bg, "lib", "/lib", nil)
	if err != nil || len(items) != 1 || items[0].XML != libDoc {
		t.Fatalf("document after the refused updates = %+v, %v; want it unchanged", items, err)
	}
}

// A Query frame of a million nested parentheses (2 MB), or of 800,000
// nested predicates (2.4 MB), used to overflow the session goroutine's
// stack, which is fatal to the process: no recover catches it. The
// parser refuses nesting past a fixed depth, on every path an
// expression arrives by. (Towers that tall now meet the lexer's token
// bound first, TestQueryRefusesTooManyTokens; these stay under it.)
func TestQueryRefusesDeepNesting(t *testing.T) {
	addr := startServer(t, server.Config{}, nil)
	c := dial(t, addr)
	if err := c.Load(bg, "lib", libDoc); err != nil {
		t.Fatal(err)
	}
	parens := strings.Repeat("(", 20000) + "1" + strings.Repeat(")", 20000)
	preds := strings.Repeat("a[", 15000) + "1" + strings.Repeat("]", 15000)
	for _, req := range []struct {
		name string
		send func() error
	}{
		{"query", func() error { _, err := c.Query(bg, "lib", parens, nil); return err }},
		{"explain", func() error { _, err := c.Explain(bg, "lib", preds); return err }},
		{"update", func() error {
			_, err := c.Update(bg, "lib", wrapMods(`<xupdate:remove select="`+preds+`"/>`))
			return err
		}},
	} {
		err := req.send()
		var ce *client.Error
		if !errors.As(err, &ce) || ce.Status != wire.CodeQuery || !strings.Contains(ce.Msg, "nests deeper than") {
			t.Fatalf("%s of a nested tower = %.200v, want a CodeQuery nesting error", req.name, err)
		}
		if err := c.Ping(bg); err != nil {
			t.Fatalf("ping after the refused %s: %v", req.name, err)
		}
	}
}

// A Query frame of ~2M one-byte tokens (2 MB) used to cost the session
// 32 bytes a token in the lexer, before any bound applied. The lexer now
// refuses it past a fixed token count, and the session goes on.
func TestQueryRefusesTooManyTokens(t *testing.T) {
	addr := startServer(t, server.Config{}, nil)
	c := dial(t, addr)
	if err := c.Load(bg, "lib", libDoc); err != nil {
		t.Fatal(err)
	}
	_, err := c.Query(bg, "lib", strings.Repeat("1+", 1<<20)+"1", nil)
	var ce *client.Error
	if !errors.As(err, &ce) || ce.Status != wire.CodeQuery || !strings.Contains(ce.Msg, "tokens") {
		t.Fatalf("query of ~2M tokens = %.200v, want a CodeQuery token-count error", err)
	}
	if err := c.Ping(bg); err != nil {
		t.Fatalf("ping after the refused query: %v", err)
	}
}

// panickyDB is a database whose LoadXMLString panics, standing in for
// any bug a request can reach.
type panickyDB struct{ *mxq.Database }

func (panickyDB) LoadXMLString(name, xml string) (*mxq.Document, error) {
	panic("load exploded")
}

// A panic on a session goroutine used to end the daemon. It ends the
// session now: the request gets CodeInternal, the connection closes,
// the panic and its stack are logged, and the admission unit the
// request held is back, so another session's query runs under
// MaxConcurrent 1 and the drain finishes without forcing anything.
func TestSessionPanicIsContained(t *testing.T) {
	db, err := mxq.Open(mxq.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if _, err := db.LoadXMLString("lib", libDoc); err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var logged []string
	srv := server.New(server.Config{DB: panickyDB{db}, MaxConcurrent: 1, Logf: func(format string, args ...any) {
		mu.Lock()
		defer mu.Unlock()
		logged = append(logged, fmt.Sprintf(format, args...))
	}})
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
	err = c.Load(bg, "other", libDoc)
	var ce *client.Error
	if !errors.As(err, &ce) || ce.Status != wire.CodeInternal || strings.Contains(ce.Msg, "goroutine") {
		t.Fatalf("load that panics = %v, want a CodeInternal error without the stack", err)
	}
	if err := c.Ping(bg); err == nil {
		t.Fatal("the session that panicked still answers")
	}
	other, err := client.Dial(bg, l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer other.Close()
	if items, err := other.Query(bg, "lib", "count(//book)", nil); err != nil || items[0].Value != "2" {
		t.Fatalf("query on another session = %+v, %v", items, err)
	}
	if err := srv.Shutdown(time.Minute); err != nil {
		t.Fatalf("shutdown after the panic: %v", err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(logged) == 0 || !strings.Contains(logged[0], "load exploded") || !strings.Contains(logged[0], "goroutine") {
		t.Fatalf("log = %q, want the panic value and its stack", logged)
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
	addr := startServer(t, server.Config{}, nil)
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
	addr := startServer(t, server.Config{}, db)
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
	addr := startServer(t, server.Config{}, db)
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
