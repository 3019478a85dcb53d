package mxq_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"log"
	"net"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"mxq"
	"mxq/client"
	"mxq/internal/server"
	"mxq/internal/xmark"
)

// Loading a document and running XPath queries.
func ExampleDatabase_LoadXMLString() {
	db, _ := mxq.Open(mxq.Options{})
	doc, err := db.LoadXMLString("zoo", `<zoo><animal legs="4">tiger</animal><animal legs="2">crane</animal></zoo>`)
	if err != nil {
		log.Fatal(err)
	}
	res, _ := doc.Query(`/zoo/animal[@legs="4"]/text()`)
	fmt.Println(res[0].Value)
	// Output: tiger
}

// Aggregates return typed values.
func ExampleDocument_Query() {
	db, _ := mxq.Open(mxq.Options{})
	doc, _ := db.LoadXMLString("zoo", `<zoo><animal/><animal/><animal/></zoo>`)
	res, _ := doc.Query(`count(/zoo/animal)`)
	fmt.Println(res[0].Kind, res[0].Value)
	// Output: number 3
}

// Structural updates are XUpdate modification lists; each list is one
// ACID transaction.
func ExampleDocument_Update() {
	db, _ := mxq.Open(mxq.Options{})
	doc, _ := db.LoadXMLString("zoo", `<zoo><animal>tiger</animal></zoo>`)
	_, err := doc.Update(`<xupdate:modifications version="1.0" xmlns:xupdate="http://www.xmldb.org/xupdate">
	  <xupdate:append select="/zoo"><animal>heron</animal></xupdate:append>
	</xupdate:modifications>`)
	if err != nil {
		log.Fatal(err)
	}
	xml, _ := doc.XML()
	fmt.Println(xml)
	// Output: <zoo><animal>tiger</animal><animal>heron</animal></zoo>
}

// Explicit transactions give read-your-writes isolation.
func ExampleDocument_Begin() {
	db, _ := mxq.Open(mxq.Options{})
	doc, _ := db.LoadXMLString("zoo", `<zoo><animal>tiger</animal></zoo>`)
	tx := doc.Begin()
	tx.Update(`<xupdate:modifications version="1.0" xmlns:xupdate="http://www.xmldb.org/xupdate">
	  <xupdate:remove select="//animal"/>
	</xupdate:modifications>`)
	inside, _ := tx.Query(`count(//animal)`)
	outside, _ := doc.Query(`count(//animal)`)
	fmt.Println("tx sees:", inside[0].Value, "— readers see:", outside[0].Value)
	tx.Abort()
	after, _ := doc.Query(`count(//animal)`)
	fmt.Println("after abort:", after[0].Value)
	// Output:
	// tx sees: 0 — readers see: 1
	// after abort: 1
}

// Prepared queries skip re-parsing and accept variables.
func ExampleDocument_Prepare() {
	db, _ := mxq.Open(mxq.Options{})
	doc, _ := db.LoadXMLString("zoo", `<zoo><animal legs="4">tiger</animal><animal legs="2">crane</animal></zoo>`)
	byLegs, _ := doc.Prepare(`//animal[@legs = $n]/text()`)
	for _, n := range []string{"2", "4"} {
		res, _ := byLegs.Run(map[string]string{"n": n})
		fmt.Println(n, "legs:", res[0].Value)
	}
	// Output:
	// 2 legs: crane
	// 4 legs: tiger
}

// The paper's evaluation workload end to end: load a generated XMark
// auction site, run XMark queries, and place a bid with XUpdate.
func Example_auctionSite() {
	// SF 0.003 is a few hundred KB; seed 7 makes the site reproducible.
	var buf bytes.Buffer
	if _, err := xmark.NewGenerator(0.003, 7).WriteTo(&buf); err != nil {
		log.Fatal(err)
	}
	db, _ := mxq.Open(mxq.Options{FillFactor: 0.8})
	doc, err := db.LoadXML("auction", &buf)
	if err != nil {
		log.Fatal(err)
	}
	s := doc.Stats()
	fmt.Printf("loaded: %d nodes, %d pages\n", s.LiveNodes, s.Pages)

	name, _ := doc.QueryValue(`/site/people/person[@id="person0"]/name/text()`) // XMark Q1
	fmt.Println("Q1 person0:", name)
	expensive, _ := doc.QueryValue(`count(/site/closed_auctions/closed_auction[price >= 40])`) // Q5
	fmt.Println("Q5 sold items >= 40:", expensive)

	// The new bidder goes after every existing bidder, directly before
	// <current>: insert-before does exactly that.
	const auction = `//open_auction[@id="open_auction0"]`
	before, _ := doc.QueryValue(`count(` + auction + `/bidder)`)
	_, err = doc.Update(`<xupdate:modifications version="1.0" xmlns:xupdate="http://www.xmldb.org/xupdate">
	  <xupdate:insert-before select='` + auction + `/current'>
	    <bidder><date>06/11/2026</date><time>12:00:00</time>
	      <personref person="person0"/><increase>9.00</increase></bidder>
	  </xupdate:insert-before>
	  <xupdate:update select='` + auction + `/current'>999.00</xupdate:update>
	</xupdate:modifications>`)
	if err != nil {
		log.Fatal(err)
	}
	after, _ := doc.QueryValue(`count(` + auction + `/bidder)`)
	current, _ := doc.QueryValue(auction + `/current/text()`)
	fmt.Printf("bid placed: %s -> %s bidders, current %s\n", before, after, current)

	// The bid went into page free space: more nodes, no new page.
	s2 := doc.Stats()
	fmt.Printf("after: %d nodes, %d pages\n", s2.LiveNodes, s2.Pages)
	fmt.Println("invariants:", doc.CheckInvariants())
	// Output:
	// loaded: 10609 nodes, 13 pages
	// Q1 person0: Sara Blanc
	// Q5 sold items >= 40: 26
	// bid placed: 0 -> 1 bidders, current 999.00
	// after: 10617 nodes, 13 pages
	// invariants: <nil>
}

// Writers under different logical pages commit concurrently although
// each grows the shared root's size: ancestor sizes take commutative
// delta increments, not locks (Section 3.2). A snapshot taken before
// the writers start sees none of their commits.
func Example_concurrentWriters() {
	// Eight departments, each big enough to fill its own logical page.
	var sb strings.Builder
	sb.WriteString("<site>")
	for d := 0; d < 8; d++ {
		fmt.Fprintf(&sb, `<department id="d%d">`, d)
		for i := 0; i < 40; i++ {
			fmt.Fprintf(&sb, "<doc>report %d-%d</doc>", d, i)
		}
		sb.WriteString("</department>")
	}
	sb.WriteString("</site>")
	db, _ := mxq.Open(mxq.Options{PageSize: 128, FillFactor: 0.7})
	doc, err := db.LoadXMLString("site", sb.String())
	if err != nil {
		log.Fatal(err)
	}
	snap := doc.Snapshot()
	defer snap.Close() // a snapshot holds chunk references until closed

	// One writer per department, 25 single-insert transactions each; a
	// page-lock conflict with a neighbour aborts, and the writer retries.
	var wg sync.WaitGroup
	for d := 0; d < 8; d++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				for {
					_, err := doc.Update(fmt.Sprintf(`<xupdate:modifications version="1.0" xmlns:xupdate="http://www.xmldb.org/xupdate">
					  <xupdate:append select='/site/department[@id="d%d"]'><doc>new %d-%d</doc></xupdate:append>
					</xupdate:modifications>`, d, d, i))
					if err == nil {
						break
					}
				}
			}
		}()
	}
	for i := 0; i < 50; i++ { // a reader runs beside the writers
		if _, err := doc.Query(`count(//doc)`); err != nil {
			log.Fatal(err)
		}
	}
	wg.Wait()

	docs, _ := doc.QueryValue(`count(//doc)`)
	frozen, _ := snap.QueryValue(`count(//doc)`)
	fmt.Println("docs now:", docs)
	fmt.Println("the snapshot still sees:", frozen)
	fmt.Println("invariants:", doc.CheckInvariants())
	// Output:
	// docs now: 520
	// the snapshot still sees: 320
	// invariants: <nil>
}

// Committed transactions survive a crash: commit writes one WAL record,
// and a document's first OpenDocument recovers the newest checkpoint
// image and replays the log behind it. A checkpoint after a small
// change is incremental: the image names content-addressed chunks, and
// only the dirtied ones are written.
func Example_recovery() {
	dir, err := os.MkdirTemp("", "mxq-recovery-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	db, err := mxq.Open(mxq.Options{Dir: dir, NoSync: true})
	if err != nil {
		log.Fatal(err)
	}
	// Enough accounts to span many pages, the unit a chunk covers.
	var ledger strings.Builder
	ledger.WriteString(`<ledger>`)
	for i := 0; i < 4000; i++ {
		fmt.Fprintf(&ledger, `<account id="a%d"><balance>%d</balance></account>`, i, 100+i)
	}
	ledger.WriteString(`</ledger>`)
	doc, err := db.LoadXMLString("ledger", ledger.String())
	if err != nil {
		log.Fatal(err)
	}
	if err := doc.Checkpoint(); err != nil {
		log.Fatal(err)
	}
	full := doc.Stats()

	entry := func(seq int) {
		_, err := doc.Update(fmt.Sprintf(`<xupdate:modifications version="1.0" xmlns:xupdate="http://www.xmldb.org/xupdate">
		  <xupdate:append select="/ledger"><entry seq="%d"><amount>%d</amount></entry></xupdate:append>
		</xupdate:modifications>`, seq, seq*10))
		if err != nil {
			log.Fatal(err)
		}
	}
	for seq := 1; seq <= 3; seq++ {
		entry(seq)
	}
	fmt.Println("WAL records beyond the checkpoint:", doc.Stats().WALRecords)
	if err := doc.Checkpoint(); err != nil {
		log.Fatal(err)
	}
	st := doc.Stats()
	written := st.CkptChunksWritten - full.CkptChunksWritten
	reused := st.CkptChunksReused - full.CkptChunksReused
	fmt.Println("incremental checkpoint writes fewer chunks than it reuses:", written < reused)

	// Entry 4 lands only in the WAL, so recovery replays a tail over the
	// incremental image.
	entry(4)
	want, _ := doc.XML()
	db.Close() // the crash: no further checkpoint

	db2, err := mxq.Open(mxq.Options{Dir: dir, NoSync: true})
	if err != nil {
		log.Fatal(err)
	}
	defer db2.Close()
	doc2, err := db2.OpenDocument("ledger")
	if err != nil {
		log.Fatal(err)
	}
	got, _ := doc2.XML()
	fmt.Println("recovered state equals the committed state:", got == want)
	entries, _ := doc2.QueryValue(`count(/ledger/entry)`)
	fmt.Println("entries after recovery:", entries)
	// Output:
	// WAL records beyond the checkpoint: 3
	// incremental checkpoint writes fewer chunks than it reuses: true
	// recovered state equals the committed state: true
	// entries after recovery: 4
}

// A primary and a read replica behind mxqd's server, in one process: the
// primary ships its WAL, the follower replays it, and a client that
// writes to one and reads from the other never sees a version older
// than its own writes. The replica holds each routed read until it has
// applied the LSN the client's last update answered (WaitApplied).
func Example_replication() {
	ctx := context.Background()
	dir, err := os.MkdirTemp("", "mxq-replication-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	serve := func(db *mxq.Database, readOnly bool) (addr string, stop func()) {
		srv := server.New(server.Config{DB: db, ReadOnly: readOnly})
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			log.Fatal(err)
		}
		go srv.Serve(l)
		return l.Addr().String(), func() { srv.Shutdown(5 * time.Second) }
	}

	// Replication ships the WAL, so both sides need a durability directory.
	primaryDB, _ := mxq.Open(mxq.Options{Dir: filepath.Join(dir, "primary"), NoSync: true})
	defer primaryDB.Close()
	if _, err := primaryDB.LoadXMLString("ledger", `<ledger><account id="a1"><balance>100</balance></account></ledger>`); err != nil {
		log.Fatal(err)
	}
	primary, stopPrimary := serve(primaryDB, false)
	defer stopPrimary()

	followerDB, _ := mxq.Open(mxq.Options{Dir: filepath.Join(dir, "follower"), NoSync: true})
	defer followerDB.Close()
	stopFollow, err := followerDB.FollowDocument(primary, "ledger")
	if err != nil {
		log.Fatal(err)
	}
	defer stopFollow()
	replica, stopReplica := serve(followerDB, true) // what mxqd -follow serves
	defer stopReplica()

	// Updates go to the primary; queries route to the replica carrying
	// the session's last commit LSN.
	c, err := client.Dial(ctx, primary, client.WithReadReplica(replica), client.WithRYWTimeout(10*time.Second))
	if err != nil {
		log.Fatal(err)
	}
	defer c.Close()
	res, err := c.Update(ctx, "ledger", `<xupdate:modifications version="1.0" xmlns:xupdate="http://www.xmldb.org/xupdate">
	  <xupdate:update select="/ledger/account[@id='a1']/balance">175</xupdate:update>
	</xupdate:modifications>`)
	if err != nil {
		log.Fatal(err)
	}
	balance, err := c.Query(ctx, "ledger", `/ledger/account[@id='a1']/balance/text()`, nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("replica read after write:", balance[0].Value)
	st, err := c.ReplicaStatus(ctx, "ledger")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("replica is a %s and has applied the update: %v\n", st.Role, st.AppliedLSN >= res.LSN)

	// One writer per document, and it lives on the primary.
	ro, err := client.Dial(ctx, replica)
	if err != nil {
		log.Fatal(err)
	}
	defer ro.Close()
	_, err = ro.Update(ctx, "ledger", `<xupdate:modifications version="1.0" xmlns:xupdate="http://www.xmldb.org/xupdate">
	  <xupdate:remove select="/ledger/account"/>
	</xupdate:modifications>`)
	fmt.Println("write to the replica refused read-only:", errors.Is(err, client.ErrReadOnly))
	// Output:
	// replica read after write: 175
	// replica is a follower and has applied the update: true
	// write to the replica refused read-only: true
}

// What a networked client does: load, query with variables, update, and
// a pinned read that ignores a concurrent commit until EndRead.
func Example_server() {
	ctx := context.Background()
	db, _ := mxq.Open(mxq.Options{})
	defer db.Close()
	srv := server.New(server.Config{DB: db}) // mxqd does this around a Database
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	go srv.Serve(l)
	defer srv.Shutdown(5 * time.Second)

	// One Client is one session: its requests are sequential, and
	// concurrency comes from more clients.
	c, err := client.Dial(ctx, l.Addr().String())
	if err != nil {
		log.Fatal(err)
	}
	defer c.Close()
	err = c.Load(ctx, "catalog", `<catalog>
	  <product sku="P-100"><name>Copper kettle</name><price>49.50</price></product>
	  <product sku="P-200"><name>Iron skillet</name><price>32.00</price></product>
	</catalog>`)
	if err != nil {
		log.Fatal(err)
	}
	names, _ := c.Query(ctx, "catalog", `/catalog/product/name/text()`, nil)
	for _, item := range names {
		fmt.Println("product:", item.Value)
	}
	price, _ := c.Query(ctx, "catalog", `//product[@sku = $sku]/price/text()`, map[string]string{"sku": "P-200"})
	fmt.Println("P-200 price:", price[0].Value)

	// Every query until EndRead reads the version committed at BeginRead.
	if _, err := c.BeginRead(ctx, "catalog"); err != nil {
		log.Fatal(err)
	}
	writer, err := client.Dial(ctx, l.Addr().String())
	if err != nil {
		log.Fatal(err)
	}
	defer writer.Close()
	_, err = writer.Update(ctx, "catalog", `<xupdate:modifications version="1.0" xmlns:xupdate="http://www.xmldb.org/xupdate">
	  <xupdate:append select="/catalog"><product sku="P-300"><name>Gold ladle</name><price>180.00</price></product></xupdate:append>
	</xupdate:modifications>`)
	if err != nil {
		log.Fatal(err)
	}
	pinned, _ := c.Query(ctx, "catalog", `count(//product)`, nil)
	fresh, _ := writer.Query(ctx, "catalog", `count(//product)`, nil)
	fmt.Printf("pinned sees %s products, unpinned %s\n", pinned[0].Value, fresh[0].Value)
	if err := c.EndRead(ctx, "catalog"); err != nil {
		log.Fatal(err)
	}
	after, _ := c.Query(ctx, "catalog", `count(//product)`, nil)
	fmt.Println("after EndRead:", after[0].Value)
	// Output:
	// product: Copper kettle
	// product: Iron skillet
	// P-200 price: 32.00
	// pinned sees 2 products, unpinned 3
	// after EndRead: 3
}
