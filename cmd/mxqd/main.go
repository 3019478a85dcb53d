// Command mxqd serves an mxq database over TCP. See the internal/server
// package documentation for the wire protocol and client/ for the Go
// client. It drains gracefully on SIGINT/SIGTERM: in-flight requests
// finish (under -drain-timeout), sessions release their snapshots, then
// the database closes, flushing WAL segments and checkpointers. With
// -dir it serves every document checkpointed there, each recovered on
// its first request and kept attached until shutdown. A request that
// panics ends its own session (answered with an internal error, the
// stack logged), not the daemon; only a panic inside a commit's
// critical section still ends the process.
//
// With -follow, mxqd runs as a read replica: it subscribes every
// document of the primary at the given address (an empty replica
// bootstraps from a checkpoint image, then replays the WAL as the
// primary commits), serves the same read protocol, and rejects writes
// with a typed read-only error. Reads carry read-your-writes LSNs, so
// a client that wrote on the primary never silently reads an older
// version here.
//
//	mxqd -addr :4477 -dir primary/ &
//	mxqd -addr :4478 -dir replica/ -follow 127.0.0.1:4477 &
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"os/signal"
	"syscall"
	"time"

	"mxq"
	"mxq/client"
	"mxq/internal/server"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:4477", "listen address")
	dir := flag.String("dir", "", "durability directory (segmented WAL + checkpoints); empty = in-memory")
	follow := flag.String("follow", "", "primary address: run as a read-only replica of every document there (requires -dir)")
	nosync := flag.Bool("nosync", false, "skip fsync on WAL appends")
	ckptRecords := flag.Int("ckpt-records", 0, "auto-checkpoint once the WAL tail exceeds this many records (0 = off)")
	maxConcurrent := flag.Int64("max-concurrent", 64, "admission: weight units executing at once (queries 1, updates/loads 2)")
	maxWaiters := flag.Int("max-waiters", 0, "admission: queued requests before overload rejection (0 = 4x max-concurrent)")
	drainTimeout := flag.Duration("drain-timeout", 10*time.Second, "shutdown: how long in-flight requests may finish")
	flag.Parse()

	logger := log.New(os.Stderr, "mxqd: ", log.LstdFlags)
	if *follow != "" && *dir == "" {
		logger.Fatal("-follow requires -dir (a replica's acks promise durably-applied records)")
	}

	db, err := mxq.Open(mxq.Options{
		Dir: *dir, NoSync: *nosync,
		CheckpointEvery: mxq.CheckpointPolicy{Records: *ckptRecords},
	})
	if err != nil {
		logger.Fatal(err)
	}

	// Follower mode: subscribe every document the primary has, then
	// serve the read path read-only while the subscriptions replay the
	// primary's WAL in the background.
	var stopFollows []func()
	if *follow != "" {
		names, err := primaryDocs(*follow)
		if err != nil {
			logger.Fatalf("listing documents on primary %s: %v", *follow, err)
		}
		if len(names) == 0 {
			logger.Printf("warning: primary %s has no documents yet; nothing to follow", *follow)
		}
		for _, name := range names {
			stop, err := db.FollowDocument(*follow, name)
			if err != nil {
				logger.Fatalf("following %q from %s: %v", name, *follow, err)
			}
			stopFollows = append(stopFollows, stop)
		}
		logger.Printf("following %d document(s) from %s (read-only)", len(names), *follow)
	}

	srv := server.New(server.Config{
		DB:            db,
		MaxConcurrent: *maxConcurrent,
		MaxWaiters:    *maxWaiters,
		ReadOnly:      *follow != "",
		Logf:          logger.Printf,
	})
	l, err := net.Listen("tcp", *addr)
	if err != nil {
		logger.Fatal(err)
	}
	logger.Printf("listening on %s (dir=%q max-concurrent=%d)", l.Addr(), *dir, *maxConcurrent)

	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(l) }()

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	select {
	case sig := <-sigc:
		logger.Printf("received %s, draining", sig)
		if err := srv.Shutdown(*drainTimeout); err != nil {
			logger.Print(err)
		}
	case err := <-errc:
		if err != nil {
			logger.Fatal(err)
		}
	}
	// Stop subscriptions before closing the database: a record batch
	// mid-apply finishes, then the follower goroutines exit.
	for _, stop := range stopFollows {
		stop()
	}
	if err := db.Close(); err != nil {
		logger.Fatal(err)
	}
	fmt.Fprintln(os.Stderr, "mxqd: shut down cleanly")
}

// primaryDocs asks the primary which documents it serves.
func primaryDocs(addr string) ([]string, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	c, err := client.Dial(ctx, addr)
	if err != nil {
		return nil, err
	}
	defer c.Close()
	return c.ListDocs(ctx)
}
