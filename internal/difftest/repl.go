package difftest

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"mxq"
	"mxq/internal/chunkstore"
	"mxq/internal/ckpt"
	"mxq/internal/core"
	"mxq/internal/repl"
	"mxq/internal/shred"
	"mxq/internal/tx"
	"mxq/internal/vfs"
	"mxq/internal/wal"
	"mxq/internal/wire"
)

// ReplConfig describes one replication workload: a seeded primary
// commits batches through the transaction manager while a follower —
// the product's, an mxq.Database running FollowDocument over a real
// loopback connection to repl.Serve — replays them. The follower is
// repeatedly disconnected mid-stream, crash-restarted from its own
// durability directory (optionally with its WAL cut at a random byte
// offset, the same injection the crash mode uses), and left behind
// while the primary commits and prunes — forcing both resume paths:
// gap-free WAL replay and re-bootstrap from a pinned image (manifest,
// then only the chunks the follower's chunk store is missing).
type ReplConfig struct {
	Seed     int64
	Rounds   int // disconnect / crash / reconnect cycles
	Batches  int // batches committed while the follower is connected
	Offline  int // batches committed while the follower is away
	BatchOps int
	DocSize  int
	PageSize int
	Fill     float64
	// SegmentBytes small + CheckpointEvery low makes primary pruning
	// outrun a disconnected follower, forcing snapshot re-bootstraps.
	SegmentBytes    int64
	CheckpointEvery int // primary checkpoint every N commits (0: initial only)
	FollowerCkpt    int // the follower's CheckpointEvery.Records (0: bootstrap images only)
	// ForceLap keeps committing and checkpointing while the follower is
	// away until its LSN is pruned out of the primary's WAL, so every
	// reconnect after the first provably takes the snapshot path.
	ForceLap bool
}

// RunRepl executes one replication workload. The contract it checks:
// a follower is at all times a crash-recovered image of the primary at
// its applied LSN — after every disconnect, crash, WAL cut and
// re-bootstrap, the follower's document serializes exactly like the
// naive oracle replayed to the LSN the follower reports applied, and a
// connected follower always converges to the primary's tail. It also
// checks the prune fence: while a follower subscription is live, the
// primary's WAL can always stream past the tracker's barrier.
func RunRepl(t *testing.T, cfg ReplConfig) {
	t.Helper()
	rng := rand.New(rand.NewSource(cfg.Seed))
	pdir := t.TempDir()
	tree := randomDoc(rng, cfg.DocSize)

	log, err := wal.Open(filepath.Join(pdir, "d.wal"), wal.Options{NoSync: true, SegmentBytes: cfg.SegmentBytes})
	if err != nil {
		t.Fatalf("seed %d: %v", cfg.Seed, err)
	}
	defer log.Close()
	paged, err := core.Build(tree, core.Options{PageSize: cfg.PageSize, FillFactor: cfg.Fill})
	if err != nil {
		t.Fatalf("seed %d: building paged store: %v", cfg.Seed, err)
	}
	built := serializeView(t, paged)
	m := tx.NewManager(paged, log)
	tracker := repl.NewTracker()
	ck := ckpt.New(vfs.OS, pdir, "d", log, m.PinCheckpoint, ckpt.DefaultChunkStore(pdir, "d"), tracker.Barrier)
	if _, err := ck.Run(); err != nil {
		t.Fatalf("seed %d: initial checkpoint: %v", cfg.Seed, err)
	}

	src := repl.Source{Name: "d", Log: log, Pin: m.PinCheckpoint, Track: tracker}
	var subs wireLog
	addr, shutdown := serveRepl(t, src, &subs)
	defer shutdown()

	f := &replFollower{opts: mxq.Options{
		Dir: t.TempDir(), NoSync: true, WALSegmentBytes: cfg.SegmentBytes,
		CheckpointEvery: mxq.CheckpointPolicy{Records: cfg.FollowerCkpt},
	}}
	f.open(t)
	defer func() { f.db.Close() }()
	stop := func() {} // stopped on every exit: shutdown waits out its connection
	defer func() { stop() }()

	// The committed history keyed by commit LSN; the oracle replays a
	// prefix of it at every verification point.
	batches := make(map[uint64][]op)
	batchNo, committed := 0, 0
	commit := func(n int) {
		t.Helper()
		for b := 0; b < n; b++ {
			batchNo++
			txn := m.Begin()
			pending := genBatch(t, cfg.Seed, rng, txn, batchNo, batchNo*1000, cfg.BatchOps)
			if rng.Intn(5) == 0 { // some batches abort: no record, no oracle ops
				txn.Abort()
				continue
			}
			if err := txn.Commit(); err != nil {
				t.Fatalf("seed %d batch %d: commit: %v", cfg.Seed, batchNo, err)
			}
			committed++
			batches[log.LastLSN()] = pending
			if cfg.CheckpointEvery > 0 && committed%cfg.CheckpointEvery == 0 {
				if _, err := ck.Run(); err != nil {
					t.Fatalf("seed %d batch %d: checkpoint: %v", cfg.Seed, batchNo, err)
				}
				// Prune fence: a live follower's acked LSN must still be
				// streamable after every checkpoint's prune.
				if b := tracker.Barrier(); b != ^uint64(0) && !log.CanStream(b) {
					t.Fatalf("seed %d: prune fence violated: barrier %d no longer streamable", cfg.Seed, b)
				}
			}
		}
	}

	for round := 1; round <= cfg.Rounds; round++ {
		// Commit (and maybe prune) while the follower is away: with small
		// segments and frequent checkpoints this outruns the follower's
		// LSN, so the reconnect takes the snapshot path.
		commit(cfg.Offline)
		if d := f.doc(); cfg.ForceLap && d != nil {
			applied := d.AppliedLSN()
			for lap := 0; log.CanStream(applied); lap++ {
				if lap == 50 {
					t.Fatalf("seed %d round %d: could not prune the primary past follower LSN %d",
						cfg.Seed, round, applied)
				}
				commit(1)
				if _, err := ck.Run(); err != nil {
					t.Fatalf("seed %d: lap checkpoint: %v", cfg.Seed, err)
				}
			}
		}

		stop, err = f.db.FollowDocument(addr, "d")
		if err != nil {
			t.Fatalf("seed %d: %v", cfg.Seed, err)
		}
		commit(cfg.Batches)
		// Every stop below comes after this round's subscription is on the
		// wire, so each FollowDocument is at least one subscription.
		waitFor(t, func() (bool, string) {
			subs.mu.Lock()
			n := len(subs.subs)
			subs.mu.Unlock()
			return n >= round, fmt.Sprintf("seed %d: %d subscriptions after %d FollowDocument calls", cfg.Seed, n, round)
		})

		final := round == cfg.Rounds
		if final || rng.Intn(2) == 0 {
			// Converged stop: wait for the follower to reach the primary's
			// tail, then verify full agreement with both the oracle and
			// the primary's current version.
			tail := log.LastLSN()
			waitFor(t, func() (bool, string) {
				var applied uint64
				if d := f.doc(); d != nil {
					applied = d.AppliedLSN()
				}
				return applied >= tail, fmt.Sprintf("seed %d: follower stuck at LSN %d, want %d", cfg.Seed, applied, tail)
			})
			stop()
			got := oracleCheckRepl(t, cfg, tree, batches, f.doc(), tail, "converged follower")
			rv := m.AcquireRead()
			primary := serializeView(t, rv.View())
			rv.Close()
			if got != primary {
				t.Fatalf("seed %d round %d: converged follower diverges from primary at LSN %d\nfollower: %s\nprimary:  %s",
					cfg.Seed, round, tail, got, primary)
			}
			if d := f.doc(); cfg.FollowerCkpt > 0 {
				// A failed follower checkpoint is only logged; it shows here
				// as a WAL tail that never drops under the policy.
				waitFor(t, func() (bool, string) {
					n := d.Stats().WALRecords
					return n < cfg.FollowerCkpt, fmt.Sprintf("seed %d: follower checkpoints stalled: %d WAL records above its image, policy %d",
						cfg.Seed, n, cfg.FollowerCkpt)
				})
			}
		} else {
			// Mid-stream stop: cut the connection wherever the stream
			// happens to be. The follower must still be a clean prefix.
			time.Sleep(time.Duration(rng.Intn(25)) * time.Millisecond)
			stop()
			if d := f.doc(); d != nil {
				applied := d.AppliedLSN()
				if applied > log.LastLSN() {
					t.Fatalf("seed %d round %d: follower applied %d beyond primary tail %d",
						cfg.Seed, round, applied, log.LastLSN())
				}
				oracleCheckRepl(t, cfg, tree, batches, d, applied, "mid-stream follower")
			}
		}

		// Crash the follower process: close it, optionally cut its WAL at
		// a random byte offset, recover from its own artifacts, and check
		// the recovered document against the oracle at the LSN it
		// reports.
		if d := f.crash(t, rng, cfg); d != nil {
			oracleCheckRepl(t, cfg, tree, batches, d, d.AppliedLSN(), "crash-recovered follower")
		}
	}

	// The follower subscribes again only after a failure — an Apply, a
	// bootstrap, a protocol check — so, with every connection the primary
	// served now closed (no tap writes any more), each FollowDocument must
	// be exactly one subscription.
	stop()
	shutdown()
	// The built store is the primary's version 0: no commit wrote it.
	if got := serializeView(t, paged); got != built {
		t.Fatalf("seed %d: the primary's version 0 was written\nbuilt: %.400s\nnow:   %.400s", cfg.Seed, built, got)
	}
	if n := len(subs.subs); n != cfg.Rounds {
		t.Fatalf("seed %d: %d subscriptions for %d FollowDocument calls: the follower failed and resubscribed",
			cfg.Seed, n, cfg.Rounds)
	}

	// Coverage tripwires, read off the wire: the lapping shape must have
	// answered a follower that had state with a snapshot, and — every
	// round ending in a follower crash-restart that keeps its chunk store
	// — at least one such re-bootstrap must have shipped fewer chunks
	// than its image names (transfer is O(churn), not O(document); the
	// count is held against the image's own size, because random subtree
	// deletes and inserts resize the document between bootstraps); and a
	// never-pruned primary must never push a follower with state off the
	// gap-free WAL-replay path.
	rebootstraps, reused := subs.rebootstraps()
	if cfg.ForceLap && (rebootstraps == 0 || reused == 0) {
		t.Fatalf("seed %d: lapped follower: %d re-bootstraps, %d of them reusing local chunks; want both > 0",
			cfg.Seed, rebootstraps, reused)
	}
	if cfg.CheckpointEvery == 0 && !cfg.ForceLap && rebootstraps > 0 {
		t.Fatalf("seed %d: pruning disabled but a follower with state was answered with a snapshot %d times",
			cfg.Seed, rebootstraps)
	}
}

// oracleCheckRepl replays a fresh oracle to lsn and compares it against
// the follower's document, returning the document's XML.
func oracleCheckRepl(t *testing.T, cfg ReplConfig, tree *shred.Tree, batches map[uint64][]op, d *mxq.Document, lsn uint64, who string) string {
	t.Helper()
	got, err := d.XML()
	if err != nil {
		t.Fatalf("seed %d: serializing %s: %v", cfg.Seed, who, err)
	}
	if want := oracleAt(t, cfg.Seed, tree, batches, lsn); got != want {
		t.Fatalf("seed %d: %s diverges from oracle at LSN %d\nfollower: %s\noracle:   %s",
			cfg.Seed, who, lsn, got, want)
	}
	return got
}

// serveRepl runs a minimal subscription listener: Hello is answered
// with replication, SubscribeWAL hands the connection to repl.Serve
// through a tap that records the subscription in subs. shutdown closes
// the listener and waits out every connection (the follower must be
// stopped first — its death is what unblocks Serve).
func serveRepl(t *testing.T, src repl.Source, subs *wireLog) (addr string, shutdown func()) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer conn.Close()
				replConn(conn, src, subs)
			}()
		}
	}()
	return ln.Addr().String(), func() {
		ln.Close()
		wg.Wait()
	}
}

func replConn(conn net.Conn, src repl.Source, subs *wireLog) {
	for {
		fr, err := wire.ReadFrame(conn, 0)
		if err != nil {
			return
		}
		switch fr.Op {
		case wire.OpHello:
			var p wire.PayloadBuilder
			p.Uvarint(wire.Version).Uvarint(wire.FeatReplication)
			if wire.WriteFrame(conn, wire.Frame{ID: fr.ID, Op: wire.StatusOK, Payload: p.Bytes()}) != nil {
				return
			}
		case wire.OpSubscribeWAL:
			r := wire.NewPayloadReader(fr.Payload)
			if _, err := r.String(); err != nil { // doc name; single-doc harness
				return
			}
			after, err := r.Uvarint()
			if err != nil {
				return
			}
			sub := &subscription{after: after}
			subs.mu.Lock()
			subs.subs = append(subs.subs, sub)
			subs.mu.Unlock()
			repl.Serve(&tap{Conn: conn, log: subs, sub: sub}, fr.ID, after, src, 0, nil)
			return
		default:
			return
		}
	}
}

// subscription is one SubscribeWAL as the primary answered it: the
// follower's after, the mode of the first response, the distinct chunks
// the manifest names, and the chunks the ChunkData frames carried, up to
// the one with the last flag (complete).
type subscription struct {
	after          uint64
	mode           byte
	named, shipped int
	complete       bool
}

// wireLog is every subscription the primary served; the coverage
// tripwires read it instead of asking the follower.
type wireLog struct {
	mu   sync.Mutex
	subs []*subscription
}

// rebootstraps counts the subscriptions from a follower with state that
// were answered with a snapshot, and those of them whose completed chunk
// stream shipped fewer chunks than the manifest names.
func (l *wireLog) rebootstraps() (n, reused int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, s := range l.subs {
		if s.after == wire.SubscribeNone || s.mode != wire.ModeSnapshotChunked {
			continue
		}
		n++
		if s.complete && s.shipped < s.named {
			reused++
		}
	}
	return n, reused
}

// tap records what repl.Serve writes to one subscription's connection.
// wire.WriteFrame hands a frame over in more than one Write (header,
// then payload), so the tap reassembles frames from what it has seen.
type tap struct {
	net.Conn
	log     *wireLog
	sub     *subscription
	pending []byte // written bytes not yet part of a whole frame
}

func (c *tap) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.pending = append(c.pending, p[:n]...)
	for {
		r := bytes.NewReader(c.pending)
		fr, ferr := wire.ReadFrame(r, 0)
		if ferr != nil {
			return n, err
		}
		c.pending = c.pending[len(c.pending)-r.Len():]
		c.record(fr)
	}
}

// record notes what one frame the primary sent says about the
// subscription.
func (c *tap) record(fr wire.Frame) {
	c.log.mu.Lock()
	defer c.log.mu.Unlock()
	s := c.sub
	r := wire.NewPayloadReader(fr.Payload)
	switch fr.Op {
	case wire.StatusOK: // the mode response, the one status frame Serve sends
		s.mode, _ = r.Byte()
	case wire.OpSnapManifest:
		var m core.ChunkManifest
		if json.Unmarshal(fr.Payload, &m) == nil {
			hs, _ := m.ChunkHashes()
			distinct := make(map[chunkstore.Hash]bool, len(hs))
			for _, h := range hs {
				distinct[h] = true
			}
			s.named = len(distinct)
		}
	case wire.OpChunkData:
		last, _ := r.Byte()
		chunks, _ := r.Uvarint()
		s.shipped += int(chunks)
		s.complete = last == 1
	}
}

// replFollower is the follower process: an mxq.Database over its own
// directory, following "d" with the docSink mxqd -follow runs.
type replFollower struct {
	opts mxq.Options
	db   *mxq.Database
}

func (f *replFollower) open(t *testing.T) {
	t.Helper()
	db, err := mxq.Open(f.opts)
	if err != nil {
		t.Fatal(err)
	}
	f.db = db
}

// doc is the followed document, nil while the follower holds no state.
func (f *replFollower) doc() *mxq.Document {
	d, err := f.db.OpenDocument("d")
	if err != nil {
		return nil
	}
	return d
}

// crash simulates a follower process crash and restart: the database is
// closed, the local WAL is cut at a random byte offset half the time
// (disk loss past the last sync — or even past acked LSNs, which the
// snapshot fallback must absorb), and the document is recovered from
// local artifacts alone. It returns the recovered document, nil when
// the follower never bootstrapped (nothing to crash). The caller must
// have stopped the subscription.
func (f *replFollower) crash(t *testing.T, rng *rand.Rand, cfg ReplConfig) *mxq.Document {
	t.Helper()
	d := f.doc()
	if d == nil {
		return nil
	}
	appliedBefore := d.AppliedLSN()
	f.db.Close()
	if rng.Intn(2) == 0 {
		cutWAL(t, rng, filepath.Join(f.opts.Dir, "d.wal"))
	}
	f.open(t)
	d, err := f.db.OpenDocument("d")
	if err != nil {
		t.Fatalf("seed %d: follower recovery errored (must degrade, never fail): %v", cfg.Seed, err)
	}
	lsn := d.AppliedLSN()
	if lsn > appliedBefore {
		t.Fatalf("seed %d: follower recovered LSN %d beyond what it had applied (%d)", cfg.Seed, lsn, appliedBefore)
	}
	if last := d.LastLSN(); last != lsn {
		t.Fatalf("seed %d: recovered follower applied %d, its WAL ends at %d", cfg.Seed, lsn, last)
	}
	if err := d.CheckInvariants(); err != nil {
		t.Fatalf("seed %d: recovered follower invariants: %v", cfg.Seed, err)
	}
	return d
}

// waitFor polls cond until it reports done, failing with its message
// after a deadline generous enough for a snapshot re-bootstrap plus
// catch-up behind the follower's reconnect backoff.
func waitFor(t *testing.T, cond func() (done bool, msg string)) {
	t.Helper()
	for deadline := time.Now().Add(20 * time.Second); ; time.Sleep(2 * time.Millisecond) {
		done, msg := cond()
		if done {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal(msg)
		}
	}
}

// ReplConfigs returns the seeded replication matrix; iters scales the
// number of seeds per shape (the nightly soak raises it).
func ReplConfigs(iters int) []ReplConfig {
	var cfgs []ReplConfig
	shapes := []ReplConfig{
		// Tiny segments, aggressive pruning: disconnected followers get
		// lapped and re-bootstrap from snapshots. The document is large
		// next to the churn between bootstraps, so a re-bootstrap has
		// unchanged chunks to find in the follower's store.
		{Rounds: 4, Batches: 6, Offline: 4, BatchOps: 4, DocSize: 1200,
			PageSize: 16, Fill: 0.75, SegmentBytes: 512, CheckpointEvery: 2, FollowerCkpt: 3, ForceLap: true},
		// One big segment, no mid-run pruning: reconnects always resume by
		// gap-free WAL replay.
		{Rounds: 3, Batches: 8, Offline: 3, BatchOps: 3, DocSize: 60,
			PageSize: 32, Fill: 0.8, SegmentBytes: wal.DefaultSegmentBytes, FollowerCkpt: 2},
		// Mid shape: rotation without much pruning, no follower
		// checkpoints beyond bootstrap (long local replay chains).
		{Rounds: 3, Batches: 5, Offline: 2, BatchOps: 5, DocSize: 100,
			PageSize: 16, Fill: 0.7, SegmentBytes: 1024, CheckpointEvery: 5},
	}
	for i := 0; i < iters; i++ {
		for j, s := range shapes {
			s.Seed = int64(7000*i + j)
			cfgs = append(cfgs, s)
		}
	}
	return cfgs
}

// replName labels one config for subtest naming.
func replName(c ReplConfig) string {
	return fmt.Sprintf("seed=%d/seg=%d/ckpt=%d", c.Seed, c.SegmentBytes, c.CheckpointEvery)
}

// cutWAL truncates the concatenated segment stream at a uniformly random
// byte offset: a cut inside segment k truncates k mid-file and deletes
// every later segment. It reports whether the cut was a no-op (landed at
// the very end of the stream).
func cutWAL(t *testing.T, rng *rand.Rand, walPath string) (noop bool) {
	t.Helper()
	segs, err := wal.SegmentPaths(walPath)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) == 0 {
		t.Fatalf("no WAL segments found at %s — nothing to cut", walPath)
	}
	var total int64
	sizes := make([]int64, len(segs))
	for i, s := range segs {
		fi, err := os.Stat(s)
		if err != nil {
			t.Fatal(err)
		}
		sizes[i] = fi.Size()
		total += fi.Size()
	}
	cut := rng.Int63n(total + 1)
	if cut == total {
		return true
	}
	for i, s := range segs {
		if cut >= sizes[i] {
			cut -= sizes[i]
			continue
		}
		if err := os.Truncate(s, cut); err != nil {
			t.Fatal(err)
		}
		for _, later := range segs[i+1:] {
			if err := os.Remove(later); err != nil {
				t.Fatal(err)
			}
		}
		return false
	}
	return true
}
