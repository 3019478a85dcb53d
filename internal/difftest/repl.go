package difftest

import (
	"fmt"
	"math/rand"
	"net"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"mxq/internal/chunkstore"
	"mxq/internal/ckpt"
	"mxq/internal/core"
	"mxq/internal/naive"
	"mxq/internal/repl"
	"mxq/internal/shred"
	"mxq/internal/tx"
	"mxq/internal/wal"
	"mxq/internal/wire"
)

// ReplConfig describes one replication workload: a seeded primary
// commits batches through the transaction manager while a follower —
// subscribed over a real loopback connection through repl.Serve and
// repl.Follower — replays them. The follower is repeatedly
// disconnected mid-stream, crash-restarted from its own durability
// directory (optionally with its WAL cut at a random byte offset, the
// same injection the crash mode uses), and left behind while the
// primary commits and prunes — forcing both resume paths: gap-free WAL
// replay and re-bootstrap from a pinned image (manifest, then only the
// chunks the follower's chunk store is missing).
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
	FollowerCkpt    int // follower local checkpoint every N applied batches
	// ForceLap keeps committing and checkpointing while the follower is
	// away until its LSN is pruned out of the primary's WAL, so every
	// reconnect after the first provably takes the snapshot path.
	ForceLap bool
}

// RunRepl executes one replication workload. The contract it checks:
// a follower is at all times a crash-recovered image of the primary at
// its applied LSN — after every disconnect, crash, WAL cut and
// re-bootstrap, the follower's store is bit-identical to the naive
// oracle replayed to exactly the LSN the follower reports applied, and
// a connected follower always converges to the primary's tail. It also
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
	m := tx.NewManager(paged, log)
	tracker := repl.NewTracker()
	ck := ckpt.New(pdir, "d", log, m.PinCheckpoint)
	ck.SetPruneBarrier(tracker.Barrier)
	if _, err := ck.Run(); err != nil {
		t.Fatalf("seed %d: initial checkpoint: %v", cfg.Seed, err)
	}

	src := repl.Source{Name: "d", Log: log, Pin: m.PinCheckpoint, Track: tracker}
	addr, shutdown := serveRepl(t, src)
	defer shutdown()

	sink := newReplSink(t.TempDir(), wal.Options{NoSync: true, SegmentBytes: cfg.SegmentBytes}, cfg.FollowerCkpt)

	// The committed history keyed by commit LSN; the oracle replays a
	// prefix of it at every verification point.
	batches := make(map[uint64][]op)
	batchNo, committed := 0, 0
	commit := func(n int) {
		t.Helper()
		for b := 0; b < n; b++ {
			batchNo++
			txn := m.Begin()
			var pending []op
			for i := 0; i < cfg.BatchOps; i++ {
				o, ok := genOp(rng, txn, batchNo*1000+i)
				if !ok {
					t.Fatalf("seed %d batch %d: tx image has no live nodes", cfg.Seed, batchNo)
				}
				pending = append(pending, o)
				if err := o.applyPaged(txn); err != nil {
					t.Fatalf("seed %d batch %d: tx %v: %v", cfg.Seed, batchNo, o, err)
				}
			}
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
		if cfg.ForceLap {
			if applied, ok := sink.applied(); ok {
				lapped := false
				for lap := 0; lap < 50; lap++ {
					if !log.CanStream(applied) {
						lapped = true
						break
					}
					commit(1)
					if _, err := ck.Run(); err != nil {
						t.Fatalf("seed %d: lap checkpoint: %v", cfg.Seed, err)
					}
				}
				if !lapped {
					t.Fatalf("seed %d round %d: could not prune the primary past follower LSN %d",
						cfg.Seed, round, applied)
				}
			}
		}

		stop := startFollower(t, addr, sink)
		commit(cfg.Batches)

		final := round == cfg.Rounds
		if final || rng.Intn(2) == 0 {
			// Converged stop: wait for the follower to reach the primary's
			// tail, then verify full agreement with both the oracle and
			// the primary's live store.
			tail := log.LastLSN()
			waitApplied(t, cfg, sink, tail)
			stop()
			got := serializeView(t, sink.view())
			oracleCheckRepl(t, cfg, tree, batches, got, tail, "converged follower")
			rv := m.AcquireRead()
			primary := serializeView(t, rv.View())
			rv.Close()
			if got != primary {
				t.Fatalf("seed %d round %d: converged follower diverges from primary at LSN %d\nfollower: %s\nprimary:  %s",
					cfg.Seed, round, tail, got, primary)
			}
		} else {
			// Mid-stream stop: cut the connection wherever the stream
			// happens to be. The follower must still be a clean prefix.
			time.Sleep(time.Duration(rng.Intn(25)) * time.Millisecond)
			stop()
			if applied, ok := sink.appliedQuiesced(); ok {
				if applied > log.LastLSN() {
					t.Fatalf("seed %d round %d: follower applied %d beyond primary tail %d",
						cfg.Seed, round, applied, log.LastLSN())
				}
				oracleCheckRepl(t, cfg, tree, batches, serializeView(t, sink.view()), applied, "mid-stream follower")
			}
		}

		// Crash the follower process: drop all in-memory state, optionally
		// cut its WAL at a random byte offset, recover from its own
		// artifacts, and check the recovered image against the oracle at
		// the LSN recovery reports.
		if recLSN, ok := sink.crash(t, rng, cfg); ok {
			oracleCheckRepl(t, cfg, tree, batches, serializeView(t, sink.view()), recLSN, "crash-recovered follower")
		}
	}

	if sinkErr := sink.err(); sinkErr != nil {
		t.Fatalf("seed %d: follower sink recorded error: %v", cfg.Seed, sinkErr)
	}

	// Coverage tripwires: the lapping shape must have taken the snapshot
	// re-bootstrap path and — every round ending in a follower
	// crash-restart that keeps its chunk store — at least one re-bootstrap
	// must have fetched fewer chunks than a cold bootstrap of the same
	// image would, which is every chunk it names (transfer is O(churn),
	// not O(document); the count is held against the image's own size, not
	// the first bootstrap's, because random subtree deletes and inserts
	// resize the document between bootstraps); and a never-pruned primary
	// must never push a follower off the gap-free WAL-replay path.
	fetches := sink.bootstrapFetches()
	boots := len(fetches)
	if cfg.ForceLap && boots < 2 {
		t.Fatalf("seed %d: snapshot re-bootstrap path not exercised (%d bootstraps)", cfg.Seed, boots)
	}
	if cfg.ForceLap {
		reused := false
		for _, f := range fetches[1:] {
			reused = reused || f.fetched < f.named
		}
		if !reused {
			t.Fatalf("seed %d: no re-bootstrap reused a local chunk: {fetched named} per bootstrap %v", cfg.Seed, fetches)
		}
	}
	if cfg.CheckpointEvery == 0 && !cfg.ForceLap && boots != 1 {
		t.Fatalf("seed %d: pruning disabled but follower bootstrapped %d times (want exactly the initial one)",
			cfg.Seed, boots)
	}
}

// oracleCheckRepl replays a fresh oracle to lsn and compares it against
// the already-serialized follower bytes.
func oracleCheckRepl(t *testing.T, cfg ReplConfig, tree *shred.Tree, batches map[uint64][]op, got string, lsn uint64, who string) {
	t.Helper()
	oracle, err := naive.Build(tree)
	if err != nil {
		t.Fatalf("seed %d: building oracle: %v", cfg.Seed, err)
	}
	for l := uint64(1); l <= lsn; l++ {
		for _, o := range batches[l] {
			if err := o.applyNaive(oracle); err != nil {
				t.Fatalf("seed %d: oracle replay of LSN %d op %v: %v", cfg.Seed, l, o, err)
			}
		}
	}
	if want := serializeView(t, oracle); got != want {
		t.Fatalf("seed %d: %s diverges from oracle at LSN %d\nfollower: %s\noracle:   %s",
			cfg.Seed, who, lsn, got, want)
	}
}

// serveRepl runs a minimal subscription listener: Hello is answered
// with replication, SubscribeWAL hands the connection to
// repl.Serve. shutdown closes the listener and waits out every
// connection (the follower must be stopped first — its death is what
// unblocks Serve).
func serveRepl(t *testing.T, src repl.Source) (addr string, shutdown func()) {
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
				replConn(conn, src)
			}()
		}
	}()
	return ln.Addr().String(), func() {
		ln.Close()
		wg.Wait()
	}
}

func replConn(conn net.Conn, src repl.Source) {
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
			repl.Serve(conn, fr.ID, after, src, 0, nil)
			return
		default:
			return
		}
	}
}

// startFollower runs one subscription until its stop function is
// called; the stop function waits the follower's goroutine out, so
// after it returns the sink is quiescent.
func startFollower(t *testing.T, addr string, sink *replSink) (stop func()) {
	t.Helper()
	f := &repl.Follower{Addr: addr, Doc: "d", Sink: sink}
	stopC := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		f.Run(stopC)
	}()
	return func() {
		close(stopC)
		<-done
	}
}

// waitApplied polls until the sink has applied lsn; the deadline is
// generous because a snapshot re-bootstrap plus catch-up sits behind
// the follower's reconnect backoff.
func waitApplied(t *testing.T, cfg ReplConfig, sink *replSink, lsn uint64) {
	t.Helper()
	deadline := time.Now().Add(20 * time.Second)
	for {
		if applied, ok := sink.applied(); ok && applied >= lsn {
			return
		}
		if time.Now().After(deadline) {
			applied, _ := sink.applied()
			t.Fatalf("seed %d: follower stuck at LSN %d, want %d (sink error: %v)",
				cfg.Seed, applied, lsn, sink.err())
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// replSink is the follower-side state: a store, manager, local WAL,
// local checkpointer and chunk directory in its own durability
// directory — the same pieces the root package's document sink wires
// together, minus the catalog.
// The mutex covers the handoff between the follower's goroutine (via
// the Sink interface) and the test goroutine (crash/verify while the
// follower is stopped).
type replSink struct {
	mu        sync.Mutex
	dir       string
	wopts     wal.Options
	ckptEvery int

	store    *core.Store
	log      *wal.Log
	mgr      *tx.Manager
	ck       *ckpt.Checkpointer
	applies  int
	puts     int         // chunks fetched since the last completed bootstrap, over all its attempts
	fetches  []bootFetch // one per completed bootstrap
	firstErr error
}

// bootFetch is one bootstrap's transfer: how many chunks the follower
// fetched from the primary, of how many distinct chunks the image names.
type bootFetch struct{ fetched, named int }

func newReplSink(dir string, wopts wal.Options, ckptEvery int) *replSink {
	return &replSink{dir: dir, wopts: wopts, ckptEvery: ckptEvery}
}

func (s *replSink) walPath() string { return filepath.Join(s.dir, "f.wal") }

func (s *replSink) fail(err error) error {
	if s.firstErr == nil {
		s.firstErr = err
	}
	return err
}

func (s *replSink) err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.firstErr
}

func (s *replSink) applied() (uint64, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.mgr == nil {
		return 0, false
	}
	return s.mgr.AppliedLSN(), true
}

// appliedQuiesced and view are test-goroutine accessors; the caller
// guarantees the follower goroutine has exited.
func (s *replSink) appliedQuiesced() (uint64, bool) { return s.applied() }

func (s *replSink) view() *core.Store {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.store
}

// AppliedLSN implements repl.Sink.
func (s *replSink) AppliedLSN() (uint64, bool) { return s.applied() }

// countingStore counts the chunks the follower stores during a
// bootstrap — each one a chunk it fetched from the primary.
type countingStore struct {
	chunkstore.Store
	sink *replSink
}

func (c countingStore) Put(h chunkstore.Hash, data []byte) error {
	c.sink.mu.Lock()
	c.sink.puts++
	c.sink.mu.Unlock()
	return c.Store.Put(h, data)
}

// ChunkStore implements repl.Sink: the chunk directory the local
// checkpointer writes, so a re-bootstrap diffs against everything this
// follower ever checkpointed and still retains.
func (s *replSink) ChunkStore() (chunkstore.Store, error) {
	return countingStore{ckpt.DefaultChunkStore(s.dir, "f"), s}, nil
}

// BootstrapManifest implements repl.Sink: wholesale replacement from a
// checkpoint image's manifest, exactly like the root package's
// document sink — materialize from the local chunk store, wipe local
// artifacts (chunks stay), position a fresh WAL at the image's LSN,
// write an initial local checkpoint so a crash right after recovers
// locally.
func (s *replSink) BootstrapManifest(m *core.ChunkManifest, lsn uint64) error {
	store, err := core.LoadChunked(m, ckpt.DefaultChunkStore(s.dir, "f"))
	if err != nil {
		return s.fail(fmt.Errorf("difftest: materializing bootstrap manifest: %w", err))
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ck != nil {
		s.ck.Close()
	}
	if s.log != nil {
		s.log.Close()
	}
	s.store, s.log, s.mgr, s.ck = nil, nil, nil, nil
	wal.RemoveSegments(s.walPath())
	ckpt.RemoveArtifacts(s.dir, "f")
	log, err := wal.Open(s.walPath(), s.wopts)
	if err != nil {
		return s.fail(err)
	}
	log.EnsureLSN(lsn)
	s.store, s.log = store, log
	s.mgr = tx.NewManager(store, log)
	s.ck = ckpt.New(s.dir, "f", log, s.mgr.PinCheckpoint)
	if _, err := s.ck.Run(); err != nil {
		return s.fail(fmt.Errorf("difftest: bootstrap checkpoint: %w", err))
	}
	hs, _ := m.ChunkHashes() // LoadChunked above already parsed them
	named := make(map[chunkstore.Hash]bool, len(hs))
	for _, h := range hs {
		named[h] = true
	}
	s.fetches = append(s.fetches, bootFetch{fetched: s.puts, named: len(named)})
	s.puts = 0
	return nil
}

func (s *replSink) bootstrapFetches() []bootFetch {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]bootFetch(nil), s.fetches...)
}

// Apply implements repl.Sink: replay the batch through the recovery
// apply path, make it durable, occasionally checkpoint locally so
// crash-recovery floors advance past the bootstrap image.
func (s *replSink) Apply(recs []*wal.Record) (uint64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.mgr == nil {
		return 0, s.fail(fmt.Errorf("difftest: apply before bootstrap"))
	}
	for _, rec := range recs {
		if err := s.mgr.ApplyReplicated(rec); err != nil {
			return 0, s.fail(err)
		}
	}
	last := recs[len(recs)-1].LSN
	if err := s.log.Sync(last); err != nil {
		return 0, s.fail(err)
	}
	s.applies++
	if s.ckptEvery > 0 && s.applies%s.ckptEvery == 0 {
		if _, err := s.ck.Run(); err != nil {
			return 0, s.fail(fmt.Errorf("difftest: follower checkpoint: %w", err))
		}
	}
	return last, nil
}

// crash simulates a follower process crash and restart: all in-memory
// state is dropped, the local WAL is cut at a random byte offset half
// the time (disk loss past the last sync — or even past acked LSNs,
// which the snapshot fallback must absorb), and the document is
// recovered from local artifacts alone. Reports the recovered LSN; ok
// is false when the follower never bootstrapped (nothing to crash).
// Caller must have stopped the follower.
func (s *replSink) crash(t *testing.T, rng *rand.Rand, cfg ReplConfig) (uint64, bool) {
	t.Helper()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.mgr == nil {
		return 0, false
	}
	appliedBefore := s.mgr.AppliedLSN()
	s.ck.Close()
	s.log.Close()
	s.store, s.log, s.mgr, s.ck = nil, nil, nil, nil
	if rng.Intn(2) == 0 {
		cutWAL(t, rng, s.walPath())
	}
	log, err := wal.Open(s.walPath(), s.wopts)
	if err != nil {
		t.Fatalf("seed %d: reopening follower wal: %v", cfg.Seed, err)
	}
	store, lsn, err := ckpt.Recover(s.dir, "f", log, nil)
	if err != nil {
		t.Fatalf("seed %d: follower recovery errored (must degrade, never fail): %v", cfg.Seed, err)
	}
	if lsn > appliedBefore {
		t.Fatalf("seed %d: follower recovered LSN %d beyond what it had applied (%d)", cfg.Seed, lsn, appliedBefore)
	}
	if err := store.CheckInvariants(); err != nil {
		t.Fatalf("seed %d: recovered follower invariants: %v", cfg.Seed, err)
	}
	s.store, s.log = store, log
	s.mgr = tx.NewManager(store, log)
	s.ck = ckpt.New(s.dir, "f", log, s.mgr.PinCheckpoint)
	if got := s.mgr.AppliedLSN(); got != lsn {
		t.Fatalf("seed %d: recovered manager applied %d, recovery reported %d", cfg.Seed, got, lsn)
	}
	return lsn, true
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
