package difftest

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"mxq/internal/chunkstore"
	"mxq/internal/ckpt"
	"mxq/internal/core"
	"mxq/internal/shred"
	"mxq/internal/tx"
	"mxq/internal/wal"
)

// CrashConfig describes one crash-injection workload: a seeded batch
// workload commits through the transaction manager with a segmented WAL
// and periodic online checkpoints, then the WAL is cut at a random byte
// offset — mid-record, mid-segment, or exactly at a rotation boundary —
// and the recovered store is compared against the naive oracle replayed
// to the LSN recovery reports durable.
type CrashConfig struct {
	Seed     int64
	Batches  int // committed/aborted batches before the crash
	BatchOps int // ops per batch
	DocSize  int
	PageSize int
	Fill     float64
	// SegmentBytes should be small enough that the workload rotates
	// through several segments, so cuts land mid-rotation too.
	SegmentBytes int64
	// CheckpointEvery runs an online checkpoint every N committed
	// batches (0: only the initial checkpoint).
	CheckpointEvery int
	// TearCkpt additionally tears a checkpoint artifact after the WAL
	// cut — the newest image or a pack file only the newest image
	// references, truncated at a random offset, or one byte inverted
	// inside a chunk only it references (held deflated if pages are
	// large) — so recovery must degrade to the previous image.
	// Requires CheckpointEvery > 0 (two images must be on disk).
	TearCkpt bool
	// KillInCompaction ends the run inside a checkpoint's chunk GC: the
	// process dies between the publish of a compaction's new pack and
	// the unlinking of the packs it replaces — the disk is copied when
	// the file system sees a pack renamed into place, the chunk
	// directory fsynced, and the first pack removed — on the first
	// compaction the workload causes (it must cause one). Recovery runs
	// over the disk as it stood at that instant — every surviving chunk
	// of the compacted packs held twice.
	KillInCompaction bool
}

// history is RunCrash's seeded workload under way: a random document
// committed to in batches through a tx.Manager over a segmented WAL,
// checkpointed online, with every change to the disk going through a
// diskFS, and the ops of each commit filed under the LSN of its record,
// for the oracle to replay a prefix of.
type history struct {
	cfg     CrashConfig
	rng     *rand.Rand
	dir     string
	tree    *shred.Tree
	log     *wal.Log
	m       *tx.Manager
	ck      *ckpt.Checkpointer
	batches map[uint64][]op
}

func newHistory(t *testing.T, cfg CrashConfig, disk *diskFS, fsync bool) *history {
	t.Helper()
	h := &history{cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed)), dir: t.TempDir(), batches: make(map[uint64][]op)}
	h.tree = randomDoc(h.rng, cfg.DocSize)
	log, err := wal.Open(h.walPath(), wal.Options{NoSync: !fsync, SegmentBytes: cfg.SegmentBytes, FS: disk})
	if err != nil {
		t.Fatalf("seed %d: %v", cfg.Seed, err)
	}
	paged, err := core.Build(h.tree, core.Options{PageSize: cfg.PageSize, FillFactor: cfg.Fill})
	if err != nil {
		t.Fatalf("seed %d: building paged store: %v", cfg.Seed, err)
	}
	h.log, h.m = log, tx.NewManager(paged, log)
	h.ck = ckpt.New(disk, h.dir, "d", log, h.m.PinCheckpoint)
	return h
}

func (h *history) walPath() string { return filepath.Join(h.dir, "d.wal") }

// commit runs batch b. One batch in four aborts (ok=false: no record, no
// oracle ops); the others commit, and a commit that got its record
// written files its ops under the record's LSN even when it reports
// failure, since recovery may still find the record.
func (h *history) commit(t *testing.T, b int) (ok bool, err error) {
	t.Helper()
	txn := h.m.Begin()
	before := h.log.LastLSN()
	pending := genBatch(t, h.cfg.Seed, h.rng, txn, b, b*1000, h.cfg.BatchOps)
	if h.rng.Intn(4) == 0 {
		txn.Abort()
		return false, nil
	}
	err = txn.Commit()
	if lsn := h.log.LastLSN(); lsn != before {
		h.batches[lsn] = pending
	}
	return true, err
}

// check recovers the directory, as a restart would, and holds the result
// to the oracle: a prefix of the history no shorter than floor.
func (h *history) check(t *testing.T, floor, lastLSN uint64) (*core.Store, uint64) {
	t.Helper()
	seed := h.cfg.Seed
	recovered, recLSN := recoverOnce(t, h.cfg, h.dir, h.walPath())
	if recLSN < floor || recLSN > lastLSN {
		t.Fatalf("seed %d: recovered LSN %d outside [%d, %d]", seed, recLSN, floor, lastLSN)
	}
	if err := recovered.CheckInvariants(); err != nil {
		t.Fatalf("seed %d: recovered store invariants: %v", seed, err)
	}
	got, want := serializeView(t, recovered), oracleAt(t, seed, h.tree, h.batches, recLSN)
	if got != want {
		t.Fatalf("seed %d: recovered state diverges from oracle at LSN %d\nrecovered: %s\noracle:    %s",
			seed, recLSN, got, want)
	}
	return recovered, recLSN
}

// RunCrash executes one crash-injection workload. The durability
// contract it checks: recovery never errors, recovers a *prefix* of the
// committed history — at least the last completed checkpoint, at most
// the full history, exactly the full history when the cut removed
// nothing — and the recovered document is bit-identical to the oracle
// replayed to that same LSN. Recovery is then repeated to prove it is
// deterministic (the first recovery's torn-tail truncation must not
// change the outcome). It returns the shape of the checkpoint tear it
// applied ("image", "pack" or "flip"; "" without TearCkpt), so a caller
// running a matrix can prove every shape ran.
func RunCrash(t *testing.T, cfg CrashConfig) (tore string) {
	t.Helper()
	disk := &diskFS{}
	h := newHistory(t, cfg, disk, false)
	killed := "" // KillInCompaction: the copy of the directory taken at the kill
	if cfg.KillInCompaction {
		disk.onCompact = func() {
			killed = t.TempDir()
			if err := os.CopyFS(killed, os.DirFS(h.dir)); err != nil {
				t.Fatalf("seed %d: copying the disk at the kill: %v", cfg.Seed, err)
			}
		}
	}

	ckptLSN, err := h.ck.Run() // initial checkpoint: the recovery floor
	if err != nil {
		t.Fatalf("seed %d: initial checkpoint: %v", cfg.Seed, err)
	}
	committed := 0
	for b := 1; b <= cfg.Batches && killed == ""; b++ {
		ok, err := h.commit(t, b)
		if err != nil {
			t.Fatalf("seed %d batch %d: commit: %v", cfg.Seed, b, err)
		}
		if !ok {
			continue
		}
		committed++
		if cfg.CheckpointEvery > 0 && committed%cfg.CheckpointEvery == 0 {
			lsn, err := h.ck.Run()
			if err != nil {
				t.Fatalf("seed %d batch %d: checkpoint: %v", cfg.Seed, b, err)
			}
			ckptLSN = lsn
		}
	}
	lastLSN := h.log.LastLSN()
	h.log.Close()
	if cfg.KillInCompaction {
		// The kill came inside the last checkpoint run, after its image
		// was published and before any later commit: the copy holds the
		// whole history, and that checkpoint is the floor.
		if killed == "" {
			t.Fatalf("seed %d: %d batches caused no compaction to die in", cfg.Seed, cfg.Batches)
		}
		h.dir = killed
		if u, err := ckpt.DefaultChunkStore(h.dir, "d").Usage(); err != nil || u.Copies == u.Chunks {
			t.Fatalf("seed %d: the disk at the kill holds no chunk twice (%+v, %v)", cfg.Seed, u, err)
		}
	}

	// Crash: sever the WAL at a random byte offset across the
	// concatenated live segments, and — when configured — tear a
	// checkpoint artifact too (a crash mid-checkpoint can leave both).
	cutAll := cutWAL(t, h.rng, h.walPath())
	floor := ckptLSN
	if cfg.TearCkpt {
		// Recovery may lose the newest image wholesale; the floor drops
		// to the previous retained checkpoint, whose chunks and WAL
		// records retention guarantees are still on disk.
		floor, tore = tearCkptArtifact(t, h.rng, h.dir)
	}

	// Prefix property: at least the checkpoint floor, at most (and after
	// a no-op cut, exactly) the full history; the oracle replayed to the
	// recovered LSN must agree exactly.
	recovered, recLSN := h.check(t, floor, lastLSN)
	if cutAll && recLSN != lastLSN {
		t.Fatalf("seed %d: cut removed nothing but recovery lost LSNs %d..%d", cfg.Seed, recLSN+1, lastLSN)
	}

	// Recovery must be deterministic: running it again (after the first
	// pass truncated the torn tail) lands on the same LSN and bytes.
	recovered2, recLSN2 := recoverOnce(t, cfg, h.dir, h.walPath())
	if recLSN2 != recLSN {
		t.Fatalf("seed %d: second recovery reached LSN %d, first %d", cfg.Seed, recLSN2, recLSN)
	}
	if serializeView(t, recovered2) != serializeView(t, recovered) {
		t.Fatalf("seed %d: second recovery produced different bytes", cfg.Seed)
	}
	return tore
}

func recoverOnce(t *testing.T, cfg CrashConfig, dir, walPath string) (*core.Store, uint64) {
	t.Helper()
	log, err := wal.Open(walPath, wal.Options{NoSync: true, SegmentBytes: cfg.SegmentBytes})
	if err != nil {
		t.Fatalf("seed %d: reopening wal after crash: %v", cfg.Seed, err)
	}
	defer log.Close()
	store, lsn, err := ckpt.Recover(dir, "d", log, nil)
	if err != nil {
		t.Fatalf("seed %d: recovery errored (must degrade, never fail): %v", cfg.Seed, err)
	}
	return store, lsn
}

// tearCkptArtifact truncates one checkpoint artifact at a random
// offset — the newest image ("image") or a pack file only the newest
// image reads from ("pack"; a chunk shared with an older image
// cannot be torn by a crash: the chunk store skips writes for chunks it
// already holds) — or inverts one byte inside the stored bytes of a
// chunk only the newest image references ("flip"): the pack's index
// stays whole, only inflating or hashing can tell. It returns the new
// recovery floor — the LSN of the previous retained image, which must
// stay materializable whatever was torn — and the shape it applied.
func tearCkptArtifact(t *testing.T, rng *rand.Rand, dir string) (floor uint64, shape string) {
	t.Helper()
	imgs, err := ckpt.Images(dir, "d")
	if err != nil {
		t.Fatal(err)
	}
	if len(imgs) < 2 {
		t.Fatalf("TearCkpt needs two retained images to degrade across, have %d", len(imgs))
	}
	newest, prev := imgs[0], imgs[1]
	imgPath := filepath.Join(dir, newest.File)
	shape = []string{"image", "pack", "flip"}[rng.Intn(3)]
	if shape != "image" {
		newHashes, err := ckpt.ImageChunks(imgPath)
		if err != nil {
			t.Fatal(err)
		}
		shared := make(map[chunkstore.Hash]bool)
		for _, old := range imgs[1:] {
			hs, err := ckpt.ImageChunks(filepath.Join(dir, old.File))
			if err != nil {
				t.Fatal(err)
			}
			for _, h := range hs {
				shared[h] = true
			}
		}
		var unique []chunkstore.Hash
		for _, h := range newHashes {
			if !shared[h] {
				unique = append(unique, h)
			}
		}
		// A crash can only have torn what the interrupted checkpoint
		// itself wrote: a pack holding a chunk of the newest image that
		// no older retained image reads from. (A compaction's product,
		// which older images share, was durable before the packs it
		// replaced were unlinked.)
		cs := ckpt.DefaultChunkStore(dir, "d")
		sharedPacks := make(map[string]bool)
		for h := range shared {
			if path, _, _, ok := cs.Locate(h); ok {
				sharedPacks[path] = true
			}
		}
		var own []string
		for _, h := range unique {
			if path, _, _, ok := cs.Locate(h); ok && !sharedPacks[path] && !slices.Contains(own, path) {
				own = append(own, path)
			}
		}
		switch {
		case shape == "flip" && len(unique) > 0:
			path, off, n, _ := cs.Locate(unique[rng.Intn(len(unique))])
			pack, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			pack[off+rng.Int63n(n)] ^= 0xff
			if err := os.WriteFile(path, pack, 0o644); err != nil {
				t.Fatal(err)
			}
		case len(own) == 0:
			// No churn between the checkpoints, or the sweep has already
			// folded the newest chunks into a shared pack: nothing a
			// crash could have torn; tear the image instead.
			shape = "image"
		default:
			shape = "pack"
			tearFile(t, rng, own[rng.Intn(len(own))])
		}
	}
	if shape == "image" {
		tearFile(t, rng, imgPath)
	}
	return prev.LSN, shape
}

// tearFile truncates path at a uniformly random offset strictly inside
// the file (offset 0 = emptied, never a clean full copy).
func tearFile(t *testing.T, rng *rand.Rand, path string) {
	t.Helper()
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size() == 0 {
		return
	}
	if err := os.Truncate(path, rng.Int63n(fi.Size())); err != nil {
		t.Fatal(err)
	}
}

// CrashConfigs returns the seeded crash-injection matrix; iters scales
// the number of random cuts per shape (the nightly soak raises it).
func CrashConfigs(iters int) []CrashConfig {
	var cfgs []CrashConfig
	shapes := []CrashConfig{
		// Small segments: cuts land mid-rotation; frequent checkpoints.
		{Batches: 30, BatchOps: 4, DocSize: 90, PageSize: 16, Fill: 0.7, SegmentBytes: 512, CheckpointEvery: 7},
		// One big segment: cuts always tear the active tail.
		{Batches: 20, BatchOps: 3, DocSize: 60, PageSize: 32, Fill: 0.8, SegmentBytes: wal.DefaultSegmentBytes},
		// Tiny segments, no mid-run checkpoints: long replay chains.
		{Batches: 25, BatchOps: 5, DocSize: 120, PageSize: 16, Fill: 0.75, SegmentBytes: 256},
		// Torn checkpoint artifacts on top of the WAL cut: recovery must
		// degrade whole to the previous retained image, never mix two.
		{Batches: 30, BatchOps: 4, DocSize: 90, PageSize: 16, Fill: 0.7, SegmentBytes: 512, CheckpointEvery: 7, TearCkpt: true},
		{Batches: 24, BatchOps: 5, DocSize: 120, PageSize: 32, Fill: 0.8, SegmentBytes: 1024, CheckpointEvery: 5, TearCkpt: true},
		// Killed inside chunk GC, between a compaction's publish and its
		// unlinks, then the WAL cut: duplicates on disk, nothing lost.
		{Batches: 60, BatchOps: 4, DocSize: 90, PageSize: 16, Fill: 0.7, SegmentBytes: 512, CheckpointEvery: 3, KillInCompaction: true},
		// Torn artifacts again, over pages large enough to be held deflated.
		{Batches: 24, BatchOps: 5, DocSize: 300, PageSize: 64, Fill: 0.8, SegmentBytes: 2048, CheckpointEvery: 5, TearCkpt: true},
	}
	for i := 0; i < iters; i++ {
		for j, s := range shapes {
			s.Seed = int64(1000*i + j)
			cfgs = append(cfgs, s)
		}
	}
	return cfgs
}

// crashName labels one config for subtest naming.
func crashName(c CrashConfig) string {
	n := fmt.Sprintf("seed=%d/seg=%d/ckpt=%d", c.Seed, c.SegmentBytes, c.CheckpointEvery)
	if c.TearCkpt {
		n += "/tear"
	}
	if c.KillInCompaction {
		n += "/kill"
	}
	return n
}
