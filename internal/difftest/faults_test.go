package difftest

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"mxq/internal/ckpt"
	"mxq/internal/tx"
	"mxq/internal/vfs"
	"mxq/internal/wal"
)

// faultClasses is every fault the fault mode injects: EIO on an fsync,
// ENOSPC and short writes, failed renames and failed directory fsyncs, at
// each site of the WAL, the chunk store and the checkpointer that makes
// that call.
var faultClasses = []fault{
	{"wal-sync", "eio"}, {"wal-seal", "eio"}, {"pack-fsync", "eio"}, {"image-fsync", "eio"},
	{"wal-append", "enospc"}, {"wal-append", "short"}, {"pack-write", "enospc"}, {"pack-write", "short"},
	{"pack-rename", "eio"}, {"image-rename", "eio"},
	{"segment-dirsync", "eio"}, {"pack-dirsync", "eio"}, {"image-dirsync", "eio"},
}

// FaultConfig is one fault-injection run: RunCrash's workload with fsync
// on, and Fault injected at the Nth call to its site after the initial
// checkpoint.
type FaultConfig struct {
	CrashConfig
	Fault fault
	Nth   int
}

// FaultConfigs returns the seeded fault matrix: every fault class iters
// times, each at a call chosen by its seed.
func FaultConfigs(iters int) []FaultConfig {
	shape := CrashConfig{Batches: 30, BatchOps: 4, DocSize: 90, PageSize: 16, Fill: 0.7, SegmentBytes: 512, CheckpointEvery: 4}
	var cfgs []FaultConfig
	for i := 0; i < iters; i++ {
		for j, f := range faultClasses {
			cfg := FaultConfig{CrashConfig: shape, Fault: f}
			cfg.Seed = int64(5000 + 1000*i + j)
			cfg.Nth = 1 + int(cfg.Seed%3)
			cfgs = append(cfgs, cfg)
		}
	}
	return cfgs
}

// RunFaults executes one fault-injection run: the contract is that an
// operation either reports failure and leaves the committed state
// untouched, or reports success and is durable. It checks that the
// faulted operation reports failure; that a failed append leaves the
// log's LastLSN, and a failed checkpoint the checkpointer's, where they
// were, that a failed checkpoint prunes no WAL record its predecessor
// needs and leaves no tmp file behind; that a failed fsync poisons the
// log — every later commit and checkpoint fails, DurableLSN never passes
// the record, no image carries it; that any other fault leaves the
// document writable; that the live document is the oracle's at the last
// LSN written; and that the reopened directory recovers at least every
// commit that reported success, bit-identical to the oracle at the
// recovered LSN. It reports whether the fault fired.
func RunFaults(t *testing.T, cfg FaultConfig) bool {
	t.Helper()
	seed := cfg.Seed
	disk := newDiskFS(cfg.SegmentBytes)
	h := newHistory(t, cfg.CrashConfig, disk)
	if _, err := h.ck.Run(); err != nil {
		t.Fatalf("seed %d: initial checkpoint: %v", seed, err)
	}
	disk.arm(cfg.Fault, cfg.Nth)
	var (
		lastOK    uint64 // the last commit that reported success
		failedLSN uint64 // the first record whose fsync failed: the log is poisoned
		hit       bool
		committed int
	)
	for b := 1; b <= cfg.Batches; b++ {
		before, segs := h.log.LastLSN(), len(h.log.Segments())
		ok, err := h.commit(t, b)
		if !ok {
			continue
		}
		lsn, f := h.log.LastLSN(), disk.take()
		hit = hit || f.site != ""
		switch f.site {
		case "wal-sync", "wal-seal":
			if !errors.Is(err, tx.ErrNotDurable) || lsn != before+1 || h.log.DurableLSN() >= lsn {
				t.Fatalf("seed %d batch %d: %s failed: commit = %v, LSN %d → %d, durable %d", seed, b, f.site, err, before, lsn, h.log.DurableLSN())
			}
			failedLSN = lsn
		case "wal-append":
			if err == nil || lsn != before {
				t.Fatalf("seed %d batch %d: append failed: commit = %v, LSN %d → %d", seed, b, err, before, lsn)
			}
		case "segment-dirsync":
			// Rotation is best-effort: the record stands in the old segment,
			// which stays active, and the new one is gone from the disk.
			files, _ := wal.SegmentPaths(h.walPath())
			if err != nil || len(h.log.Segments()) != segs || len(files) != segs {
				t.Fatalf("seed %d batch %d: segment create failed: commit = %v, %d segments → %d, %d on disk", seed, b, err, segs, len(h.log.Segments()), len(files))
			}
		case "":
			if failedLSN != 0 && (err == nil || lsn != before || h.log.DurableLSN() >= failedLSN) {
				t.Fatalf("seed %d batch %d: commit over a poisoned log = %v, LSN %d → %d, durable %d", seed, b, err, before, lsn, h.log.DurableLSN())
			}
			if failedLSN == 0 && err != nil {
				t.Fatalf("seed %d batch %d: commit: %v", seed, b, err)
			}
		default:
			t.Fatalf("seed %d batch %d: %s failed inside a commit", seed, b, f.site)
		}
		if err == nil {
			lastOK = lsn
		}
		if committed++; committed%cfg.CheckpointEvery == 0 {
			hit = checkpointFaults(t, h, disk, &failedLSN) || hit
		}
	}
	lastLSN := h.log.LastLSN()
	rv := h.m.AcquireRead()
	live := serializeView(t, rv.View())
	rv.Close()
	if live != oracleAt(t, seed, h.tree, h.batches, lastLSN) {
		t.Fatalf("seed %d: the live document diverges from the oracle at LSN %d", seed, lastLSN)
	}
	if err := h.log.Close(); (err != nil) != (failedLSN != 0) {
		t.Fatalf("seed %d: Close = %v, poisoned at %d", seed, err, failedLSN)
	}
	h.check(t, h.dir, lastOK, lastLSN, false)
	return hit
}

// checkpointFaults runs one checkpoint of a RunFaults workload and checks
// it, reporting whether the fault fired in it.
func checkpointFaults(t *testing.T, h *history, disk *diskFS, failedLSN *uint64) bool {
	t.Helper()
	seed := h.cfg.Seed
	prev := h.ck.LastLSN()
	lsn, err := h.ck.Run()
	f := disk.take()
	if f.site == "wal-sync" || f.site == "wal-seal" {
		*failedLSN = h.log.DurableLSN() + 1
	}
	switch {
	case f.inSweep || f.site == "" && *failedLSN == 0:
		// No fault, or one in chunk GC after the image was published,
		// which a checkpoint survives: a failed sweep only leaks.
		if err != nil || h.ck.LastLSN() != lsn {
			t.Fatalf("seed %d: checkpoint = %d, %v (%s)", seed, lsn, err, f.site)
		}
	case err == nil || h.ck.LastLSN() != prev || !h.log.CanStream(prev):
		t.Fatalf("seed %d: checkpoint (%q, poisoned at %d) = %d, %v; LastLSN %d → %d, WAL from %d",
			seed, f.site, *failedLSN, lsn, err, prev, h.ck.LastLSN(), h.log.FirstLSN())
	case *failedLSN != 0 && ckpt.CurrentLSN(h.dir, "d") >= *failedLSN:
		t.Fatalf("seed %d: an image carries record %d, whose fsync failed", seed, *failedLSN)
	}
	for _, dir := range []string{h.dir, ckpt.ChunkDir(h.dir, "d")} {
		entries, _ := os.ReadDir(dir)
		for _, e := range entries {
			if _, ok := vfs.SplitTmp(e.Name()); ok {
				t.Fatalf("seed %d: %s survived a checkpoint (%q)", seed, filepath.Join(dir, e.Name()), f.site)
			}
		}
	}
	return f.site != ""
}

// TestFaults is the fault-injection mode: RunCrash's workload, fsync on,
// in a live process whose disk fails one call — an fsync, a write, a
// rename or a directory fsync of the WAL, the chunk store or the
// checkpointer — and recovery afterwards. It scales with
// MXQ_CRASH_ITERS, and trips if any fault class never fired.
func TestFaults(t *testing.T) {
	iters := crashIters(2)
	if testing.Short() {
		iters = crashIters(1)
	}
	hits := map[string]int{}
	ran := 0
	cfgs := FaultConfigs(iters)
	for _, cfg := range cfgs {
		t.Run(fmt.Sprintf("seed=%d/%s/%d", cfg.Seed, cfg.Fault, cfg.Nth), func(t *testing.T) {
			if RunFaults(t, cfg) {
				hits[cfg.Fault.String()]++
			}
			ran++
		})
	}
	if ran < len(cfgs) {
		return
	}
	for _, f := range faultClasses {
		if hits[f.String()] == 0 {
			t.Errorf("fault %s never fired: %v", f, hits)
		}
	}
}
