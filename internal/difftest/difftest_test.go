package difftest

import (
	"fmt"
	"os"
	"strconv"
	"testing"
)

// concurrentBatches returns def unless the MXQ_DIFFTEST_BATCHES
// environment variable overrides it — the nightly CI workflow raises the
// concurrent-mode iteration count far beyond what per-PR runs can spend.
func concurrentBatches(def int) int {
	if s := os.Getenv("MXQ_DIFFTEST_BATCHES"); s != "" {
		if n, err := strconv.Atoi(s); err == nil && n > 0 {
			return n
		}
	}
	return def
}

// TestDirectSmallPages drives the paged store directly with tiny pages,
// the regime with the most page splices and free-run churn per op.
func TestDirectSmallPages(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			Run(t, Config{
				Seed: seed, Steps: 120, DocSize: 60,
				PageSize: 16, Fill: 0.75,
			})
		})
	}
}

// TestDirectLargePages exercises the within-page insert path: with large
// pages nearly all inserts fit without splicing.
func TestDirectLargePages(t *testing.T) {
	for seed := int64(10); seed <= 13; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			Run(t, Config{
				Seed: seed, Steps: 120, DocSize: 120,
				PageSize: 256, Fill: 0.6,
			})
		})
	}
}

// TestDirectFullPages forces the page-overflow path: fill factor 1.0
// leaves no free tuples, so every structural insert splices pages.
func TestDirectFullPages(t *testing.T) {
	for seed := int64(20); seed <= 23; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			Run(t, Config{
				Seed: seed, Steps: 100, DocSize: 80,
				PageSize: 16, Fill: 1.0,
			})
		})
	}
}

// TestTxCommitAbort routes every op through a page-granular
// copy-on-write transaction image, alternating committing and aborting
// batches: the base store must match the oracle after every batch, and
// an aborted batch must leave no trace.
func TestTxCommitAbort(t *testing.T) {
	for seed := int64(30); seed <= 35; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			Run(t, Config{
				Seed: seed, Steps: 120, DocSize: 70,
				PageSize: 16, Fill: 0.75, TxBatch: 5,
			})
		})
	}
}

// TestTxSingleOpBatches is the worst case for snapshot overhead: every
// single op pays a fresh Begin (copy-on-write snapshot) and commit or
// abort.
func TestTxSingleOpBatches(t *testing.T) {
	for seed := int64(40); seed <= 43; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			Run(t, Config{
				Seed: seed, Steps: 80, DocSize: 50,
				PageSize: 32, Fill: 0.8, TxBatch: 1,
			})
		})
	}
}

// TestConcurrentSnapshotQueries is the concurrent mode: reader
// goroutines run XMark-style queries over per-version snapshots while
// the driver applies randomized committed/aborted update batches. Every
// query result must match the naive oracle frozen at that snapshot's
// version. Run under -race (make check does).
func TestConcurrentSnapshotQueries(t *testing.T) {
	batches := concurrentBatches(25)
	readers := 4
	if testing.Short() {
		batches, readers = concurrentBatches(8), 2
	}
	for seed := int64(50); seed <= 52; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			RunConcurrent(t, ConcurrentConfig{
				Seed: seed, SF: 0.002, Readers: readers,
				Batches: batches, BatchOps: 6,
				PageSize: 64, Fill: 0.75,
			})
		})
	}
}

// TestConcurrentSnapshotQueriesTinyPages stresses the page-splice paths
// under concurrency: tiny full pages make almost every insert splice.
func TestConcurrentSnapshotQueriesTinyPages(t *testing.T) {
	if testing.Short() {
		t.Skip("covered by TestConcurrentSnapshotQueries in -short mode")
	}
	RunConcurrent(t, ConcurrentConfig{
		Seed: 60, SF: 0.002, Readers: 3,
		Batches: concurrentBatches(15), BatchOps: 4,
		PageSize: 16, Fill: 1.0,
	})
}

// crashIters returns def unless MXQ_CRASH_ITERS overrides it — the
// nightly crash-recovery soak raises the number of seeds per shape far
// beyond what per-PR CI can spend.
func crashIters(def int) int {
	if s := os.Getenv("MXQ_CRASH_ITERS"); s != "" {
		if n, err := strconv.Atoi(s); err == nil && n > 0 {
			return n
		}
	}
	return def
}

// TestCrashRecovery is the crash mode: a seeded transactional workload
// runs over a segmented WAL with online checkpoints while its file system
// records every mutating call, and every state a crash can leave, by that
// trace, must recover to a clean prefix no shorter than what had returned
// — never an error and never silent loss — matching the naive oracle
// replayed to the recovered LSN.
func TestCrashRecovery(t *testing.T) {
	found := map[string]int{}
	ran := 0
	cfgs := CrashConfigs(crashIters(1))
	for _, cfg := range cfgs {
		t.Run(crashName(cfg), func(t *testing.T) {
			for class, n := range RunCrash(t, cfg) {
				found[class] += n
			}
			ran++
		})
	}
	// Coverage tripwire: over the whole matrix (not a -run selection of
	// it) crashes must have landed inside every barrier class, and
	// dropping a directory op must have made a difference.
	if ran < len(cfgs) {
		return
	}
	for _, class := range crashClasses {
		if found[class] == 0 {
			t.Errorf("no crash state of class %q: %v", class, found)
		}
	}
}

// replIters returns def unless MXQ_REPL_ITERS overrides it — the
// nightly replication soak raises the number of seeds per shape far
// beyond what per-PR CI can spend.
func replIters(def int) int {
	if s := os.Getenv("MXQ_REPL_ITERS"); s != "" {
		if n, err := strconv.Atoi(s); err == nil && n > 0 {
			return n
		}
	}
	return def
}

// TestReplication is the replication mode: a primary streams its WAL
// to a follower over a real loopback subscription while the follower
// is repeatedly disconnected mid-stream, crash-restarted (sometimes
// with its local WAL cut at a random offset), and left behind across
// primary checkpoints and prunes. The follower must always be a
// crash-recovered image of the primary at its applied LSN — verified
// against the naive oracle at every stop — and must always reconverge,
// by gap-free WAL replay or snapshot re-bootstrap. Run under -race
// (make check does).
func TestReplication(t *testing.T) {
	iters := replIters(2)
	if testing.Short() {
		iters = replIters(1)
	}
	for _, cfg := range ReplConfigs(iters) {
		t.Run(replName(cfg), func(t *testing.T) {
			RunRepl(t, cfg)
		})
	}
}
