package difftest

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"io/fs"
	"maps"
	"math"
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
	"mxq/internal/vfs"
	"mxq/internal/wal"
)

// CrashConfig describes one crash workload: a seeded batch workload
// commits through the transaction manager over a segmented WAL, fsync on,
// with periodic online checkpoints, while its file system records every
// mutating call. RunCrash derives from that one trace the states a crash
// can leave on disk (crashStates) and recovers each.
type CrashConfig struct {
	Seed     int64
	Batches  int // committed/aborted batches
	BatchOps int // ops per batch
	DocSize  int
	PageSize int
	Fill     float64
	// SegmentBytes should be small enough that the workload rotates
	// through several segments, so crashes land mid-rotation too.
	SegmentBytes int64
	// CheckpointEvery runs an online checkpoint every N committed
	// batches (0: only the initial checkpoint).
	CheckpointEvery int
}

// history is the crash and fault modes' seeded workload under way: a
// random document committed to in batches through a tx.Manager over a
// segmented WAL, fsync on, checkpointed online, with every change to the
// disk going through a diskFS, and the ops of each commit filed under the
// LSN of its record, for the oracle to replay a prefix of.
type history struct {
	cfg     CrashConfig
	rng     *rand.Rand
	dir     string
	tree    *shred.Tree
	log     *wal.Log
	m       *tx.Manager
	ck      *ckpt.Checkpointer
	batches map[uint64][]op
	oracle  map[uint64]string // the oracle's serialization at each LSN asked for
}

func newHistory(t *testing.T, cfg CrashConfig, disk *diskFS) *history {
	t.Helper()
	h := &history{cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed)), dir: t.TempDir(),
		batches: make(map[uint64][]op), oracle: make(map[uint64]string)}
	h.tree = randomDoc(h.rng, cfg.DocSize)
	log, err := wal.Open(h.walPath(), wal.Options{SegmentBytes: cfg.SegmentBytes, FS: disk})
	if err != nil {
		t.Fatalf("seed %d: %v", cfg.Seed, err)
	}
	paged, err := core.Build(h.tree, core.Options{PageSize: cfg.PageSize, FillFactor: cfg.Fill})
	if err != nil {
		t.Fatalf("seed %d: building paged store: %v", cfg.Seed, err)
	}
	h.log, h.m = log, tx.NewManager(paged, log)
	h.ck = ckpt.New(disk, h.dir, "d", log, h.m.PinCheckpoint, chunkstore.NewDirFS(disk, ckpt.ChunkDir(h.dir, "d")), nil)
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

// recover recovers the document in dir, as a restart would.
func (h *history) recover(dir string) (*core.Store, uint64, error) {
	log, err := wal.Open(filepath.Join(dir, "d.wal"), wal.Options{NoSync: true, SegmentBytes: h.cfg.SegmentBytes})
	if err != nil {
		return nil, 0, err
	}
	defer log.Close()
	return ckpt.Recover(dir, "d", log, nil)
}

// recovery is what recovering a disk gave: the LSN and the document's
// serialization ("" for no image at all).
type recovery struct {
	lsn uint64
	xml string
}

// check recovers the document in dir and holds the result to the oracle:
// recovery does not error, recovers a prefix of the history no shorter
// than floor and no longer than ceiling, passes CheckInvariants and is
// bit-identical to the oracle replayed to the recovered LSN; and the
// image it would fall back to is whole too: the store holds every chunk
// the two newest images name. With noImage, ErrNoCheckpoint passes: no
// image need be on disk yet.
func (h *history) check(t *testing.T, dir string, floor, ceiling uint64, noImage bool) recovery {
	t.Helper()
	seed := h.cfg.Seed
	store, lsn, err := h.recover(dir)
	if noImage && errors.Is(err, ckpt.ErrNoCheckpoint) {
		return recovery{}
	}
	if err != nil {
		t.Fatalf("seed %d: recovery errored (must degrade, never fail): %v", seed, err)
	}
	if lsn < floor || lsn > ceiling {
		t.Fatalf("seed %d: recovered LSN %d outside [%d, %d]", seed, lsn, floor, ceiling)
	}
	if err := store.CheckInvariants(); err != nil {
		t.Fatalf("seed %d: recovered store invariants: %v", seed, err)
	}
	want, ok := h.oracle[lsn]
	if !ok {
		want = oracleAt(t, seed, h.tree, h.batches, lsn)
		h.oracle[lsn] = want
	}
	if got := serializeView(t, store); got != want {
		t.Fatalf("seed %d: recovered state diverges from oracle at LSN %d\nrecovered: %s\noracle:    %s", seed, lsn, got, want)
	}
	imgs, _ := ckpt.Images(dir, "d")
	for _, img := range imgs[:min(2, len(imgs))] {
		hs, err := ckpt.ImageChunks(filepath.Join(dir, img.File))
		if err == nil {
			var have []bool
			if have, err = ckpt.DefaultChunkStore(dir, "d").HasMany(hs); slices.Contains(have, false) {
				err = chunkstore.ErrMissing
			}
		}
		if err != nil {
			t.Fatalf("seed %d: retained image %s: %v", seed, img.File, err)
		}
	}
	return recovery{lsn, want}
}

// mark is the position in a run's trace — the calls made so far — at
// which a commit or a checkpoint returned, and the LSN it made durable.
type mark struct {
	at  int
	lsn uint64
}

// crashClasses is what TestCrashRecovery's tripwire requires of the
// matrix: crash points inside each barrier class (barrierClass), a
// type-(c) state that differed on disk from its crash point's type-(a)
// state ("dropped"), and a state without the chunk directory's mkdir
// ("chunkdir").
var crashClasses = []string{"commit", "seal", "pack", "image", "retire", "prune", "compaction", "dropped", "chunkdir"}

// RunCrash runs one crash workload and then recovers the states its
// trace says a crash can leave: at each crash point — before each call
// through the file system, and after the last — (a) every call persisted;
// (b) the writes not yet durable dropped, and cut at one seeded byte
// offset; (c) each directory op not yet durable alone not persisted, with
// whatever needs it (crashStates). A state whose disk was already
// recovered is skipped. The contract each state is held to: a file under
// a pack or image name is whole (vfs.Publish's); recovery does not error
// — before the initial image returned, ErrNoCheckpoint is allowed — and
// recovers at least the last commit and checkpoint that returned before
// the crash point, at most the last record written, bit-identical to the
// oracle at that LSN, with the image it would fall back to whole
// (history.check); and the disk recovery left recovers the same. It
// returns how many crash points and states it found of each of
// crashClasses.
func RunCrash(t *testing.T, cfg CrashConfig) map[string]int {
	t.Helper()
	disk := newDiskFS(cfg.SegmentBytes)
	h := newHistory(t, cfg, disk)
	var returned []mark // in trace order; the first is the initial checkpoint
	checkpoint := func(b int) {
		lsn, err := h.ck.Run()
		if err != nil {
			t.Fatalf("seed %d batch %d: checkpoint: %v", cfg.Seed, b, err)
		}
		returned = append(returned, mark{disk.calls(), lsn})
	}
	checkpoint(0)
	committed := 0
	for b := 1; b <= cfg.Batches; b++ {
		ok, err := h.commit(t, b)
		if err != nil {
			t.Fatalf("seed %d batch %d: commit: %v", cfg.Seed, b, err)
		}
		if !ok {
			continue
		}
		returned = append(returned, mark{disk.calls(), h.log.LastLSN()})
		if committed++; cfg.CheckpointEvery > 0 && committed%cfg.CheckpointEvery == 0 {
			checkpoint(b)
		}
	}
	if err := h.log.Close(); err != nil {
		t.Fatalf("seed %d: closing the log: %v", cfg.Seed, err)
	}

	trace := disk.trace
	durable := durability(trace)
	found := make(map[string]int)
	recovered := make(map[[sha256.Size]byte]recovery)
	scratch, onDisk := t.TempDir(), diskState{}
	var floor, written uint64 // the last LSN returned, and written, before the crash point
	next, packAt, imageAt := 0, -1, -1
	for i := 0; i <= len(trace); i++ {
		for ; next < len(returned) && returned[next].at <= i; next++ {
			floor = max(floor, returned[next].lsn)
		}
		if i > 0 {
			switch trace[i-1].site {
			case "wal-append":
				written++ // one record a write, from LSN 1
			case "pack-rename":
				packAt = i
			case "image-rename":
				imageAt = i
			}
		}
		if class := barrierClass(trace, i, packAt > imageAt); class != "" {
			found[class]++
		}
		noImage := i < returned[0].at
		var a [sha256.Size]byte
		for k, s := range crashStates(trace, durable, i, h.rng) {
			state, torn := replay(trace, durable, h.dir, i, s)
			sum := state.sum()
			switch {
			case k == 0:
				a = sum
			case s.drop >= 0 && sum != a:
				found["dropped"]++
			}
			if s.drop >= 0 && trace[s.drop].path == ckpt.ChunkDir(h.dir, "d") {
				found["chunkdir"]++
			}
			if torn != "" {
				t.Fatalf("seed %d: a crash before call %d can leave %s torn under its final name", cfg.Seed, i, torn)
			}
			if _, done := recovered[sum]; done {
				continue
			}
			state.write(t, scratch, onDisk)
			r := h.check(t, scratch, floor, written, noImage)
			recovered[sum] = r
			// Recovery is deterministic: what the first recovery left — it
			// cuts a torn WAL tail — recovers to the same LSN and bytes.
			onDisk = readDisk(t, scratch)
			repaired := onDisk.sum()
			again, done := recovered[repaired]
			if !done {
				again = h.check(t, scratch, floor, written, noImage)
				recovered[repaired] = again
				onDisk = readDisk(t, scratch)
			}
			if again != r {
				t.Fatalf("seed %d: recovering what recovery left reached LSN %d, the first recovery %d", cfg.Seed, again.lsn, r.lsn)
			}
		}
	}
	t.Logf("seed %d: %d calls, %d disks recovered, %v", cfg.Seed, len(trace), len(recovered), found)
	return found
}

// barrierClass names the window of the protocol crash point i of trace
// lies in: inside a commit (after its WAL write, before its fsync), a
// seal and rotation (after the seal's fsync, before the next segment
// exists), a pack or image publish (after the rename, before the
// directory fsync), an image retire or a WAL prune (after a remove), or a
// compaction — after the new pack's publish, before the last victim's
// unlink: compacting reports whether a pack was published after the
// newest image. "" is any other point.
func barrierClass(trace []call, i int, compacting bool) string {
	if i == 0 || i == len(trace) {
		return ""
	}
	prev, next := trace[i-1], trace[i]
	switch {
	case prev.site == "wal-append":
		return "commit"
	case prev.site == "wal-seal":
		return "seal"
	case prev.site == "pack-rename":
		return "pack"
	case prev.site == "image-rename":
		return "image"
	case compacting && next.op == "remove" && artifact(next.path) == "pack":
		return "compaction"
	case prev.op == "remove" && artifact(prev.path) == "image":
		return "retire"
	case prev.op == "remove" && artifact(prev.path) == "wal":
		return "prune"
	}
	return ""
}

// durability returns, for each call of trace, the index of the call that
// made it durable — a write's or a truncate's: the next fsync of its
// file; a directory op's (create, rename, remove, mkdir): the next fsync
// of its parent directory — or len(trace) if none did. A file fsync does
// not make the file's directory entry durable.
func durability(trace []call) []int {
	at := make([]int, len(trace))
	files, dirs := make(map[int]int), make(map[string]int)
	for j := len(trace) - 1; j >= 0; j-- {
		c := trace[j]
		at[j] = len(trace)
		switch c.op {
		case "fsync":
			files[c.file] = j
		case "syncdir":
			dirs[c.path] = j
		case "write", "truncate":
			if k, ok := files[c.file]; ok {
				at[j] = k
			}
		default:
			if k, ok := dirs[filepath.Dir(c.path)]; ok {
				at[j] = k
			}
		}
	}
	return at
}

// crashState is one disk a crash may leave short of what the calls
// before it asked for: of the writes not yet durable, the first cut bytes
// reach the disk, in trace order, and the directory op drop (-1: none) is
// not persisted.
type crashState struct {
	cut  int64
	drop int
}

// crashStates lists the states a crash before call i of trace may leave
// that RunCrash recovers, type (a) first.
func crashStates(trace []call, durable []int, i int, rng *rand.Rand) []crashState {
	all := crashState{cut: math.MaxInt64, drop: -1}
	states := []crashState{all} // (a)
	var pending int64
	data := false
	for j, c := range trace[:i] {
		if durable[j] < i {
			continue
		}
		switch c.op {
		case "write", "truncate":
			pending, data = pending+int64(len(c.data)), true
		case "create", "rename", "remove", "mkdir":
			states = append(states, crashState{cut: all.cut, drop: j}) // (c)
		}
	}
	if data {
		states = append(states, crashState{cut: 0, drop: -1}) // (b), dropped
	}
	if pending > 1 {
		states = append(states, crashState{cut: 1 + rng.Int63n(pending-1), drop: -1}) // (b), cut
	}
	return states
}

// diskState is the document directory as a crash leaves it: each path
// under it, relative to it, and a file's bytes; a directory is nil, an
// empty file an empty slice.
type diskState map[string][]byte

// replay returns the disk the first i calls of trace leave under root in
// state s. A write into a file whose create was not persisted, and an
// entry under a directory whose mkdir was not, are lost with it. torn
// names a pack or an image under its final name that lost bytes.
func replay(trace []call, durable []int, root string, i int, s crashState) (state diskState, torn string) {
	names := map[string]int{".": -1} // the file each path names; -1 is a directory
	content := make(map[int][]byte)
	short := make(map[int]bool) // files that lost bytes
	rel := func(path string) string { r, _ := filepath.Rel(root, path); return r }
	inDir := func(path string) bool { n, ok := names[filepath.Dir(path)]; return ok && n < 0 }
	var pending int64 // bytes of the writes not yet durable so far
	for j, c := range trace[:i] {
		path := rel(c.path)
		switch {
		case c.op == "write":
			n := int64(len(c.data))
			keep := n
			if durable[j] >= i {
				keep, pending = min(max(s.cut-pending, 0), n), pending+n
			}
			if keep < n {
				short[c.file] = true
			}
			if keep > 0 {
				content[c.file] = append(resize(content[c.file], c.off), c.data[:keep]...)
			}
		case c.op == "truncate":
			if durable[j] < i || s.cut > pending {
				content[c.file] = resize(content[c.file], c.off)
			} else {
				short[c.file] = true
			}
		case j == s.drop:
		case c.op == "create" && inDir(path):
			names[path], content[c.file] = c.file, []byte{}
		case c.op == "mkdir" && inDir(path):
			names[path] = -1
		case c.op == "rename" && inDir(path):
			if n, ok := names[rel(c.from)]; ok {
				names[path] = n
				delete(names, rel(c.from))
			}
		case c.op == "remove":
			delete(names, path)
		}
	}
	state = make(diskState, len(names))
	for path, n := range names {
		switch {
		case path == ".":
		case n < 0:
			state[path] = nil
		default:
			state[path] = content[n]
			if _, tmp := vfs.SplitTmp(filepath.Base(path)); short[n] && !tmp && (artifact(path) == "pack" || artifact(path) == "image") {
				torn = path
			}
		}
	}
	return state, torn
}

// resize cuts b to n bytes, or pads it with zeros: a hole reads as zeros.
func resize(b []byte, n int64) []byte {
	if n <= int64(len(b)) {
		return b[:n]
	}
	return append(b, make([]byte, n-int64(len(b)))...)
}

// sum is the digest of the disk's paths and contents.
func (d diskState) sum() (s [sha256.Size]byte) {
	h := sha256.New()
	for _, path := range slices.Sorted(maps.Keys(d)) {
		fmt.Fprintf(h, "%q %t %d\n", path, d[path] == nil, len(d[path]))
		h.Write(d[path])
	}
	h.Sum(s[:0])
	return s
}

// write makes dir, which holds onDisk, hold exactly the disk.
func (d diskState) write(t *testing.T, dir string, onDisk diskState) {
	t.Helper()
	for path, have := range onDisk {
		if want, ok := d[path]; !ok || (want == nil) != (have == nil) {
			if err := os.RemoveAll(filepath.Join(dir, path)); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, path := range slices.Sorted(maps.Keys(d)) { // a directory before what it holds
		have, ok := onDisk[path]
		var err error
		switch {
		case d[path] == nil:
			err = os.MkdirAll(filepath.Join(dir, path), 0o755)
		case !ok || have == nil || !bytes.Equal(have, d[path]):
			err = os.WriteFile(filepath.Join(dir, path), d[path], 0o644)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
}

// readDisk returns what dir holds.
func readDisk(t *testing.T, dir string) diskState {
	t.Helper()
	d := make(diskState)
	err := filepath.WalkDir(dir, func(path string, e fs.DirEntry, err error) error {
		if err != nil || path == dir {
			return err
		}
		rel, _ := filepath.Rel(dir, path)
		if e.IsDir() {
			d[rel] = nil
			return nil
		}
		b, err := os.ReadFile(path)
		d[rel] = append([]byte{}, b...) // never nil: nil is a directory
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// CrashConfigs returns the seeded crash matrix; iters is the number of
// seeds per shape (the nightly soak raises it).
func CrashConfigs(iters int) []CrashConfig {
	var cfgs []CrashConfig
	shapes := []CrashConfig{
		// Small segments and periodic checkpoints: every barrier class,
		// compaction included.
		{Batches: 30, BatchOps: 4, DocSize: 90, PageSize: 16, Fill: 0.7, SegmentBytes: 512, CheckpointEvery: 7},
		// One big segment, no mid-run checkpoint: every crash tears the
		// active tail.
		{Batches: 20, BatchOps: 3, DocSize: 60, PageSize: 32, Fill: 0.8, SegmentBytes: wal.DefaultSegmentBytes},
		// Tiny segments, no mid-run checkpoint: a seal and rotation after
		// almost every record, and long replay chains.
		{Batches: 25, BatchOps: 5, DocSize: 120, PageSize: 16, Fill: 0.75, SegmentBytes: 256},
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
	return fmt.Sprintf("seed=%d/seg=%d/ckpt=%d", c.Seed, c.SegmentBytes, c.CheckpointEvery)
}
