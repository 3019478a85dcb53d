package wal

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"mxq/internal/vfs"
)

func openTemp(t *testing.T) (*Log, string) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "test.wal")
	l, err := Open(path, Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	return l, path
}

// segFiles lists the on-disk segment files for a base path, in order.
func segFiles(t *testing.T, path string) []string {
	t.Helper()
	matches, err := filepath.Glob(path + ".*")
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, m := range matches {
		if len(m) == len(path)+1+segWidth {
			out = append(out, m)
		}
	}
	return out
}

func TestAppendAssignsLSNs(t *testing.T) {
	l, _ := openTemp(t)
	defer l.Close()
	for i := 1; i <= 3; i++ {
		lsn, err := l.Append([]Op{{Kind: OpDelete, Target: int32(i)}})
		if err != nil {
			t.Fatal(err)
		}
		if lsn != uint64(i) {
			t.Fatalf("lsn = %d, want %d", lsn, i)
		}
	}
	if l.LastLSN() != 3 {
		t.Fatalf("LastLSN = %d", l.LastLSN())
	}
}

func TestReplayAfter(t *testing.T) {
	l, _ := openTemp(t)
	defer l.Close()
	for i := 1; i <= 5; i++ {
		if _, err := l.Append([]Op{{Kind: OpRename, Target: int32(i), Name: "n"}}); err != nil {
			t.Fatal(err)
		}
	}
	var seen []uint64
	if err := l.Replay(2, func(r *Record) error {
		seen = append(seen, r.LSN)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(seen) != 3 || seen[0] != 3 || seen[2] != 5 {
		t.Fatalf("replayed %v, want [3 4 5]", seen)
	}
	// Appending still works after a replay.
	if lsn, err := l.Append(nil); err != nil || lsn != 6 {
		t.Fatalf("append after replay: %d, %v", lsn, err)
	}
}

func TestReopenFindsLastLSN(t *testing.T) {
	l, path := openTemp(t)
	l.Append([]Op{{Kind: OpDelete, Target: 1}})
	l.Append([]Op{{Kind: OpDelete, Target: 2}})
	l.Close()
	l2, err := Open(path, Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if l2.LastLSN() != 2 {
		t.Fatalf("LastLSN after reopen = %d", l2.LastLSN())
	}
	if lsn, _ := l2.Append(nil); lsn != 3 {
		t.Fatalf("next lsn = %d", lsn)
	}
}

func TestTornTailTruncated(t *testing.T) {
	l, path := openTemp(t)
	l.Append([]Op{{Kind: OpSetValue, Target: 9, Value: "x"}})
	l.Close()
	segs := segFiles(t, path)
	f, err := os.OpenFile(segs[len(segs)-1], os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte{8, 0, 0, 0, 1, 2, 3}) // header promising 8 bytes, only 3 follow
	f.Close()
	l2, err := Open(path, Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if l2.LastLSN() != 1 {
		t.Fatalf("LastLSN = %d, want 1", l2.LastLSN())
	}
	count := 0
	l2.Replay(0, func(*Record) error { count++; return nil })
	if count != 1 {
		t.Fatalf("replayed %d records, want 1", count)
	}
}

// TestTornHeaderCannotSizeAllocation: a tail that is nothing but an
// 8-byte header announcing a 1 GiB payload is a torn tail like any
// other — and the length is refused against what the segment has left
// before a buffer is made for it, on the recovery scan, Replay and the
// streaming Reader alike.
func TestTornHeaderCannotSizeAllocation(t *testing.T) {
	l, path := openTemp(t)
	l.Append([]Op{{Kind: OpSetValue, Target: 9, Value: "x"}})
	l.Append([]Op{{Kind: OpSetValue, Target: 9, Value: "y"}})
	valid := l.Segments()[0].Size
	l.Close()
	seg := segFiles(t, path)[0]
	f, err := os.OpenFile(seg, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte{0xff, 0xff, 0xff, 0x3f, 1, 2, 3, 4}) // len 0x3fffffff, nothing behind it
	f.Close()

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := scanFile(seg, nil); err != nil { // what Replay runs per segment
		t.Fatal(err)
	}
	l2, err := Open(path, Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	r, err := l2.NewReader(0)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	streamed := 0
	for rec, err := r.Next(); rec != nil || err != nil; rec, err = r.Next() {
		if err != nil {
			t.Fatal(err)
		}
		streamed++
	}
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got > 1<<20 {
		t.Fatalf("recovering a %d-byte segment allocated %d bytes", valid+8, got)
	}
	if l2.LastLSN() != 2 || streamed != 2 {
		t.Fatalf("LastLSN = %d, streamed %d records; want 2 and 2", l2.LastLSN(), streamed)
	}
	if fi, err := os.Stat(seg); err != nil || fi.Size() != valid {
		t.Fatalf("segment is %d bytes after recovery (err %v), want the torn header truncated to %d", fi.Size(), err, valid)
	}
}

func TestCorruptPayloadDropped(t *testing.T) {
	l, path := openTemp(t)
	l.Append([]Op{{Kind: OpDelete, Target: 1}})
	off := l.Segments()[0].Size
	l.Append([]Op{{Kind: OpDelete, Target: 2}})
	l.Close()
	// Flip a byte in the second record's payload.
	seg := segFiles(t, path)[0]
	data, _ := os.ReadFile(seg)
	data[off+10] ^= 0xFF
	os.WriteFile(seg, data, 0o644)
	l2, err := Open(path, Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if l2.LastLSN() != 1 {
		t.Fatalf("LastLSN = %d, want 1 (corrupt record dropped)", l2.LastLSN())
	}
}

func TestOpenOnBadPath(t *testing.T) {
	if _, err := Open(filepath.Join("/nonexistent-dir-xyz", "x.wal"), Options{}); err == nil {
		t.Fatal("open on bad path succeeded")
	}
}

func TestReplayCallbackError(t *testing.T) {
	l, _ := openTemp(t)
	defer l.Close()
	l.Append([]Op{{Kind: OpDelete, Target: 1}})
	l.Append([]Op{{Kind: OpDelete, Target: 2}})
	calls := 0
	err := l.Replay(0, func(*Record) error {
		calls++
		if calls == 1 {
			return os.ErrInvalid
		}
		return nil
	})
	if err == nil {
		t.Fatal("callback error swallowed")
	}
	if calls != 1 {
		t.Fatalf("callback ran %d times after error", calls)
	}
	// The log must still be appendable after a failed replay.
	if _, err := l.Append(nil); err != nil {
		t.Fatal(err)
	}
}

func TestSyncedAppend(t *testing.T) {
	// Exercise the fsync path (Options without NoSync).
	path := filepath.Join(t.TempDir(), "synced.wal")
	l, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	lsn, err := l.Append([]Op{{Kind: OpRename, Target: 1, Name: "n"}})
	if err != nil {
		t.Fatal(err)
	}
	if l.DurableLSN() != 0 {
		t.Fatalf("record durable before Sync: %d", l.DurableLSN())
	}
	if err := l.Sync(lsn); err != nil {
		t.Fatal(err)
	}
	if l.DurableLSN() != 1 || l.SyncCount() != 1 {
		t.Fatalf("durable=%d syncs=%d, want 1/1", l.DurableLSN(), l.SyncCount())
	}
}

// TestGroupCommitSharesFsync: one leader fsync covers every record
// appended before it, so the followers' Sync calls are free.
func TestGroupCommitSharesFsync(t *testing.T) {
	path := filepath.Join(t.TempDir(), "group.wal")
	l, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	var lsns []uint64
	for i := 0; i < 5; i++ {
		lsn, err := l.Append([]Op{{Kind: OpDelete, Target: int32(i)}})
		if err != nil {
			t.Fatal(err)
		}
		lsns = append(lsns, lsn)
	}
	if err := l.Sync(lsns[4]); err != nil {
		t.Fatal(err)
	}
	if got := l.SyncCount(); got != 1 {
		t.Fatalf("leader fsyncs = %d, want 1", got)
	}
	// Followers whose LSNs the leader covered pay nothing.
	for _, lsn := range lsns[:4] {
		if err := l.Sync(lsn); err != nil {
			t.Fatal(err)
		}
	}
	if got := l.SyncCount(); got != 1 {
		t.Fatalf("fsyncs after follower Syncs = %d, want 1", got)
	}
}

// TestGroupCommitConcurrent drives the door from many goroutines; every
// record must come out durable with (usually far) fewer fsyncs than
// appends. The hard assertion is only <=: the batching ratio is timing-
// dependent, but correctness (durable >= each lsn) is not.
func TestGroupCommitConcurrent(t *testing.T) {
	path := filepath.Join(t.TempDir(), "group2.wal")
	l, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	const n = 32
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			lsn, err := l.Append([]Op{{Kind: OpDelete, Target: int32(i)}})
			if err != nil {
				errs <- err
				return
			}
			if err := l.Sync(lsn); err != nil {
				errs <- err
				return
			}
			if l.DurableLSN() < lsn {
				errs <- fmt.Errorf("lsn %d not durable after Sync", lsn)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if l.SyncCount() > n {
		t.Fatalf("fsyncs = %d > %d appends", l.SyncCount(), n)
	}
}

func TestRotationAndPrune(t *testing.T) {
	path := filepath.Join(t.TempDir(), "rot.wal")
	l, err := Open(path, Options{NoSync: true, SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	for i := 0; i < 40; i++ {
		if _, err := l.Append([]Op{{Kind: OpSetValue, Target: int32(i), Value: "some filler text to grow the record"}}); err != nil {
			t.Fatal(err)
		}
	}
	segs := l.Segments()
	if len(segs) < 3 {
		t.Fatalf("only %d segments after 40 oversized appends", len(segs))
	}
	for i := 1; i < len(segs); i++ {
		if segs[i].Seq != segs[i-1].Seq+1 {
			t.Fatalf("segment seqs not consecutive: %+v", segs)
		}
		if segs[i-1].Records > 0 && segs[i].Records > 0 && segs[i].FirstLSN != segs[i-1].LastLSN+1 {
			t.Fatalf("segment LSNs not contiguous: %+v", segs)
		}
	}
	// Prune up to the end of the second segment: exactly the first two go.
	upTo := segs[1].LastLSN
	if err := l.Prune(upTo); err != nil {
		t.Fatal(err)
	}
	left := l.Segments()
	if len(left) != len(segs)-2 || left[0].Seq != segs[2].Seq {
		t.Fatalf("prune(%d) left %+v", upTo, left)
	}
	// A replay from upTo sees exactly the remaining records, in order.
	want := upTo + 1
	if err := l.Replay(upTo, func(r *Record) error {
		if r.LSN != want {
			return fmt.Errorf("replayed LSN %d, want %d", r.LSN, want)
		}
		want++
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if want != 41 {
		t.Fatalf("replay stopped at %d", want-1)
	}
	// Reopen: same records, same LastLSN.
	l.Close()
	l2, err := Open(path, Options{NoSync: true, SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if l2.LastLSN() != 40 {
		t.Fatalf("LastLSN after reopen = %d", l2.LastLSN())
	}
}

// TestPruneNeverTouchesActiveSegment: records above the prune LSN that
// share the active segment with covered records survive.
func TestPruneNeverTouchesActiveSegment(t *testing.T) {
	l, _ := openTemp(t) // huge segment bytes: everything stays in segment 1
	defer l.Close()
	for i := 0; i < 4; i++ {
		l.Append([]Op{{Kind: OpDelete, Target: int32(i)}})
	}
	if err := l.Prune(2); err != nil {
		t.Fatal(err)
	}
	count := 0
	l.Replay(0, func(*Record) error { count++; return nil })
	if count != 4 {
		t.Fatalf("prune of active segment dropped records: %d of 4 left", count)
	}
}

// TestCutAtRecordBoundaryKeepsAllBelow pins the exact-boundary case: a
// crash that cuts the log at the very end of record k must recover
// exactly k records — an off-by-one here is silent data loss.
func TestCutAtRecordBoundaryKeepsAllBelow(t *testing.T) {
	l, path := openTemp(t)
	var ends []int64
	for i := 0; i < 3; i++ {
		l.Append([]Op{{Kind: OpSetValue, Target: int32(i), Value: "v"}})
		ends = append(ends, l.Segments()[0].Size)
	}
	l.Close()
	seg := segFiles(t, path)[0]
	if err := os.Truncate(seg, ends[1]); err != nil {
		t.Fatal(err)
	}
	l2, err := Open(path, Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if l2.LastLSN() != 2 {
		t.Fatalf("LastLSN after boundary cut = %d, want 2", l2.LastLSN())
	}
}

// TestCutMidSegmentDiscardsLaterSegments: a cut that tears a middle
// segment must drop every later segment too, or replay would produce a
// non-contiguous record stream.
func TestCutMidSegmentDiscardsLaterSegments(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cut.wal")
	l, err := Open(path, Options{NoSync: true, SegmentBytes: 128})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		l.Append([]Op{{Kind: OpSetValue, Target: int32(i), Value: "padding padding padding"}})
	}
	segs := l.Segments()
	if len(segs) < 3 {
		t.Fatalf("need >=3 segments, got %d", len(segs))
	}
	l.Close()
	// Tear the second segment in the middle of its middle record (the
	// records are all the same size).
	rec := segs[1].Size / int64(segs[1].Records)
	if err := os.Truncate(segs[1].Path, rec*int64(segs[1].Records/2)+rec/2); err != nil {
		t.Fatal(err)
	}
	l2, err := Open(path, Options{NoSync: true, SegmentBytes: 128})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if got := len(l2.Segments()); got != 2 {
		t.Fatalf("segments after mid-cut = %d, want 2 (later segments discarded)", got)
	}
	prev := uint64(0)
	if err := l2.Replay(0, func(r *Record) error {
		if r.LSN != prev+1 {
			return fmt.Errorf("non-contiguous replay: %d after %d", r.LSN, prev)
		}
		prev = r.LSN
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if prev == 0 || prev >= 20 {
		t.Fatalf("replayed through LSN %d, want a strict prefix", prev)
	}
}

// TestEmptyTailSegmentIsHarmless: a crash between sealing a segment and
// writing the first record of the next one leaves a zero-byte tail; the
// log must open and keep appending.
func TestEmptyTailSegmentIsHarmless(t *testing.T) {
	l, path := openTemp(t)
	l.Append([]Op{{Kind: OpDelete, Target: 1}})
	l.Close()
	empty := fmt.Sprintf("%s.%0*d", path, segWidth, 2)
	if err := os.WriteFile(empty, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	l2, err := Open(path, Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if l2.LastLSN() != 1 {
		t.Fatalf("LastLSN = %d, want 1", l2.LastLSN())
	}
	if lsn, err := l2.Append(nil); err != nil || lsn != 2 {
		t.Fatalf("append into empty tail: %d, %v", lsn, err)
	}
}

// TestBareFileAtBasePathIsForeign: only <path>.NNNNNNNN files are
// segments. A file at the base path itself is not read by Open and not
// deleted by RemoveSegments.
func TestBareFileAtBasePathIsForeign(t *testing.T) {
	path := filepath.Join(t.TempDir(), "doc.wal")
	if err := os.WriteFile(path, []byte("not a segment"), 0o644); err != nil {
		t.Fatal(err)
	}
	l, err := Open(path, Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	if l.LastLSN() != 0 {
		t.Fatalf("LastLSN = %d: the bare file was read as a log", l.LastLSN())
	}
	l.Append([]Op{{Kind: OpRename, Target: 7, Name: "x"}})
	l.Close()
	RemoveSegments(path)
	if segs := segFiles(t, path); len(segs) != 0 {
		t.Fatalf("segments survive RemoveSegments: %v", segs)
	}
	if data, err := os.ReadFile(path); err != nil || string(data) != "not a segment" {
		t.Fatalf("bare file touched: %q, %v", data, err)
	}
}

func TestEnsureLSN(t *testing.T) {
	l, _ := openTemp(t)
	defer l.Close()
	l.EnsureLSN(9)
	if lsn, _ := l.Append(nil); lsn != 10 {
		t.Fatalf("lsn after EnsureLSN(9) = %d, want 10", lsn)
	}
	l.EnsureLSN(3) // never lowers
	if lsn, _ := l.Append(nil); lsn != 11 {
		t.Fatalf("lsn = %d, want 11", lsn)
	}
}

func TestTailStats(t *testing.T) {
	path := filepath.Join(t.TempDir(), "tail.wal")
	l, err := Open(path, Options{NoSync: true, SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	for i := 0; i < 10; i++ {
		l.Append([]Op{{Kind: OpSetValue, Target: int32(i), Value: "some value text for bytes"}})
	}
	bytes, records := l.TailStats()
	if records != 10 || bytes <= 0 {
		t.Fatalf("tail = %d bytes / %d records", bytes, records)
	}
	segs := l.Segments()
	if len(segs) < 2 {
		t.Fatalf("expected rotation, got %d segments", len(segs))
	}
	if err := l.Prune(segs[0].LastLSN); err != nil {
		t.Fatal(err)
	}
	bytes2, records2 := l.TailStats()
	if records2 >= records || bytes2 >= bytes {
		t.Fatalf("prune did not shrink tail: %d/%d -> %d/%d", bytes, records, bytes2, records2)
	}
}

func TestAppendAfterCloseErrors(t *testing.T) {
	l, _ := openTemp(t)
	l.Append([]Op{{Kind: OpDelete, Target: 1}})
	l.Close()
	if _, err := l.Append(nil); err == nil {
		t.Fatal("append after Close succeeded")
	}
	if err := l.Sync(1); err != nil {
		t.Fatalf("Sync of an already-durable LSN after Close: %v", err)
	}
}

func TestTailStatsAbove(t *testing.T) {
	path := filepath.Join(t.TempDir(), "above.wal")
	l, err := Open(path, Options{NoSync: true, SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	for i := 0; i < 10; i++ {
		l.Append([]Op{{Kind: OpSetValue, Target: int32(i), Value: "some value text for byte volume"}})
	}
	if _, records := l.TailStatsAbove(0); records != 10 {
		t.Fatalf("records above 0 = %d, want 10", records)
	}
	bytes, records := l.TailStatsAbove(7)
	if records != 3 {
		t.Fatalf("records above 7 = %d, want 3", records)
	}
	total, _ := l.TailStats()
	if bytes <= 0 || bytes >= total {
		t.Fatalf("bytes above 7 = %d, want in (0, %d)", bytes, total)
	}
	if b, r := l.TailStatsAbove(10); b != 0 || r != 0 {
		t.Fatalf("tail above the last LSN = %d/%d, want 0/0", b, r)
	}
}

// TestRemoveSegmentsExactMatch: removing one log's segments must not
// touch a sibling log whose base name shares a prefix.
func TestRemoveSegmentsExactMatch(t *testing.T) {
	dir := t.TempDir()
	short, err := Open(filepath.Join(dir, "a.wal"), Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	short.Append([]Op{{Kind: OpDelete, Target: 1}})
	short.Close()
	long, err := Open(filepath.Join(dir, "a.wal.extra.wal"), Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	long.Append([]Op{{Kind: OpDelete, Target: 2}})
	long.Close()

	RemoveSegments(filepath.Join(dir, "a.wal"))
	if files := segFiles(t, filepath.Join(dir, "a.wal")); len(files) != 0 {
		t.Fatalf("own segments survived: %v", files)
	}
	reopened, err := Open(filepath.Join(dir, "a.wal.extra.wal"), Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	if reopened.LastLSN() != 1 {
		t.Fatalf("sibling log damaged: LastLSN = %d, want 1", reopened.LastLSN())
	}
}

// TestSyncToleratesRotateRace: a Sync whose captured file handle is
// sealed and closed by a concurrent rotation must not report an error —
// the seal fsync made the record durable.
func TestSyncToleratesRotateRace(t *testing.T) {
	path := filepath.Join(t.TempDir(), "rotrace.wal")
	l, err := Open(path, Options{SegmentBytes: 64}) // sync on, tiny segments
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 4; j++ {
				lsn, err := l.Append([]Op{{Kind: OpSetValue, Target: int32(i), Value: "rotate every append"}})
				if err != nil {
					errs <- err
					return
				}
				if err := l.Sync(lsn); err != nil {
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
	if l.DurableLSN() != l.LastLSN() {
		t.Fatalf("durable %d != appended %d", l.DurableLSN(), l.LastLSN())
	}
}

// TestReplayRacesAppend: Replay is a pure read over fresh handles and
// must be safe to run while another goroutine appends (run under -race;
// this pins the fix for scanSegment mutating shared segment state).
func TestReplayRacesAppend(t *testing.T) {
	path := filepath.Join(t.TempDir(), "replayrace.wal")
	l, err := Open(path, Options{NoSync: true, SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	l.Append([]Op{{Kind: OpDelete, Target: 0}})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 1; i < 40; i++ {
			l.Append([]Op{{Kind: OpSetValue, Target: int32(i), Value: "concurrent append payload"}})
		}
	}()
	for i := 0; i < 10; i++ {
		prev := uint64(0)
		if err := l.Replay(0, func(r *Record) error {
			if r.LSN != prev+1 {
				return fmt.Errorf("replay gap: %d after %d", r.LSN, prev)
			}
			prev = r.LSN
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	<-done
	bytes, records := l.TailStats()
	if records != 40 || bytes <= 0 {
		t.Fatalf("accounting corrupted by concurrent replay: %d bytes / %d records", bytes, records)
	}
}

// recordSize measures the encoded size of one boundary-test record by
// appending it to a throwaway log. The tests below derive SegmentBytes
// from it, so they stay exact if the record encoding ever changes.
func recordSize(t *testing.T) int64 {
	t.Helper()
	l, _ := openTemp(t)
	defer l.Close()
	if _, err := l.Append(boundaryOps()); err != nil {
		t.Fatal(err)
	}
	return l.Segments()[0].Size
}

// boundaryOps builds the fixed op list the boundary tests append. The
// LSN inside the record is a uvarint, so identical ops produce identical
// record sizes only while the LSN stays below 128, its one-byte range —
// the tests keep well under that.
func boundaryOps() []Op {
	return []Op{{Kind: OpSetValue, Target: 7, Value: "boundary filler"}}
}

// TestRotationExactBoundary: a record landing exactly at SegmentBytes
// seals the segment with the record intact — never split across the
// boundary — and the next record starts the new segment.
func TestRotationExactBoundary(t *testing.T) {
	s := recordSize(t)
	path := filepath.Join(t.TempDir(), "exact.wal")
	l, err := Open(path, Options{NoSync: true, SegmentBytes: 3 * s})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	for i := 0; i < 3; i++ {
		if _, err := l.Append(boundaryOps()); err != nil {
			t.Fatal(err)
		}
	}
	segs := l.Segments()
	if len(segs) != 2 {
		t.Fatalf("segments after exact fill = %d, want sealed + fresh active", len(segs))
	}
	if segs[0].Size != 3*s || segs[0].Records != 3 || segs[0].LastLSN != 3 {
		t.Fatalf("sealed segment = %+v, want exactly 3 records / %d bytes", segs[0], 3*s)
	}
	if segs[1].Records != 0 || segs[1].Size != 0 {
		t.Fatalf("active segment not empty after rotation: %+v", segs[1])
	}

	// The next record lands wholly in the new segment: nothing of it in
	// the sealed one, no split.
	if _, err := l.Append(boundaryOps()); err != nil {
		t.Fatal(err)
	}
	segs = l.Segments()
	if segs[0].Size != 3*s {
		t.Fatalf("sealed segment grew after rotation: %+v", segs[0])
	}
	if segs[1].Records != 1 || segs[1].FirstLSN != 4 || segs[1].Size != s {
		t.Fatalf("record after boundary = %+v, want 1 record of %d bytes starting at LSN 4", segs[1], s)
	}
}

// TestRotationOneByteShort: one byte under the threshold must NOT seal —
// rotation fires only once the active segment has reached SegmentBytes.
func TestRotationOneByteShort(t *testing.T) {
	s := recordSize(t)
	path := filepath.Join(t.TempDir(), "short.wal")
	l, err := Open(path, Options{NoSync: true, SegmentBytes: 3*s + 1})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	for i := 0; i < 3; i++ {
		if _, err := l.Append(boundaryOps()); err != nil {
			t.Fatal(err)
		}
	}
	if segs := l.Segments(); len(segs) != 1 {
		t.Fatalf("segments one byte short of threshold = %d, want 1", len(segs))
	}
	// The fourth append crosses the threshold and seals.
	if _, err := l.Append(boundaryOps()); err != nil {
		t.Fatal(err)
	}
	if segs := l.Segments(); len(segs) != 2 || segs[0].Records != 4 {
		t.Fatalf("segments after crossing = %+v", segs)
	}
}

// TestRotationBoundaryRecovery: a reopen across an exact-boundary seal
// replays every record exactly once — no gap and no duplicate at the
// segment seam.
func TestRotationBoundaryRecovery(t *testing.T) {
	s := recordSize(t)
	path := filepath.Join(t.TempDir(), "recover.wal")
	l, err := Open(path, Options{NoSync: true, SegmentBytes: 3 * s})
	if err != nil {
		t.Fatal(err)
	}
	const n = 7 // 3 in the first sealed segment, 3 in the second, 1 active
	for i := 0; i < n; i++ {
		if _, err := l.Append(boundaryOps()); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l2, err := Open(path, Options{NoSync: true, SegmentBytes: 3 * s})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if l2.LastLSN() != n {
		t.Fatalf("LastLSN after reopen = %d, want %d", l2.LastLSN(), n)
	}
	want := uint64(1)
	if err := l2.Replay(0, func(r *Record) error {
		if r.LSN != want {
			return fmt.Errorf("replayed LSN %d, want %d", r.LSN, want)
		}
		want++
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if want != n+1 {
		t.Fatalf("replay covered %d records, want %d", want-1, n)
	}
	// Appends continue seamlessly after the boundary recovery.
	lsn, err := l2.Append(boundaryOps())
	if err != nil || lsn != n+1 {
		t.Fatalf("append after reopen = %d, %v", lsn, err)
	}
}

// TestRotationBoundarySyncDurable: with fsync on, a Sync issued for the
// record that triggered the seal still lands (the seal itself fsyncs the
// sealed segment; Sync must not stall on a file that is already closed).
func TestRotationBoundarySyncDurable(t *testing.T) {
	s := recordSize(t)
	path := filepath.Join(t.TempDir(), "sync.wal")
	l, err := Open(path, Options{SegmentBytes: 3 * s}) // fsync enabled
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	var last uint64
	for i := 0; i < 3; i++ {
		if last, err = l.Append(boundaryOps()); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Sync(last); err != nil {
		t.Fatal(err)
	}
	if l.DurableLSN() < last {
		t.Fatalf("durable = %d after Sync(%d) across a seal", l.DurableLSN(), last)
	}
	if segs := l.Segments(); len(segs) != 2 {
		t.Fatalf("segments = %d, want seal to have happened", len(segs))
	}
}

// syncFaultFS is vfs.OS with the file fsyncs failing while fail is set.
type syncFaultFS struct {
	vfs.FS
	fail atomic.Bool
}

func (s *syncFaultFS) OpenFile(name string, flag int, perm os.FileMode) (vfs.File, error) {
	f, err := s.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return syncFaultFile{f, s}, nil
}

type syncFaultFile struct {
	vfs.File
	fs *syncFaultFS
}

func (f syncFaultFile) Sync() error {
	if f.fs.fail.Load() {
		return syscall.EIO
	}
	return f.File.Sync()
}

// TestFailedFsyncPoisonsLog: after a failed fsync — the group-commit
// door's or a seal's — the log is poisoned. Sync keeps failing even once
// the disk answers again (the pages the failed fsync could not write may
// be gone, and a later fsync that succeeds proves nothing about them), so
// DurableLSN never passes the record; Append and AppendRecord fail, and so
// does Close, which still releases the segment. A reopened log is writable
// again.
func TestFailedFsyncPoisonsLog(t *testing.T) {
	s := recordSize(t)
	for _, seal := range []bool{false, true} {
		t.Run(fmt.Sprintf("seal=%v", seal), func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "poison.wal")
			ffs := &syncFaultFS{FS: vfs.OS}
			l, err := Open(path, Options{SegmentBytes: 3 * s, FS: ffs})
			if err != nil {
				t.Fatal(err)
			}
			lsn, err := l.Append(boundaryOps())
			if err != nil || l.Sync(lsn) != nil || l.DurableLSN() != 1 {
				t.Fatalf("first record: %d, %v, durable %d", lsn, err, l.DurableLSN())
			}
			lsn, _ = l.Append(boundaryOps()) // below the rotation threshold
			ffs.fail.Store(true)
			if seal {
				// The third record reaches the threshold: its seal fails, and
				// the record stands.
				if lsn, err = l.Append(boundaryOps()); err != nil {
					t.Fatalf("the append whose seal failed: %v", err)
				}
			} else if err := l.Sync(lsn); err == nil {
				t.Fatal("Sync over a failing fsync succeeded")
			}
			ffs.fail.Store(false)
			if err := l.Sync(lsn); err == nil || l.DurableLSN() != 1 {
				t.Fatalf("Sync after the failed fsync = %v, durable %d: the log passed the failed record", err, l.DurableLSN())
			}
			if _, err := l.Append(boundaryOps()); err == nil {
				t.Fatal("Append on a poisoned log succeeded")
			}
			if err := l.AppendRecord(&Record{LSN: lsn + 1}); err == nil {
				t.Fatal("AppendRecord on a poisoned log succeeded")
			}
			if l.LastLSN() != lsn {
				t.Fatalf("LastLSN = %d, want %d", l.LastLSN(), lsn)
			}
			if err := l.Close(); err == nil {
				t.Fatal("Close of a poisoned log succeeded")
			}
			l2, err := Open(path, Options{NoSync: true})
			if err != nil {
				t.Fatal(err)
			}
			defer l2.Close()
			if next, err := l2.Append(boundaryOps()); err != nil || next != lsn+1 {
				t.Fatalf("append after reopening = %d, %v, want %d", next, err, lsn+1)
			}
		})
	}
}

// raceSyncFS is vfs.OS whose first file fsync fails with EIO, the way a
// kernel reports a failed writeback: once. The failure is held back until
// a second fsync has started, or for a grace period if none can start
// meanwhile; the second, and every later one, succeeds.
type raceSyncFS struct {
	vfs.FS
	syncs           atomic.Int32
	entered, second chan struct{}
}

func (r *raceSyncFS) OpenFile(name string, flag int, perm os.FileMode) (vfs.File, error) {
	f, err := r.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return raceSyncFile{f, r}, nil
}

type raceSyncFile struct {
	vfs.File
	fs *raceSyncFS
}

func (f raceSyncFile) Sync() error {
	switch f.fs.syncs.Add(1) {
	case 1:
		close(f.fs.entered)
		select {
		case <-f.fs.second:
		case <-time.After(100 * time.Millisecond):
		}
		return syscall.EIO
	case 2:
		close(f.fs.second)
	}
	return f.File.Sync()
}

// TestFailedDoorFsyncStopsConcurrentSeal: a seal that starts while the
// group-commit door's fsync is failing must not report the records durable.
// Its own fsync would succeed — the kernel told the door — so it has to wait
// for the door's verdict rather than run beside it.
func TestFailedDoorFsyncStopsConcurrentSeal(t *testing.T) {
	s := recordSize(t)
	rfs := &raceSyncFS{FS: vfs.OS, entered: make(chan struct{}), second: make(chan struct{})}
	l, err := Open(filepath.Join(t.TempDir(), "race.wal"), Options{SegmentBytes: 3 * s, FS: rfs})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	l.Append(boundaryOps())
	lsn, _ := l.Append(boundaryOps()) // below the rotation threshold
	door := make(chan error)
	go func() { door <- l.Sync(lsn) }()
	<-rfs.entered
	// The third record reaches the threshold, and its seal fsyncs.
	third, err := l.Append(boundaryOps())
	if err != nil {
		t.Fatalf("the append that seals: %v", err)
	}
	if err := <-door; err == nil {
		t.Fatal("the door's failed fsync reported success")
	}
	if err := l.Sync(third); err == nil || l.DurableLSN() != 0 {
		t.Fatalf("Sync(%d) = %v, durable %d: the seal passed the door's failed fsync", third, err, l.DurableLSN())
	}
}
