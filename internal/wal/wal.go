// Package wal implements the write-ahead log of the transaction protocol
// (Figure 8). A commit appends exactly one record — "writing the WAL is
// the crucial stage in transaction commit, it consists of a single I/O" —
// containing the transaction's resolved update operations; recovery
// replays committed records that a crash prevented from being carried
// into the checkpointed store image.
//
// A record is framed in its segment by its payload's length and CRC-32
// (uint32s, little-endian). The payload is the record's one encoding,
// also what a WALRecords frame carries to a follower (concatenated): the
// format byte 1, then canonical uvarints (int32 and int16 fields as their
// bits) and length-prefixed strings — LSN, #ops, and per op kind, target,
// child, name, value, #fragment nodes (per node kind, level, size, name,
// value, #attributes, per attribute name, value), #new ids, the ids. It
// is at most wire.MaxFrame less the 9-byte frame header, so one frame
// carries any record: Append refuses a larger one before writing a byte.
// A torn tail (crash mid-append) is detected by length/checksum mismatch
// and truncated away, which is exactly the atomicity guarantee the
// paper's single-I/O commit gives; a checksummed payload that does not
// decode (a gob-era record: "unsupported WAL record format") fails Open.
//
// # Segments
//
// The log is not one file but a sequence of rotating, size-bounded
// segment files ("<base>.00000001", "<base>.00000002", ...). Appends go
// to the newest (active) segment; once it exceeds Options.SegmentBytes
// it is sealed — fsynced one final time — and a fresh segment becomes
// active. Sealing never splits a record. Segmentation is what makes
// checkpoint truncation safe and cheap: instead of truncating a single
// file (racing concurrent commits), the checkpointer calls Prune, which
// deletes only whole sealed segments whose every record the checkpoint
// already covers. A commit that lands while a checkpoint streams can at
// worst share the active segment, which Prune never touches — so a
// checkpoint can never delete a record it does not cover, by
// construction.
//
// # Group commit
//
// Append writes a record but does not make it durable; Sync(lsn) does,
// through a batching door: the first committer through the door becomes
// the leader and issues one fsync covering every record appended so far,
// while committers arriving during that fsync wait at the door and
// usually find their record already durable when they get through —
// turning N commit fsyncs into ~1 under load. SyncCount exposes how many
// physical fsyncs the door actually issued.
//
// A failed fsync — the door's or a seal's — poisons the log: the kernel
// may have dropped the pages it could not write, so a later fsync that
// succeeds proves nothing. Append, AppendRecord, Sync and Close return
// that error from then on, and DurableLSN never passes the record. A
// reopened log is writable again, but reopening is no proof either: Open
// reads the page cache, which may still hold a record the kernel never
// wrote, and counts every record it finds durable.
// Every change a Log makes to the disk goes through Options.FS
// (internal/vfs); RemoveSegments, which has no Log, goes through vfs.OS.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"

	"mxq/internal/shred"
	"mxq/internal/vfs"
	"mxq/internal/wire"
	"mxq/internal/xenc"
)

// OpKind enumerates the logical operations a record can carry.
type OpKind uint8

// The redo operation kinds.
const (
	OpInsertBefore OpKind = iota
	OpInsertAfter
	OpAppendChild
	OpInsertChildAt
	OpDelete
	OpSetValue
	OpRename
	OpSetAttr
	OpRemoveAttr
)

// Op is one resolved update operation. Targets are immutable node ids;
// inserts carry their fragment as parsed (Frag, shared and never changed)
// and the ids the transaction observed (NewIDs), so replay can map
// transaction-local ids to the ids the base store hands out.
type Op struct {
	Kind   OpKind
	Target xenc.NodeID
	Child  int32
	Name   string
	Value  string
	Frag   *shred.Tree
	NewIDs []xenc.NodeID
}

// Record is one committed transaction.
type Record struct {
	LSN uint64
	Ops []Op
}

// recordFormat opens every record's encoding; maxRecord bounds the
// encoding by what one WALRecords frame carries (package doc).
const (
	recordFormat = 1
	maxRecord    = wire.MaxFrame - 9
)

// Encode appends the record's encoding to p.
func (rec *Record) Encode(p *wire.PayloadBuilder) {
	p.Byte(recordFormat).Uvarint(rec.LSN).Uvarint(uint64(len(rec.Ops)))
	for _, op := range rec.Ops {
		p.Uvarint(uint64(op.Kind)).Uvarint(uint64(uint32(op.Target))).Uvarint(uint64(uint32(op.Child))).String(op.Name).String(op.Value)
		var nodes []shred.Node
		if op.Frag != nil {
			nodes = op.Frag.Nodes
		}
		p.Uvarint(uint64(len(nodes)))
		for _, n := range nodes {
			p.Uvarint(uint64(n.Kind)).Uvarint(uint64(uint16(n.Level))).Uvarint(uint64(uint32(n.Size))).String(n.Name).String(n.Value)
			p.Uvarint(uint64(len(n.Attrs)))
			for _, a := range n.Attrs {
				p.String(a.Name).String(a.Value)
			}
		}
		p.Uvarint(uint64(len(op.NewIDs)))
		for _, id := range op.NewIDs {
			p.Uvarint(uint64(uint32(id)))
		}
	}
}

// DecodeRecord reads one record's encoding off r and leaves r just past
// it. Every count is checked against the bytes left before it sizes an
// allocation, and a value too wide for its field is refused, so what it
// accepts re-encodes to the same bytes. An op kind past OpRemoveAttr
// and a fragment of a shape the shredder does not produce
// (shred.Tree.Check) are refused too: the store trusts a fragment's
// levels and sizes.
func DecodeRecord(r *wire.PayloadReader) (*Record, error) {
	if f, err := r.Byte(); err == nil && f != recordFormat {
		r.Fail(fmt.Errorf("wal: unsupported WAL record format %#02x", f))
	}
	// The reader's first error sticks: every read after it returns zero,
	// so the decode runs to its end unchecked. An op encodes to at least
	// 7 bytes, a node 6, an attribute 2.
	rec := new(Record)
	rec.LSN, _ = r.Uvarint()
	nops, _ := r.Count(7)
	rec.Ops = make([]Op, nops)
	for i := range rec.Ops {
		op := &rec.Ops[i]
		op.Kind, op.Target, op.Child = OpKind(r.UvarintMax(uint64(OpRemoveAttr))), int32(r.UvarintMax(math.MaxUint32)), int32(r.UvarintMax(math.MaxUint32))
		op.Name, _ = r.String()
		op.Value, _ = r.String()
		nnodes, _ := r.Count(6)
		op.Frag = &shred.Tree{Nodes: make([]shred.Node, nnodes)}
		for j := range op.Frag.Nodes {
			n := &op.Frag.Nodes[j]
			n.Kind, n.Level, n.Size = xenc.Kind(r.UvarintMax(math.MaxUint8)), int16(r.UvarintMax(math.MaxUint16)), int32(r.UvarintMax(math.MaxUint32))
			n.Name, _ = r.String()
			n.Value, _ = r.String()
			nattrs, _ := r.Count(2)
			n.Attrs = make([]shred.Attr, nattrs)
			for k := range n.Attrs {
				n.Attrs[k].Name, _ = r.String()
				n.Attrs[k].Value, _ = r.String()
			}
		}
		if r.Err() == nil {
			if err := op.Frag.Check(); err != nil {
				r.Fail(err)
			}
		}
		nids, _ := r.Count(1)
		op.NewIDs = make([]xenc.NodeID, nids)
		for j := range op.NewIDs {
			op.NewIDs[j] = int32(r.UvarintMax(math.MaxUint32))
		}
	}
	if err := r.Err(); err != nil {
		return nil, err
	}
	return rec, nil
}

// DefaultSegmentBytes is the rotation threshold when Options leaves
// SegmentBytes zero.
const DefaultSegmentBytes = 1 << 20

// segWidth is the zero-padded width of the numeric segment suffix
// (lexicographic order == numeric order for any realistic count).
const segWidth = 8

// segment is one on-disk log file. Only the last (active) segment holds
// an open file handle; sealed segments are immutable and reopened
// read-only when replay or recovery needs them.
type segment struct {
	seq      uint64
	path     string
	f        vfs.File // non-nil only for the active segment
	firstLSN uint64   // 0 when the segment holds no records
	lastLSN  uint64
	size     int64
	records  int
}

// SegmentInfo describes one segment for observability and tests.
type SegmentInfo struct {
	Path     string
	Seq      uint64
	FirstLSN uint64
	LastLSN  uint64
	Size     int64
	Records  int
}

// Log is an append-only, segmented write-ahead log.
type Log struct {
	mu       sync.Mutex // segment list, active file, lsn, tail counters
	fs       vfs.FS
	dir      string
	base     string // segment name prefix (e.g. "doc.wal")
	segs     []*segment
	lsn      uint64
	sync     bool
	segBytes int64

	// durable is the highest LSN known to have reached stable storage;
	// it only ever advances. syncMu is the group-commit door: the leader
	// holds it across one fsync while followers queue behind it.
	durable   atomic.Uint64
	syncMu    sync.Mutex
	syncCount atomic.Uint64

	// fsyncMu is held across every fsync of a segment file, the door's
	// and a seal's alike; failed, the first one that failed, is set
	// before it is let go. The log is poisoned once failed is set.
	fsyncMu sync.Mutex
	failed  atomic.Pointer[error]

	// notifyC broadcasts durable-LSN advances to streaming readers (the
	// replication sender parks on it instead of polling): it is closed
	// and replaced whenever the watermark rises. Lazily created by
	// DurableChanged.
	notifyMu sync.Mutex
	notifyC  chan struct{}
}

// Options configure a log.
type Options struct {
	// NoSync skips fsync entirely (for tests and benchmarks that do not
	// measure durability); Sync becomes a no-op that reports every
	// appended record as durable.
	NoSync bool
	// SegmentBytes is the rotation threshold: once the active segment
	// reaches it, the segment is sealed and a new one started. Zero means
	// DefaultSegmentBytes.
	SegmentBytes int64
	// FS is what the log changes the disk through. Nil means vfs.OS.
	FS vfs.FS
}

// Open opens or creates the segmented log rooted at path (segments live
// at path.00000001, path.00000002, ...). It scans all segments in order
// to find the last valid LSN, truncating a torn tail and discarding any
// segments beyond a cut (a crash — or crash injection — that severed the
// log mid-stream).
func Open(path string, opts Options) (*Log, error) {
	l := &Log{
		fs:       opts.FS,
		dir:      filepath.Dir(path),
		base:     filepath.Base(path),
		sync:     !opts.NoSync,
		segBytes: opts.SegmentBytes,
	}
	if l.fs == nil {
		l.fs = vfs.OS
	}
	if l.segBytes <= 0 {
		l.segBytes = DefaultSegmentBytes
	}
	if err := l.loadSegments(); err != nil {
		return nil, err
	}
	if err := l.scanAll(); err != nil {
		return nil, err
	}
	if len(l.segs) == 0 {
		if _, err := l.addSegment(1); err != nil {
			return nil, err
		}
	}
	// Open the active (last) segment for appending — unless addSegment
	// just created it with an open handle of its own.
	if active := l.segs[len(l.segs)-1]; active.f == nil {
		var err error
		if active.f, err = l.fs.OpenFile(active.path, os.O_WRONLY|os.O_APPEND, 0); err != nil {
			return nil, fmt.Errorf("wal: %w", err)
		}
	}
	l.durable.Store(l.lsn) // whatever survived on disk is as durable as it gets
	return l, nil
}

func (l *Log) segPath(seq uint64) string {
	return filepath.Join(l.dir, fmt.Sprintf("%s.%0*d", l.base, segWidth, seq))
}

// loadSegments lists the on-disk segment files in segment order.
func (l *Log) loadSegments() error {
	paths, err := SegmentPaths(filepath.Join(l.dir, l.base))
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	for _, p := range paths {
		seq, err := strconv.ParseUint(p[len(p)-segWidth:], 10, 64)
		if err != nil || seq == 0 {
			continue
		}
		l.segs = append(l.segs, &segment{seq: seq, path: p})
	}
	return nil
}

// scanAll walks every segment in order, truncating the first torn record
// and discarding all segments after it: a crash only ever tears the
// active tail, so anything beyond a tear is the far side of a cut and
// must not be replayed (its records would be non-contiguous with the
// recovered prefix).
func (l *Log) scanAll() error {
	changed := false
	for i, seg := range l.segs {
		meta, err := scanFile(seg.path, nil)
		if err != nil {
			return err
		}
		seg.firstLSN, seg.lastLSN = meta.firstLSN, meta.lastLSN
		seg.records, seg.size = meta.records, meta.size
		torn := meta.validEnd < meta.size
		if torn {
			if err := l.fs.Truncate(seg.path, meta.validEnd); err != nil {
				return fmt.Errorf("wal: truncating torn tail of %s: %w", seg.path, err)
			}
			seg.size = meta.validEnd
			changed = true
		}
		if seg.lastLSN > l.lsn {
			l.lsn = seg.lastLSN
		}
		if torn && i < len(l.segs)-1 {
			for _, later := range l.segs[i+1:] {
				if err := l.fs.Remove(later.path); err != nil {
					return fmt.Errorf("wal: removing cut segment %s: %w", later.path, err)
				}
			}
			l.segs = l.segs[:i+1]
			break
		}
	}
	if changed && l.sync {
		// Make the truncation/removals durable now: a crash after this
		// recovery must not resurrect post-cut segments whose records are
		// non-contiguous with the truncated prefix.
		return l.fs.SyncDir(l.dir)
	}
	return nil
}

// segMeta is what one pass over a segment file learns.
type segMeta struct {
	validEnd int64 // offset just past the last valid record
	size     int64 // file size (>= validEnd when the tail is torn)
	firstLSN uint64
	lastLSN  uint64
	records  int
}

// scanFile reads one segment file start to finish, calling fn (if
// non-nil) per valid record; the first offset readRecordAt finds no
// record at is the end of the valid prefix. It is a pure read — no
// *segment state is touched — so Replay can run concurrently with Append
// without racing the segment accounting Append maintains under l.mu.
func scanFile(path string, fn func(*Record) error) (segMeta, error) {
	var meta segMeta
	f, err := os.Open(path)
	if err != nil {
		return meta, fmt.Errorf("wal: %w", err)
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return meta, fmt.Errorf("wal: %w", err)
	}
	meta.size = fi.Size()
	for {
		rec, n, err := readRecordAt(f, meta.validEnd, meta.size)
		if err != nil || rec == nil {
			return meta, err // no error: clean EOF or torn tail
		}
		if fn != nil {
			if err := fn(rec); err != nil {
				return meta, err
			}
		}
		meta.validEnd += n
		if meta.firstLSN == 0 {
			meta.firstLSN = rec.LSN
		}
		meta.lastLSN = rec.LSN
		meta.records++
	}
}

// readRecordAt decodes the one record frame — uint32 payload length,
// uint32 CRC-32 of the payload, payload — at off in a segment of size
// bytes, returning the record and the frame's length. No record and no
// error mean a clean or torn end: a short header, an empty payload (a
// zero-filled tail), a length announcing more than the segment has left
// (refused before anything is allocated for it, so a torn header cannot
// size a buffer), a short payload or a checksum mismatch. The caller
// decides whether that is "truncate", "wait" or "move on".
func readRecordAt(r io.ReaderAt, off, size int64) (*Record, int64, error) {
	var hdr [8]byte
	if _, err := r.ReadAt(hdr[:], off); err != nil {
		return nil, 0, nil
	}
	n := int64(binary.LittleEndian.Uint32(hdr[0:4]))
	sum := binary.LittleEndian.Uint32(hdr[4:8])
	if n == 0 || n > size-off-8 {
		return nil, 0, nil
	}
	payload := make([]byte, n)
	if _, err := r.ReadAt(payload, off+8); err != nil {
		return nil, 0, nil
	}
	if crc32.ChecksumIEEE(payload) != sum {
		return nil, 0, nil
	}
	p := wire.NewPayloadReader(payload)
	rec, err := DecodeRecord(p)
	if err == nil && p.Remaining() > 0 {
		err = errors.New("wal: bytes trail a record")
	}
	return rec, 8 + n, err
}

// addSegment creates and registers an empty segment file. On failure
// nothing is registered, so the caller's segment list stays usable.
func (l *Log) addSegment(seq uint64) (*segment, error) {
	seg := &segment{seq: seq, path: l.segPath(seq)}
	var err error
	if seg.f, err = l.fs.OpenFile(seg.path, os.O_WRONLY|os.O_APPEND|os.O_CREATE|os.O_EXCL, 0o644); err != nil {
		return nil, fmt.Errorf("wal: creating segment: %w", err)
	}
	if l.sync {
		if err := l.fs.SyncDir(l.dir); err != nil {
			seg.f.Close()
			l.fs.Remove(seg.path)
			return nil, fmt.Errorf("wal: creating segment: %w", err)
		}
	}
	l.segs = append(l.segs, seg)
	return seg, nil
}

// LastLSN returns the LSN of the last appended record (0 if none).
func (l *Log) LastLSN() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.lsn
}

// DurableLSN returns the highest LSN known to be on stable storage.
func (l *Log) DurableLSN() uint64 { return l.durable.Load() }

// SyncCount returns how many physical fsyncs the group-commit door has
// issued (a measure of batching: N commits sharing one fsync raise it
// by 1).
func (l *Log) SyncCount() uint64 { return l.syncCount.Load() }

// Append writes one record to the active segment and assigns its LSN.
// The record is NOT durable until Sync(lsn) returns: Append is the part
// of the commit that runs inside the critical section, Sync the part
// that runs outside it, shared with other committers.
func (l *Log) Append(ops []Op) (uint64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	rec := Record{LSN: l.lsn + 1, Ops: ops}
	if err := l.appendLocked(&rec); err != nil {
		return 0, err
	}
	return rec.LSN, nil
}

// AppendRecord appends a record that already carries its LSN — the
// replication apply path, where the follower's log must reproduce the
// primary's numbering exactly. The record must be contiguous with the
// local tail; a gap is refused rather than written (a follower that
// skipped a record would diverge silently on its next recovery).
// Durability follows the same contract as Append: call Sync to settle
// it, typically once per applied batch.
func (l *Log) AppendRecord(rec *Record) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if rec.LSN != l.lsn+1 {
		return fmt.Errorf("wal: non-contiguous append: local tail %d, record %d", l.lsn, rec.LSN)
	}
	return l.appendLocked(rec)
}

// appendLocked writes one record (rec.LSN must be l.lsn+1) to the
// active segment. Called with l.mu held.
func (l *Log) appendLocked(rec *Record) error {
	if err := l.poisoned(); err != nil {
		return err
	}
	active := l.segs[len(l.segs)-1]
	if active.f == nil {
		return fmt.Errorf("wal: log is closed")
	}
	// One Write for header+payload: a failure (even a short write) is
	// repaired by rolling the file back to the last record boundary, so
	// no garbage can sit between this record's slot and a later append —
	// recovery's scan would stop at the garbage and silently drop every
	// durable record behind it otherwise.
	var p wire.PayloadBuilder
	p.Raw(make([]byte, 8))
	rec.Encode(&p)
	record := p.Bytes()
	if n := len(record) - 8; n > maxRecord {
		return fmt.Errorf("wal: record %d encodes to %d bytes, over the %d one frame carries", rec.LSN, n, maxRecord)
	}
	binary.LittleEndian.PutUint32(record[0:4], uint32(len(record)-8))
	binary.LittleEndian.PutUint32(record[4:8], crc32.ChecksumIEEE(record[8:]))
	if _, err := active.f.Write(record); err != nil {
		l.repairActive(active)
		return fmt.Errorf("wal: %w", err)
	}
	l.lsn = rec.LSN
	if active.firstLSN == 0 {
		active.firstLSN = rec.LSN
	}
	active.lastLSN = rec.LSN
	active.size += int64(len(record))
	active.records++
	if !l.sync {
		// Without fsync every append is "durable" the moment it is
		// written; keeping the marker current keeps Sync a no-op.
		l.advanceDurable(rec.LSN)
	}
	if active.size >= l.segBytes {
		// The record is written, so rotation must not fail the append: a
		// record that persists for a commit reported as failed would
		// resurrect at recovery. A failed seal poisons the log, and the
		// Sync after this append reports it.
		l.tryRotate(active)
	}
	return nil
}

// repairActive rolls the active segment, open for appending, back to the
// last record boundary after a failed write. If even that fails, the
// segment is closed so further appends error loudly instead of landing
// beyond unscanned garbage.
func (l *Log) repairActive(active *segment) {
	if err := active.f.Truncate(active.size); err != nil {
		active.f.Close()
		active.f = nil
	}
}

// tryRotate seals the active segment and starts a new one. The seal
// fsync makes every record in the sealed segment durable, so Sync never
// needs to revisit anything but the active file; a failed one poisons the
// log. The old file is closed only after the new segment exists, so a
// failed creation leaves the old segment active and writable (rotation
// retries later). Called with l.mu held.
func (l *Log) tryRotate(active *segment) {
	if l.sync && l.fsync(active.f, active.lastLSN, active.lastLSN) != nil {
		return
	}
	if _, err := l.addSegment(active.seq + 1); err != nil {
		return // could not start a new segment: old one stays active
	}
	active.f.Close() // sealed and never written again; close error is moot
	active.f = nil
}

// advance raises a monotonic atomic watermark to at least v, reporting
// whether it actually rose.
func advance(a *atomic.Uint64, v uint64) bool {
	for {
		cur := a.Load()
		if cur >= v {
			return false
		}
		if a.CompareAndSwap(cur, v) {
			return true
		}
	}
}

// advanceDurable raises the durability watermark and wakes every
// streaming reader parked on DurableChanged.
func (l *Log) advanceDurable(v uint64) {
	if !advance(&l.durable, v) {
		return
	}
	l.notifyMu.Lock()
	if l.notifyC != nil {
		close(l.notifyC)
		l.notifyC = nil
	}
	l.notifyMu.Unlock()
}

// DurableChanged returns a channel closed on the next durable-LSN
// advance. The idiom is: read DurableLSN, consume what it covers, take
// the channel, re-check DurableLSN (an advance may have slipped between
// the check and the take), then park on the channel.
func (l *Log) DurableChanged() <-chan struct{} {
	l.notifyMu.Lock()
	defer l.notifyMu.Unlock()
	if l.notifyC == nil {
		l.notifyC = make(chan struct{})
	}
	return l.notifyC
}

// Sync makes every record with LSN <= lsn durable. It is the
// group-commit door: safe for any number of concurrent callers, the
// first through becomes the leader and fsyncs once for everyone queued
// behind it. A no-op when the log runs with NoSync. A failed fsync
// poisons the log (package doc).
func (l *Log) Sync(lsn uint64) error {
	if !l.sync || l.durable.Load() >= lsn {
		return nil
	}
	l.syncMu.Lock()
	defer l.syncMu.Unlock()
	if l.durable.Load() >= lsn {
		return nil // the previous leader's fsync covered us
	}
	// Capture the active file and the highest appended LSN: the fsync
	// below covers every record appended before the capture (records in
	// earlier segments were made durable when those segments were
	// sealed).
	l.mu.Lock()
	f, target := l.segs[len(l.segs)-1].f, l.lsn
	l.mu.Unlock()
	if f == nil {
		return fmt.Errorf("wal: log is closed")
	}
	l.syncCount.Add(1)
	return l.fsync(f, lsn, target)
}

// fsync fsyncs f, a segment file holding every record up to upTo, and
// raises DurableLSN to upTo; a failure poisons the log. The kernel reports
// a failed writeback to one fsync of a file only, so fsyncMu keeps the
// door's and a seal's apart: one that overlapped a failing one could
// succeed over the lost pages. f closed by a seal that covered need, the
// caller's record, is success.
func (l *Log) fsync(f vfs.File, need, upTo uint64) error {
	l.fsyncMu.Lock()
	defer l.fsyncMu.Unlock()
	if err := l.poisoned(); err != nil {
		return err
	}
	err := f.Sync()
	if errors.Is(err, os.ErrClosed) && l.durable.Load() >= need {
		return nil
	}
	if err != nil {
		err = fmt.Errorf("wal: fsync: %w", err)
		l.failed.Store(&err)
		return err
	}
	l.advanceDurable(upTo)
	return nil
}

// poisoned returns the failed fsync that poisoned the log, or nil.
func (l *Log) poisoned() error {
	if err := l.failed.Load(); err != nil {
		return *err
	}
	return nil
}

// Replay calls fn for every valid record with LSN > after, in segment
// order. It reads the segment files through fresh read-only handles and
// never touches the log's segment accounting, so it may run while
// another goroutine appends (it observes some prefix of the racing
// appends).
func (l *Log) Replay(after uint64, fn func(*Record) error) error {
	l.mu.Lock()
	paths := make([]string, len(l.segs))
	for i, seg := range l.segs {
		paths[i] = seg.path
	}
	l.mu.Unlock()
	for _, path := range paths {
		_, err := scanFile(path, func(r *Record) error {
			if r.LSN <= after {
				return nil
			}
			return fn(r)
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// EnsureLSN raises the log's LSN counter to at least lsn. Recovery calls
// it with the checkpoint's LSN: after pruning empties the log, a
// reopened Log would otherwise restart numbering at 1 and hand out LSNs
// the checkpoint already covers — and Replay, which skips records with
// LSN <= the checkpoint LSN, would silently drop those commits on the
// next recovery.
func (l *Log) EnsureLSN(lsn uint64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.lsn < lsn {
		l.lsn = lsn
	}
}

// Prune deletes sealed segments whose every record has LSN <= upTo (a
// checkpoint at upTo made them redundant). The active segment is never
// deleted, so a record appended while the caller was checkpointing can
// never be lost — the checkpoint's LSN pin can only cover sealed
// history or a prefix of the active segment, and partial segments are
// kept whole.
func (l *Log) Prune(upTo uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	cut := 0
	for i, seg := range l.segs {
		if i == len(l.segs)-1 {
			break // never the active segment
		}
		if seg.records > 0 && seg.lastLSN > upTo {
			break
		}
		cut = i + 1
	}
	if cut == 0 {
		return nil
	}
	for _, seg := range l.segs[:cut] {
		if err := l.fs.Remove(seg.path); err != nil {
			return fmt.Errorf("wal: pruning segment: %w", err)
		}
	}
	l.segs = append(l.segs[:0], l.segs[cut:]...)
	if l.sync {
		return l.fs.SyncDir(l.dir)
	}
	return nil
}

// TailStats reports the un-pruned log tail: total bytes and record count
// across all live segments. The auto-checkpoint policy reads it to
// decide when the WAL has grown enough to warrant a new checkpoint.
func (l *Log) TailStats() (bytes int64, records int) { return l.TailStatsAbove(0) }

// TailStatsAbove reports the log tail *beyond* lsn: how many records
// with LSN > lsn the live segments hold, and (approximately, prorating
// the segment that straddles the boundary) how many bytes they span.
// Unlike TailStats it excludes checkpoint-covered records parked in the
// active segment that Prune cannot delete, so the auto-checkpoint
// policy does not re-trigger on work a checkpoint already absorbed.
func (l *Log) TailStatsAbove(lsn uint64) (bytes int64, records int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, seg := range l.segs {
		if seg.records == 0 || seg.lastLSN <= lsn {
			continue
		}
		if seg.firstLSN > lsn {
			bytes += seg.size
			records += seg.records
			continue
		}
		above := int(seg.lastLSN - lsn) // LSNs are contiguous within a segment
		records += above
		bytes += seg.size * int64(above) / int64(seg.records)
	}
	return bytes, records
}

// isSegmentName reports whether file (a bare name) is a segment of the
// log with base name base.
func isSegmentName(base, file string) bool {
	if len(file) != len(base)+1+segWidth || file[:len(base)] != base || file[len(base)] != '.' {
		return false
	}
	for _, c := range file[len(base)+1:] {
		if c < '0' || c > '9' {
			return false
		}
	}
	return true
}

// SegmentPaths lists the on-disk segment files of the log rooted at
// path, in segment order, without opening the log. Tooling (e.g. the
// crash-injection harness) shares this matcher so it can never disagree
// with Open about what a segment is.
func SegmentPaths(path string) ([]string, error) {
	dir, base := filepath.Dir(path), filepath.Base(path)
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var out []string
	for _, e := range entries {
		if isSegmentName(base, e.Name()) {
			out = append(out, filepath.Join(dir, e.Name()))
		}
	}
	sort.Strings(out) // fixed-width numeric suffix: lexicographic == segment order
	return out, nil
}

// RemoveSegments deletes every segment file of the log rooted at path
// and syncs its directory (Drop uses it; matching is exact, so another
// document whose name shares a prefix is never touched). It returns the
// first error, of the scan or of a remove.
func RemoveSegments(path string) error {
	paths, err := SegmentPaths(path)
	if err != nil {
		return err
	}
	for i, p := range paths {
		paths[i] = filepath.Base(p)
	}
	return vfs.RemoveFiles(vfs.OS, filepath.Dir(path), paths)
}

// Segments describes the live segments in order (observability, tests).
func (l *Log) Segments() []SegmentInfo {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]SegmentInfo, len(l.segs))
	for i, seg := range l.segs {
		out[i] = SegmentInfo{
			Path: seg.path, Seq: seg.seq,
			FirstLSN: seg.firstLSN, LastLSN: seg.lastLSN,
			Size: seg.size, Records: seg.records,
		}
	}
	return out
}

// Close closes the active segment file; a poisoned log reports its error.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	var err error
	if active := l.segs[len(l.segs)-1]; active.f != nil {
		err = active.f.Close()
		active.f = nil
	}
	if perr := l.poisoned(); perr != nil {
		return perr
	}
	return err
}
