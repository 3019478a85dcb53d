package chunkstore

import (
	"bufio"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"
)

// A pack is one immutable file holding the chunks of one write:
//
//	magic   8 bytes   "MXQPACK1"
//	count   4 bytes   big-endian uint32
//	index   count × ( 32-byte SHA-256 name, 4-byte big-endian length )
//	data    the chunks back to back, in index order
//
// The index comes first so a reader learns what a pack holds — and where,
// by summing lengths — without touching the data, and so a pack cut
// short anywhere in its data still yields every chunk before the cut.
// The file is named by the SHA-256 of magic+count+index, so the same
// batch lands on the same file. Nothing in a pack is trusted beyond
// "these bytes might be that chunk": every read is verified against the
// chunk's name.
var packMagic = [8]byte{'M', 'X', 'Q', 'P', 'A', 'C', 'K', '1'}

const (
	packHeaderSize = len(packMagic) + 4
	packEntrySize  = HashSize + 4
	packSuffix     = ".pack"
)

// errNotPack reports a file that does not open as a pack: no magic, or
// an index the file is too short to hold.
var errNotPack = errors.New("chunkstore: not a pack file")

// entry is one copy of a chunk: its name, the pack holding it and where
// its bytes lie in the pack file.
type entry struct {
	p   *pack
	h   Hash
	off int64
	n   uint32
}

// pack is what a Dir remembers of one pack file.
type pack struct {
	name    string   // file name under the root
	data    int64    // chunk bytes the file holds, live or dead
	entries []*entry // the copies not known to be dead or corrupt
}

// readPackIndex parses the index of a pack file of the given size. The
// count is checked against the bytes present before it sizes anything,
// and only entries whose bytes lie wholly inside the file are returned:
// a pack truncated inside its data loses the chunks at and after the
// cut and nothing else; one truncated inside its index, or not a pack
// at all, is an error.
func readPackIndex(r io.ReaderAt, size int64) ([]*entry, error) {
	var hdr [packHeaderSize]byte
	if size < int64(len(hdr)) {
		return nil, fmt.Errorf("%w: shorter than a header", errNotPack)
	}
	if _, err := r.ReadAt(hdr[:], 0); err != nil {
		return nil, err
	}
	if [8]byte(hdr[:8]) != packMagic {
		return nil, fmt.Errorf("%w: no magic", errNotPack)
	}
	count := int64(binary.BigEndian.Uint32(hdr[8:]))
	if count*packEntrySize > size-int64(len(hdr)) {
		return nil, fmt.Errorf("%w: index claims %d chunks, file has %d bytes", errNotPack, count, size)
	}
	index := make([]byte, count*packEntrySize)
	if _, err := r.ReadAt(index, int64(len(hdr))); err != nil && count > 0 {
		return nil, err
	}
	entries := make([]*entry, 0, count)
	off := int64(len(hdr)) + int64(len(index))
	for ; len(index) > 0; index = index[packEntrySize:] {
		e := &entry{off: off, n: binary.BigEndian.Uint32(index[HashSize:])}
		copy(e.h[:], index)
		if off += int64(e.n); off > size {
			break
		}
		entries = append(entries, e)
	}
	return entries, nil
}

// openPack reads the index of the pack file name under root.
func openPack(root, name string) (*pack, error) {
	f, err := os.Open(filepath.Join(root, name))
	if err != nil {
		return nil, err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return nil, err
	}
	p := &pack{name: name}
	if p.entries, err = readPackIndex(f, fi.Size()); err != nil {
		return nil, err
	}
	for _, e := range p.entries {
		e.p = p
		p.data += int64(e.n)
	}
	return p, nil
}

// readChunk reads the n bytes at off of a pack file. A file that ends
// before them — a pack shorter than its index promised — yields nil
// data, which hashes to no chunk's name, and no error.
func readChunk(f io.ReaderAt, off int64, n uint32) ([]byte, error) {
	data := make([]byte, n)
	_, err := f.ReadAt(data, off)
	if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
		return nil, nil
	}
	return data, err
}

// tmpTag marks the tmp files of this process, which may be in flight —
// through this Dir or another over the same root — and so must survive
// the stale-tmp sweep; tmpSeq keeps their names apart.
var (
	tmpTag = fmt.Sprintf(".tmp%d-%x.", os.Getpid(), time.Now().UnixNano())
	tmpSeq atomic.Uint64
)

// fsync is (*os.File).Sync, for files and directories alike; a variable
// only so that a test can record the order of durability steps.
var fsync = (*os.File).Sync

// encodePackIndex renders the header and index of a pack of the chunks
// named hs with lengths ns.
func encodePackIndex(hs []Hash, ns []uint32) []byte {
	index := make([]byte, packHeaderSize, packHeaderSize+len(hs)*packEntrySize)
	copy(index, packMagic[:])
	binary.BigEndian.PutUint32(index[8:], uint32(len(hs)))
	for i, h := range hs {
		index = append(index, h[:]...)
		index = binary.BigEndian.AppendUint32(index, ns[i])
	}
	return index
}

// writePackTo streams a pack to w: the index, then each chunk as
// chunk(i) hands it over — verified against its name and indexed length
// first, so no pack ever claims bytes under a name they do not hash to.
func writePackTo(w io.Writer, index []byte, hs []Hash, ns []uint32, chunk func(i int) ([]byte, error)) error {
	if _, err := w.Write(index); err != nil {
		return err
	}
	for i, h := range hs {
		data, err := chunk(i)
		if err != nil {
			return err
		}
		if uint32(len(data)) != ns[i] || Sum(data) != h {
			return errMismatch(h)
		}
		if _, err := w.Write(data); err != nil {
			return err
		}
	}
	return nil
}

// writePack publishes one pack under root, which exists, holding the
// chunks named hs (ns[i] bytes each, fetched one at a time through
// chunk so a batch is never copied whole): streamed to a tmp file
// through a buffered writer, fsynced, renamed to its final name. It is
// the package's only path to disk. The rename itself is durable once
// the root directory is fsynced (Dir.Sync).
func writePack(root string, hs []Hash, ns []uint32, chunk func(i int) ([]byte, error)) (*pack, error) {
	if len(hs) > math.MaxUint32 {
		return nil, fmt.Errorf("chunkstore: %d chunks in one pack", len(hs))
	}
	index := encodePackIndex(hs, ns)
	sum := Sum(index)
	p := &pack{name: hex.EncodeToString(sum[:]) + packSuffix, entries: make([]*entry, len(hs))}
	off := int64(len(index))
	for i, h := range hs {
		p.entries[i] = &entry{p: p, h: h, off: off, n: ns[i]}
		off += int64(ns[i])
	}
	p.data = off - int64(len(index))

	path := filepath.Join(root, p.name)
	tmp := fmt.Sprintf("%s%s%d", path, tmpTag, tmpSeq.Add(1))
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return nil, err
	}
	w := bufio.NewWriterSize(f, int(min(off, 1<<18))) // a one-chunk pack is one write
	err = writePackTo(w, index, hs, ns, chunk)
	if err == nil {
		err = w.Flush()
	}
	if err == nil {
		err = fsync(f)
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
		return nil, err
	}
	return p, nil
}
