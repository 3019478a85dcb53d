package chunkstore

import (
	"bufio"
	"bytes"
	"compress/flate"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sync"

	"mxq/internal/vfs"
)

// A pack is one immutable file holding the chunks of one write:
//
//	magic   8 bytes   "MXQPACK2"
//	count   4 bytes   big-endian uint32
//	index   count × ( 32-byte SHA-256 of the raw chunk, 4-byte big-endian
//	                  stored length, 4-byte big-endian raw length )
//	data    the stored chunks back to back, in index order
//
// A chunk is stored as one raw-deflate stream of its bytes, or verbatim
// when the stream would not be strictly shorter: stored length == raw
// length is the only mark of that. Names are always of the raw bytes.
//
// The index comes first so a reader learns what a pack holds — and where,
// by summing stored lengths — without touching the data, and so a pack
// cut short anywhere in its data still yields every chunk before the cut.
// The file is named by the SHA-256 of magic+count+index, so the same
// batch lands on the same file. Nothing in a pack is trusted beyond
// "these bytes might be that chunk": every read is inflated and verified
// against the chunk's name.
var packMagic = [8]byte{'M', 'X', 'Q', 'P', 'A', 'C', 'K', '2'}

const (
	packHeaderSize = len(packMagic) + 4
	packEntrySize  = HashSize + 4 + 4
	packSuffix     = ".pack"
)

// deflateLevel is the one level chunks are stored at: BestSpeed takes
// XMark chunks to 0.30 of their size, the default level to 0.28 for 2.5×
// the CPU — and a checkpoint deflates while commits are running.
const deflateLevel = flate.BestSpeed

// maxInflate is deflate's ceiling: a 258-byte match costs at least two
// bits, so no stream yields more than 1032 bytes a stored byte. An index
// entry claiming more is not a chunk — so no raw length read from disk
// sizes more memory than the bytes present in the file justify.
const maxInflate = 1032

// errNotPack reports a file that does not open as a pack: no magic, or
// an index the file is too short to hold.
var errNotPack = errors.New("chunkstore: not a pack file")

// entry is one copy of a chunk: its name, the pack holding it, where its
// stored bytes lie in the pack file and how long it is once inflated.
type entry struct {
	p   *pack
	h   Hash
	off int64
	n   uint32 // stored bytes
	raw uint32 // bytes of the chunk itself; n == raw: stored verbatim
}

// pack is what a Dir remembers of one pack file.
type pack struct {
	name    string   // file name under the root
	data    int64    // stored chunk bytes the file holds, live or dead
	entries []*entry // the copies not known to be dead or corrupt
}

// readPackIndex parses the index of a pack file of the given size. The
// count is checked against the bytes present before it sizes anything,
// and only entries whose stored bytes lie wholly inside the file — and
// could inflate to the raw length they claim — are returned: a pack
// truncated inside its data loses the chunks at and after the cut and
// nothing else; one truncated inside its index, or not a pack at all, is
// an error.
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
		e := &entry{off: off, n: binary.BigEndian.Uint32(index[HashSize:]), raw: binary.BigEndian.Uint32(index[HashSize+4:])}
		copy(e.h[:], index)
		if off += int64(e.n); off > size {
			break
		}
		if e.n <= e.raw && uint64(e.raw) <= maxInflate*uint64(e.n) {
			entries = append(entries, e)
		}
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

// Deflate writers (≈ 0.5 MB) and readers (≈ 40 KB) dwarf a chunk: reused.
var (
	deflaters = sync.Pool{New: func() any {
		w, _ := flate.NewWriter(nil, deflateLevel) // fails on an invalid level only
		return w
	}}
	inflaters = sync.Pool{New: func() any { return flate.NewReader(nil) }}
)

// deflate returns what raw is stored as: its deflate stream, or raw
// itself when the stream is not strictly shorter.
func deflate(raw []byte) []byte {
	var buf bytes.Buffer
	buf.Grow(len(raw)/2 + 64)
	w := deflaters.Get().(*flate.Writer)
	defer deflaters.Put(w)
	w.Reset(&buf)
	w.Write(raw) // a bytes.Buffer takes every write
	w.Close()
	if buf.Len() < len(raw) {
		return buf.Bytes()
	}
	return raw
}

// readChunk reads the copy e from its pack file: its stored bytes and
// the chunk they inflate to. Both are nil, and the error too, for a copy
// that is not the chunk its name says: the file ends before the stored
// bytes, they are not one deflate stream yielding exactly the indexed raw
// length and ending where they end, or the result has another hash.
func readChunk(f io.ReaderAt, e *entry) (stored, raw []byte, err error) {
	stored = make([]byte, e.n)
	if _, err := f.ReadAt(stored, e.off); errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
		return nil, nil, nil
	} else if err != nil {
		return nil, nil, err
	}
	if raw = stored; e.n != e.raw {
		src := bytes.NewReader(stored)
		r := inflaters.Get().(io.ReadCloser)
		defer inflaters.Put(r)
		r.(flate.Resetter).Reset(src, nil)
		raw = make([]byte, int(e.raw)+1) // one spare byte: room to see a stream running long
		if n, err := io.ReadFull(r, raw); err != io.ErrUnexpectedEOF || n != int(e.raw) || src.Len() != 0 {
			return nil, nil, nil
		}
		raw = raw[:e.raw:e.raw]
	}
	if Sum(raw) != e.h {
		return nil, nil, nil
	}
	return stored, raw, nil
}

// encodePackIndex renders the header and index of a pack of the copies
// es (name, stored length and raw length are what it reads of each).
func encodePackIndex(es []*entry) []byte {
	index := make([]byte, packHeaderSize, packHeaderSize+len(es)*packEntrySize)
	copy(index, packMagic[:])
	binary.BigEndian.PutUint32(index[8:], uint32(len(es)))
	for _, e := range es {
		index = append(index, e.h[:]...)
		index = binary.BigEndian.AppendUint32(index, e.n)
		index = binary.BigEndian.AppendUint32(index, e.raw)
	}
	return index
}

// writePack publishes through vfs.Publish one pack under root, which
// exists, holding the copies es (name, stored and raw length set; pack
// and offsets are filled in here), their stored bytes fetched one at a
// time through stored so a compaction never holds its packs whole. It
// trusts its caller that the bytes inflate to the chunk the index names
// (PutMany deflated verified content; compaction inflates what it copies).
func writePack(fsys vfs.FS, root string, es []*entry, stored func(i int) ([]byte, error)) (*pack, error) {
	if len(es) > math.MaxUint32 {
		return nil, fmt.Errorf("chunkstore: %d chunks in one pack", len(es))
	}
	index := encodePackIndex(es)
	sum := Sum(index)
	p := &pack{name: hex.EncodeToString(sum[:]) + packSuffix, entries: es}
	off := int64(len(index))
	for _, e := range es {
		e.p, e.off = p, off
		off += int64(e.n)
	}
	p.data = off - int64(len(index))
	err := vfs.Publish(fsys, filepath.Join(root, p.name), func(f io.Writer) error {
		w := bufio.NewWriterSize(f, int(min(off, 1<<18))) // a one-chunk pack is one write
		_, err := w.Write(index)
		for i := 0; i < len(es) && err == nil; i++ {
			var data []byte
			if data, err = stored(i); err == nil {
				_, err = w.Write(data)
			}
		}
		if err != nil {
			return err
		}
		return w.Flush()
	})
	if err != nil {
		return nil, err
	}
	return p, nil
}
