package chunkstore

import (
	"bytes"
	"encoding/binary"
	"runtime"
	"testing"
)

// encodePack renders the chunks as the pack the writer would publish.
func encodePack(t testing.TB, chunks [][]byte) []byte {
	t.Helper()
	es := make([]*entry, len(chunks))
	var data []byte
	for i, c := range chunks {
		stored := deflate(c)
		es[i] = &entry{h: Sum(c), n: uint32(len(stored)), raw: uint32(len(c))}
		data = append(data, stored...)
	}
	return append(encodePackIndex(es), data...)
}

// FuzzPackOpen feeds arbitrary bytes to the pack reader — the bytes this
// package reads off disk. Parsing the index and then reading every entry
// it accepted must not panic and must not allocate beyond a constant
// multiple of the file's size: the count is checked against the bytes
// present before it sizes anything, and a raw length is only accepted
// from an entry whose stored bytes, all inside the file, could inflate to
// it. Accepted entries lie behind the index, in order, without overlap.
//
// The same input, cut into chunks at the lengths in cuts — an odd length
// repeats its piece into something deflate shrinks, a zero is the empty
// chunk, the rest is whatever the fuzzer made, usually incompressible at
// that size — must round-trip through the writer: every chunk back under
// its name, deflated only where that is strictly shorter. And a stored
// stream is its chunk only at exactly the indexed raw length: one byte
// fewer (though the name is that of the prefix), one byte more, or a
// byte of something else behind the stream is a failed copy — nil, not
// an error, not a short chunk.
func FuzzPackOpen(f *testing.F) {
	_, datas := batch(0, 9)
	good := encodePack(f, datas)
	f.Add(good, []byte{3, 0, 40, 7})
	f.Add(good[:packHeaderSize+4*packEntrySize+5], []byte{1}) // cut inside the index
	f.Add(good[:len(good)-70], []byte{200, 200})              // cut inside the data
	huge := append([]byte(nil), good...)
	binary.BigEndian.PutUint32(huge[8:], 1<<32-1)
	f.Add(huge, []byte{})
	f.Add([]byte("MXQPACK2"), []byte{0})
	bomb := append([]byte(nil), good...) // every entry claims 4 GiB of raw bytes
	for i := 0; i < len(datas); i++ {
		binary.BigEndian.PutUint32(bomb[packHeaderSize+i*packEntrySize+HashSize+4:], 1<<32-1)
	}
	f.Add(bomb, []byte{9, 9, 0, 33})
	f.Add([]byte("MXQPACK1"), []byte{8}) // the format before this one: not a pack
	f.Fuzz(func(t *testing.T, data, cuts []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		src := bytes.NewReader(data)
		entries, err := readPackIndex(src, int64(len(data)))
		for _, e := range entries {
			if _, _, err := readChunk(src, e); err != nil {
				t.Fatalf("reading an accepted entry: %v", err)
			}
		}
		runtime.ReadMemStats(&after)
		// The raw index, the parsed entries, and per entry its stored bytes
		// and at most maxInflate times as many raw ones; the allowance
		// covers a pooled inflater and the fuzz worker's own allocation.
		if got, bound := after.TotalAlloc-before.TotalAlloc, uint64((4+1+maxInflate)*len(data))+1<<18; got > bound {
			t.Fatalf("opening and reading %d bytes allocated %d", len(data), got)
		}
		if err == nil {
			count := int64(binary.BigEndian.Uint32(data[8:]))
			if int64(len(entries)) > count {
				t.Fatalf("%d entries from a count of %d", len(entries), count)
			}
			next := int64(packHeaderSize) + count*packEntrySize
			for i, e := range entries {
				if e.off < next || e.off+int64(e.n) > int64(len(data)) || e.n > e.raw || uint64(e.raw) > maxInflate*uint64(e.n) {
					t.Fatalf("entry %d at [%d,+%d) raw %d of a %d-byte file, previous ended at %d", i, e.off, e.n, e.raw, len(data), next)
				}
				next = e.off + int64(e.n)
			}
		}

		var chunks [][]byte
		rest := data
		for _, c := range cuts {
			n := min(int(c), len(rest))
			piece := rest[:n]
			if c%2 == 1 {
				piece = bytes.Repeat(piece, 8)
			}
			chunks, rest = append(chunks, piece), rest[n:]
		}
		packed := encodePack(t, chunks)
		src = bytes.NewReader(packed)
		entries, err = readPackIndex(src, int64(len(packed)))
		if err != nil || len(entries) != len(chunks) {
			t.Fatalf("a written pack of %d chunks reads back %d entries, %v", len(chunks), len(entries), err)
		}
		for i, e := range entries {
			stored, raw, err := readChunk(src, e)
			if err != nil || e.h != Sum(chunks[i]) || !bytes.Equal(raw, chunks[i]) || len(raw) != len(chunks[i]) {
				t.Fatalf("chunk %d does not round-trip: %v", i, err)
			}
			if e.n > e.raw || (e.n == e.raw) != bytes.Equal(stored, chunks[i]) {
				t.Fatalf("chunk %d: %d bytes stored as %d", i, e.raw, e.n)
			}
			if e.n == e.raw {
				continue
			}
			short := &entry{h: Sum(raw[:len(raw)-1]), off: e.off, n: e.n, raw: e.raw - 1}
			long := &entry{h: e.h, off: e.off, n: e.n, raw: e.raw + 1}
			trailed := &entry{h: e.h, off: e.off, n: e.n + 1, raw: e.raw}
			for _, bad := range []*entry{short, long, trailed} {
				if bad.n == bad.raw || int(bad.off)+int(bad.n) > len(packed) {
					continue // would read as a verbatim chunk, or past the file
				}
				if stored, raw, err := readChunk(src, bad); stored != nil || raw != nil || err != nil {
					t.Fatalf("chunk %d (%d stored, %d raw) read as %d stored, %d raw: %d bytes, %v", i, e.n, e.raw, bad.n, bad.raw, len(raw), err)
				}
			}
		}
		if len(packed) > 0 {
			cut := packed[:len(packed)-1] // torn anywhere: a prefix of the entries, or no pack
			if short, err := readPackIndex(bytes.NewReader(cut), int64(len(cut))); err == nil && len(short) > len(entries) {
				t.Fatalf("a cut pack yields %d entries of %d", len(short), len(entries))
			}
		}
	})
}
