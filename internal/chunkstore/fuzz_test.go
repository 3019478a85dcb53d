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
	hs, ns := make([]Hash, len(chunks)), make([]uint32, len(chunks))
	for i, c := range chunks {
		hs[i], ns[i] = Sum(c), uint32(len(c))
	}
	var buf bytes.Buffer
	err := writePackTo(&buf, encodePackIndex(hs, ns), hs, ns, func(i int) ([]byte, error) { return chunks[i], nil })
	if err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzPackOpen feeds arbitrary bytes to the pack index reader — the new
// bytes this package reads off disk. It must not panic, must not
// allocate beyond a constant multiple of the file's size (the count is
// checked against the bytes present before it sizes anything), and every
// entry it accepts must lie inside the file, behind the index, back to
// back. The same input, cut into chunks at the lengths in cuts, must
// round-trip through the writer.
func FuzzPackOpen(f *testing.F) {
	_, datas := batch(0, 9)
	good := encodePack(f, datas)
	f.Add(good, []byte{3, 0, 40, 7})
	f.Add(good[:packHeaderSize+4*packEntrySize+5], []byte{1}) // cut inside the index
	f.Add(good[:len(good)-70], []byte{200, 200})              // cut inside the data
	huge := append([]byte(nil), good...)
	binary.BigEndian.PutUint32(huge[8:], 1<<32-1)
	f.Add(huge, []byte{})
	f.Add([]byte("MXQPACK1"), []byte{0})
	f.Fuzz(func(t *testing.T, data, cuts []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		entries, err := readPackIndex(bytes.NewReader(data), int64(len(data)))
		runtime.ReadMemStats(&after)
		// The raw index and the parsed entries are the two allocations;
		// the allowance covers the fuzz worker's own background allocation.
		if got, bound := after.TotalAlloc-before.TotalAlloc, uint64(4*len(data))+1<<16; got > bound {
			t.Fatalf("readPackIndex of %d bytes allocated %d", len(data), got)
		}
		if err == nil {
			count := int64(binary.BigEndian.Uint32(data[8:]))
			if int64(len(entries)) > count {
				t.Fatalf("%d entries from a count of %d", len(entries), count)
			}
			next := int64(packHeaderSize) + count*packEntrySize
			for i, e := range entries {
				if e.off != next || e.off+int64(e.n) > int64(len(data)) {
					t.Fatalf("entry %d at [%d,+%d) of a %d-byte file, previous ended at %d", i, e.off, e.n, len(data), next)
				}
				next = e.off + int64(e.n)
			}
		}

		var chunks [][]byte
		rest := data
		for _, c := range cuts {
			n := min(int(c), len(rest))
			chunks, rest = append(chunks, rest[:n]), rest[n:]
		}
		packed := encodePack(t, chunks)
		entries, err = readPackIndex(bytes.NewReader(packed), int64(len(packed)))
		if err != nil || len(entries) != len(chunks) {
			t.Fatalf("a written pack of %d chunks reads back %d entries, %v", len(chunks), len(entries), err)
		}
		for i, e := range entries {
			if got := packed[e.off : e.off+int64(e.n)]; e.h != Sum(chunks[i]) || !bytes.Equal(got, chunks[i]) {
				t.Fatalf("chunk %d does not round-trip", i)
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
