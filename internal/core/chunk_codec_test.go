package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"runtime"
	"strings"
	"testing"

	"mxq/internal/shred"
	"mxq/internal/xmark"
)

// reencodeChunk decodes data as the chunk kind its tag names and
// encodes the result again.
func reencodeChunk(data []byte, pageSize int32) ([]byte, error) {
	if len(data) == 0 {
		return nil, fmt.Errorf("empty chunk")
	}
	switch data[0] {
	case chunkKindPage:
		p, err := decodePageChunk(data, pageSize)
		if err != nil {
			return nil, err
		}
		return encodePageChunk(p), nil
	case chunkKindNode:
		c, err := decodeNodeChunk(data, pageSize)
		if err != nil {
			return nil, err
		}
		return encodeNodeChunk(c), nil
	case chunkKindDict:
		vals, err := decodeDictChunk(data)
		if err != nil {
			return nil, err
		}
		return encodeDictChunk(vals), nil
	}
	return nil, fmt.Errorf("unknown tag %d", data[0])
}

// allChunks serializes every chunk of s, in manifest order.
func allChunks(s *Store) [][]byte {
	_, refs := s.collectChunks()
	out := make([][]byte, len(refs))
	for i := range refs {
		out[i] = refs[i].bytes()
	}
	return out
}

func xmarkStore(t testing.TB, sf float64, opts Options) *Store {
	t.Helper()
	var b strings.Builder
	if _, err := xmark.NewGenerator(sf, 1).WriteTo(&b); err != nil {
		t.Fatal(err)
	}
	return buildTB(t, b.String(), opts)
}

func buildTB(t testing.TB, doc string, opts Options) *Store {
	t.Helper()
	tree, err := shred.Parse(strings.NewReader(doc), shred.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s, err := Build(tree, opts)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// churnedItems is an attribute-heavy store with holes in its pages, more
// than a node chunk's worth of free ids and a late attribute name.
func churnedItems(t testing.TB) *Store {
	t.Helper()
	s := buildTB(t, itemsDoc(120), Options{PageSize: 16, FillFactor: 0.75})
	for len(freeIDs(s)) < 40 {
		if err := s.Delete(s.NthChild(s.Root(), 2)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.SetAttr(s.NthChild(s.Root(), 0), "extra", "late"); err != nil {
		t.Fatal(err)
	}
	return s
}

// FuzzChunkDecode: no input panics a decoder, what a decoder allocates
// is bounded by the input length and the page size, and an input it
// accepts is exactly what the encoder produces for the decoded value.
func FuzzChunkDecode(f *testing.F) {
	for _, c := range allChunks(xmarkStore(f, 0.001, Options{PageSize: 64})) {
		f.Add(c, uint8(3)) // 8<<3 = 64
	}
	for _, c := range allChunks(churnedItems(f)) {
		f.Add(c, uint8(1)) // 8<<1 = 16
	}
	// Inline attribute values at their edges — empty, multi-byte, several
	// on one node — and the same chunk under the retired tags 6 and 9, a
	// run of recycled ids as the retired tag 7 held them, and a page of
	// the retired tag 5, which stored size.
	inline := inlineAttrChunk()
	if again, err := reencodeChunk(inline, 8); err != nil || !bytes.Equal(again, inline) {
		f.Fatalf("node chunk seed does not round-trip: %v", err)
	}
	f.Add(inline, uint8(0)) // 8<<0 = 8
	f.Add(append([]byte{6}, inline[1:]...), uint8(0))
	f.Add(append([]byte{9}, inline[1:]...), uint8(0))
	f.Add(chunkOf(7, 3, 6, 1, 4), uint8(0))
	f.Add(chunkOf(5, 8, bytes.Repeat([]byte{0}, 6*8)), uint8(0))
	f.Fuzz(func(t *testing.T, data []byte, sizeSel uint8) {
		pageSize := int32(8) << (sizeSel % 8)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		again, err := reencodeChunk(data, pageSize)
		runtime.ReadMemStats(&after)
		// Decoded columns cost ≤ 40 B a tuple, strings and attribute refs
		// ≤ 23 B an input byte; the rest of the allowance covers the
		// re-encoding and the fuzz worker's own background allocation.
		if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(128*int(pageSize)+64*len(data)+1<<16); got > limit {
			t.Fatalf("decoding %d bytes at page size %d allocated %d bytes (limit %d)", len(data), pageSize, got, limit)
		}
		if err == nil && !bytes.Equal(again, data) {
			t.Fatalf("accepted chunk re-encodes differently:\n in  %x\n out %x", data, again)
		}
	})
}

// inlineAttrChunk is a node chunk of page size 8 whose attribute values
// are empty, multi-byte and several to a node.
func inlineAttrChunk() []byte {
	c := newNodeChunk(8)
	c.attrs[1] = []attrRef{{name: 3, val: ""}}
	c.attrs[4] = []attrRef{{name: 1, val: "größe"}, {name: 2, val: "x"}, {name: 7, val: "a b"}}
	return encodeNodeChunk(c)
}

// TestChunkedRealChunksReencode runs the fuzz property over every chunk
// of the two seed stores (the fuzz target itself only sees them when
// fuzzing is on or the corpus is replayed).
func TestChunkedRealChunksReencode(t *testing.T) {
	for _, tc := range []struct {
		s        *Store
		pageSize int32
	}{{xmarkStore(t, 0.001, Options{PageSize: 64}), 64}, {churnedItems(t), 16}} {
		for i, c := range allChunks(tc.s) {
			again, err := reencodeChunk(c, tc.pageSize)
			if err != nil {
				t.Fatalf("chunk %d (tag %d): %v", i, c[0], err)
			}
			if !bytes.Equal(again, c) {
				t.Fatalf("chunk %d (tag %d) re-encodes differently", i, c[0])
			}
		}
	}
}

// chunkOf builds a chunk by hand: ints become uvarints, byte slices and
// strings are appended raw.
func chunkOf(parts ...any) []byte {
	var b []byte
	for _, p := range parts {
		switch v := p.(type) {
		case int:
			b = binary.AppendUvarint(b, uint64(v))
		case []byte:
			b = append(b, v...)
		case string:
			b = append(b, v...)
		}
	}
	return b
}

// TestChunkDecodeRejectsAdversarial: hand-built hostile chunks are each
// refused with an error — never a panic, never a huge allocation.
func TestChunkDecodeRejectsAdversarial(t *testing.T) {
	const ps = 8
	zeros := bytes.Repeat([]byte{0}, ps)
	// A well-formed page of ps empty tuples, to cut and bend.
	goodPage := chunkOf(chunkKindPage, ps, zeros, zeros, zeros, zeros, zeros)
	if _, err := decodePageChunk(goodPage, ps); err != nil {
		t.Fatalf("baseline page chunk rejected: %v", err)
	}
	goodNode := chunkOf(chunkKindNode, ps, zeros)
	if _, err := decodeNodeChunk(goodNode, ps); err != nil {
		t.Fatalf("baseline node chunk rejected: %v", err)
	}
	overlong := []byte{0x80, 0x80, 0x80, 0x80, 0x80, 0x01} // 6-byte varint
	cases := []struct {
		name     string
		data     []byte
		pageSize int32
	}{
		{"empty", nil, ps},
		{"tag only", []byte{chunkKindPage}, ps},
		{"parent-commit page tag", append([]byte{1}, goodPage[1:]...), ps},
		{"parent-commit dict tag", []byte{4, 0}, ps},
		{"retired node tag 6", append([]byte{6}, goodNode[1:]...), ps},
		{"retired page tag 5", append([]byte{5}, goodPage[1:]...), ps},
		{"retired page tag 5, sized layout", chunkOf(5, ps, zeros, zeros, zeros, zeros, zeros, zeros), ps},
		{"retired node tag 9", append([]byte{9}, goodNode[1:]...), ps},
		{"retired node tag 9, pos/parent layout", chunkOf(9, ps, zeros, zeros, zeros), ps},
		{"unknown tag", append([]byte{99}, goodPage[1:]...), ps},
		{"page count below page size", chunkOf(chunkKindPage, ps-1, zeros), ps},
		{"page count 2^30 in 8 bytes", chunkOf(chunkKindPage, 1<<30, zeros), 1 << 30},
		{"page truncated mid-column", goodPage[:len(goodPage)-ps-3], ps},
		{"page trailing byte", append(append([]byte(nil), goodPage...), 0), ps},
		{"non-minimal varint", chunkOf(chunkKindPage, ps, []byte{0x80, 0x00}, zeros[1:], zeros, zeros, zeros, zeros), ps},
		{"varint over 32 bits", chunkOf(chunkKindPage, ps, []byte{0xff, 0xff, 0xff, 0xff, 0x1f}, zeros[1:], zeros, zeros, zeros, zeros), ps},
		{"varint over 5 bytes", chunkOf(chunkKindPage, ps, overlong, zeros[1:], zeros, zeros, zeros, zeros), ps},
		{"varint cut by end of input", chunkOf(chunkKindDict, 1, []byte{0x80}), ps},
		{"level delta over 16 bits", chunkOf(chunkKindPage, ps, 1<<16, zeros[1:], zeros, zeros, zeros, zeros), ps},
		{"text lengths overrun the block", chunkOf(chunkKindPage, ps, zeros, zeros, zeros, zeros, 5, zeros[1:], "abc"), ps},
		{"text lengths undershoot the block", chunkOf(chunkKindPage, ps, zeros, zeros, zeros, zeros, 1, zeros[1:], "abc"), ps},
		{"text lengths sum past 2^32", chunkOf(chunkKindPage, ps, zeros, zeros, zeros, zeros, repeatLen(1<<32-1, ps), "x"), ps},
		{"attr counts exceed the input", chunkOf(chunkKindNode, ps, 1<<31, zeros[1:], 1, 1), ps},
		{"attr refs truncated", chunkOf(chunkKindNode, ps, 2, zeros[1:], 1, 1, 1), ps},
		{"attr value lengths overrun", chunkOf(chunkKindNode, ps, 1, zeros[1:], 1, 5, "abc"), ps},
		{"attr value lengths undershoot", chunkOf(chunkKindNode, ps, 1, zeros[1:], 1, 1, "abc"), ps},
		{"node count above page size", chunkOf(chunkKindNode, ps+1, bytes.Repeat([]byte{0}, ps+1)), ps},
		{"node count above input", chunkOf(chunkKindNode, ps, 0, 0), ps},
		{"retired free tag 7", chunkOf(7, 3, 6, 1, 4), ps},
		{"dict count above group size", chunkOf(chunkKindDict, dictGroupSize+1, bytes.Repeat([]byte{0}, dictGroupSize+1)), ps},
		{"dict lengths overrun", chunkOf(chunkKindDict, 2, 3, 3, "abc"), ps},
	}
	for _, tc := range cases {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		errs := []error{nil, nil, nil}
		_, errs[0] = decodePageChunk(tc.data, tc.pageSize)
		_, errs[1] = decodeNodeChunk(tc.data, tc.pageSize)
		_, errs[2] = decodeDictChunk(tc.data)
		runtime.ReadMemStats(&after)
		for i, err := range errs {
			if err == nil {
				t.Errorf("%s: decoder %d accepted it", tc.name, i)
			}
		}
		if got := after.TotalAlloc - before.TotalAlloc; got > 1<<20 {
			t.Errorf("%s: rejecting %d bytes allocated %d", tc.name, len(tc.data), got)
		}
	}
	if _, err := decodePageChunk(goodNode, ps); err == nil {
		t.Error("the page decoder accepted a node chunk")
	}
	_, err := decodePageChunk(append([]byte{1}, goodPage[1:]...), ps)
	if err == nil || !strings.Contains(err.Error(), "unsupported chunk format") {
		t.Fatalf("a parent-commit chunk must be refused as an unsupported format, got: %v", err)
	}
	// Tag 6 is the node chunk whose attribute refs named values in a
	// shared dictionary, tag 7 a run of the recycled-NodeID stack, tag 5
	// the page chunk that stored size and tag 9 the node chunk that
	// stored node/pos and parent: each refused by name, by every decoder.
	for _, tag := range []byte{5, 6, 7, 9} {
		for _, data := range [][]byte{append([]byte{tag}, goodNode[1:]...), append([]byte{tag}, goodPage[1:]...), chunkOf(int(tag), 3, 6, 1, 4)} {
			for i, err := range []error{
				func() error { _, err := decodeNodeChunk(data, ps); return err }(),
				func() error { _, err := decodePageChunk(data, ps); return err }(),
				func() error { _, err := decodeDictChunk(data); return err }(),
			} {
				if want := fmt.Sprintf("unsupported chunk format (kind tag %d)", tag); err == nil || !strings.Contains(err.Error(), want) {
					t.Fatalf("decoder %d: a tag-%d chunk must be refused as an unsupported format, got: %v", i, tag, err)
				}
			}
		}
	}
}

// repeatLen is n uvarints of value v.
func repeatLen(v uint64, n int) []byte {
	var b []byte
	for i := 0; i < n; i++ {
		b = binary.AppendUvarint(b, v)
	}
	return b
}

// TestChunkBytesPerTuple pins the codec's density where the paper's
// table is densest: the structure columns of a freshly shredded XMark
// document — page and node chunk bytes less the text and the attribute
// values themselves — per tuple slot (the fixed-width encoding this codec
// replaced took 23.7 B; with the derivable size, node/pos and parent
// columns stored, this codec took 8.73 B). The ceiling sits less than
// 0.5 B above the 5.96 B it takes, so storing any of those columns again
// fails it.
func TestChunkBytesPerTuple(t *testing.T) {
	s := xmarkStore(t, 0.01, Options{})
	var chunkBytes, textBytes int
	for _, p := range s.pages {
		chunkBytes += len(encodePageChunk(p))
		textBytes += strsLen(p.text)
	}
	for _, c := range s.nodes {
		chunkBytes += len(encodeNodeChunk(c))
		for _, refs := range c.attrs {
			for _, r := range refs {
				textBytes += len(r.val)
			}
		}
	}
	perTuple := float64(chunkBytes-textBytes) / float64(s.Len())
	t.Logf("%d tuples: %d chunk bytes, %d of them text: %.2f structure bytes per tuple", s.Len(), chunkBytes, textBytes, perTuple)
	if perTuple > 6.4 {
		t.Fatalf("%.2f structure bytes per tuple, ceiling is 6.4", perTuple)
	}
}
