package mxq

import (
	"bytes"
	"encoding/xml"
	"io"
	"runtime"
	"strings"
	"sync"
	"testing"

	"mxq/internal/shred"
	"mxq/internal/xenc"
	"mxq/internal/xmark"
)

// The load path: BenchmarkShredParse is the shredder alone (MB/s of XML
// in, via SetBytes) on its tokenizer and, for scale, on encoding/xml;
// BenchmarkLoadXML is parse + build, what mxqd does with a Load frame.
// Both read XMark SF 0.1 (≈ 8.7 MB, 337k nodes).

// loadBenchDoc generates the document once however often the testing
// package re-enters a benchmark to calibrate b.N.
var loadBenchDoc = sync.OnceValue(func() string {
	var buf bytes.Buffer
	if _, err := xmark.NewGenerator(0.1, 42).WriteTo(&buf); err != nil {
		panic(err)
	}
	return buf.String()
})

var sinkNodes int

func BenchmarkShredParse(b *testing.B) {
	doc := loadBenchDoc()
	b.Run("tok", func(b *testing.B) {
		b.SetBytes(int64(len(doc)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			tree, err := shred.ParseString(doc, shred.Options{})
			if err != nil {
				b.Fatal(err)
			}
			sinkNodes = len(tree.Nodes)
		}
	})
	b.Run("stdlib", func(b *testing.B) {
		b.SetBytes(int64(len(doc)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			tree, err := stdlibShred(strings.NewReader(doc))
			if err != nil {
				b.Fatal(err)
			}
			sinkNodes = len(tree.Nodes)
		}
	})
}

// stdlibShred is the counting pass on encoding/xml's Decoder.Token, the
// way internal/shred ran before it had a tokenizer — here for the
// comparison only (namespace-free input, white space stripped; the
// differential oracle proper is internal/shred's oracleParse).
func stdlibShred(r io.Reader) (*shred.Tree, error) {
	dec := xml.NewDecoder(r)
	t := &shred.Tree{}
	var stack []int
	var depth int16
	for {
		tok, err := dec.Token()
		if err == io.EOF {
			return t, nil
		}
		if err != nil {
			return nil, err
		}
		switch tk := tok.(type) {
		case xml.StartElement:
			var attrs []shred.Attr
			for _, a := range tk.Attr {
				attrs = append(attrs, shred.Attr{Name: a.Name.Local, Value: a.Value})
			}
			t.Nodes = append(t.Nodes, shred.Node{Kind: xenc.KindElem, Name: tk.Name.Local, Level: depth, Attrs: attrs})
			stack = append(stack, len(t.Nodes)-1)
			depth++
		case xml.EndElement:
			top := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			depth--
			t.Nodes[top].Size = int32(len(t.Nodes) - 1 - top)
		case xml.CharData:
			if s := string(tk); strings.Trim(s, " \t\r\n") != "" {
				t.Nodes = append(t.Nodes, shred.Node{Kind: xenc.KindText, Value: s, Level: depth})
			}
		}
	}
}

func BenchmarkLoadXML(b *testing.B) {
	doc := loadBenchDoc()
	b.SetBytes(int64(len(doc)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		db, err := Open(Options{})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := db.LoadXMLString("xmark", doc); err != nil {
			b.Fatal(err)
		}
		if err := db.Close(); err != nil {
			b.Fatal(err)
		}
	}
}

// TestLoadAllocBound pins what a load allocates, a near-exact count: one
// SF 0.01 document (0.9 MB, 34k nodes) loads in under 3.6 MB. Through
// a parsed tree copied into pages it took 6.07 MB; the shredder's tokens
// going straight into pages take 3.33 MB — the pages, node chunks and
// one copy of the texts — so the bound is 40 % under the tree's figure.
// The fewest bytes of three loads count, so that another goroutine's
// allocation cannot fail it.
func TestLoadAllocBound(t *testing.T) {
	const bound = 3_600_000
	var buf bytes.Buffer
	if _, err := xmark.NewGenerator(0.01, 42).WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	doc := buf.String()
	least := uint64(1 << 62)
	for range 3 {
		db, err := Open(Options{})
		if err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := db.LoadXMLString("xmark", doc); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if least > bound {
		t.Fatalf("loading %d bytes allocated %d bytes, bound %d", len(doc), least, bound)
	}
	t.Logf("loading %d bytes allocated %d bytes", len(doc), least)
}
