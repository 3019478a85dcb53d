package serialize_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"mxq/internal/core"
	"mxq/internal/rostore"
	"mxq/internal/serialize"
	"mxq/internal/shred"
	"mxq/internal/tx"
	"mxq/internal/wal"
	"mxq/internal/xenc"
	"mxq/internal/xmark"
	"mxq/internal/xpath"
)

// perTuple hides everything but the DocView method set of a view, so
// the kernel reads it through xenc.Columnar's adapter, one tuple a run.
type perTuple struct{ xenc.DocView }

// fragments are what the churn inserts: everything the serializer
// writes differently (comments, PIs with and without an instruction,
// escapes and CRs in text and attribute values, mixed content, empty
// elements, a lone text node beside another), and one fragment larger
// than a small page.
var fragments = []string{
	`<m a="q&quot;&#13;x" b="&lt;&amp;&gt;">t1<!--c--><?pi inst?>t2<e/>t&#13;3<f><g/>tail</f></m>`,
	`loose text &amp; more`,
	`<!--lone comment-->`,
	`<?target?>`,
	`<a><b><c><d>deep</d></c></b>after</a>`,
	`<w>` + strings.Repeat(`<x k="v">y</x>`, 40) + `</w>`,
}

func fragment(tb testing.TB, i int) *shred.Tree {
	tb.Helper()
	frag, err := shred.ParseFragment(fragments[i%len(fragments)], shred.Options{})
	if err != nil {
		tb.Fatal(err)
	}
	return frag
}

// mutation is the surface core.Store and tx.Tx share.
type mutation interface {
	xenc.DocView
	Apply(wal.Op) ([]xenc.NodeID, error)
}

// mutate applies one delete or insert, chosen by op, at the used tuple
// target picks, never the root.
func mutate(tb testing.TB, s mutation, op, target int) error {
	tb.Helper()
	p := xenc.SkipFree(s, s.Root()+1+xenc.Pre(target%int(s.Len())))
	if p >= s.Len() {
		return nil
	}
	w := wal.Op{Kind: wal.OpInsertBefore, Target: s.NodeOf(p)}
	switch {
	case op%3 == 0:
		w.Kind = wal.OpDelete
	case op%3 == 1 && s.Kind(p) == xenc.KindElem:
		w.Kind, w.Frag = wal.OpAppendChild, fragment(tb, op/3)
	default:
		w.Frag = fragment(tb, op/3)
	}
	_, err := s.Apply(w)
	return err
}

// checkSerialize compares, at every element root of v and with both
// indent styles, the kernel's output on v and on v behind perTuple with
// the reference body's on v, byte for byte, and each walk's text
// descendants with the XPath string value.
func checkSerialize(tb testing.TB, label string, v xenc.DocView) {
	tb.Helper()
	if _, ok := v.(xenc.ColumnView); !ok {
		tb.Fatalf("%s: %T is not a ColumnView", label, v)
	}
	views := map[string]xenc.DocView{"kernel": v, "adapter": perTuple{v}}
	for p := xenc.SkipFree(v, 0); p < v.Len(); p = xenc.SkipFree(v, p+1) {
		if v.Kind(p) != xenc.KindElem {
			continue
		}
		want := xpath.StringValue(v, xpath.ElemNode(p))
		for _, indent := range []string{"", "  "} {
			rx, rt, err := serialize.ReferenceAppend(nil, nil, v, p, serialize.Options{Indent: indent})
			if err != nil {
				tb.Fatal(err)
			}
			for side, view := range views {
				kx, kt, err := serialize.Append(nil, nil, view, p, serialize.Options{Indent: indent})
				if err != nil {
					tb.Fatal(err)
				}
				if !bytes.Equal(kx, rx) {
					i := 0
					for i < len(kx) && i < len(rx) && kx[i] == rx[i] {
						i++
					}
					tb.Fatalf("%s: subtree at %d, indent %q: %s %d bytes, reference %d; first difference at byte %d:\n%-9s %q\nreference %q",
						label, p, indent, side, len(kx), len(rx), i, side, kx[max(0, i-40):min(len(kx), i+40)], rx[max(0, i-40):min(len(rx), i+40)])
				}
				if string(kt) != want || string(rt) != want {
					tb.Fatalf("%s: subtree at %d: text of %d bytes (%s), %d (reference), string value %d", label, p, len(kt), side, len(rt), len(want))
				}
			}
		}
	}
}

// TestSerializeKernelMatchesReference is the differential the kernel
// stands on: on every kind of view that offers columns, in the states of
// the paged store a walk has to cope with (free runs inside and at the
// end of pages, spliced pages, fills from half to full), the kernel
// writes exactly what the reference body writes, over the view's own
// columns and over xenc.Columnar's adapter alike.
func TestSerializeKernelMatchesReference(t *testing.T) {
	var buf bytes.Buffer
	if _, err := xmark.NewGenerator(0.001, 42).WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	tree, err := shred.Parse(&buf, shred.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ro, err := rostore.Build(tree)
	if err != nil {
		t.Fatal(err)
	}
	checkSerialize(t, "rostore", ro)

	rng := rand.New(rand.NewSource(27))
	var last *core.Store
	for _, pageSize := range []int{8, 16, 32, 64} {
		for _, fill := range []float64{0.5, 0.75, 1} {
			s, err := core.Build(tree, core.Options{PageSize: pageSize, FillFactor: fill})
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 30; i++ {
				if err := mutate(t, s, rng.Intn(3*len(fragments)), rng.Int()); err != nil {
					t.Fatal(err)
				}
			}
			if err := s.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
			checkSerialize(t, fmt.Sprintf("core/page%d/fill%g", pageSize, fill), s)
			last = s
		}
	}

	// A transaction image mid-transaction: private pages beside shared
	// ones.
	txn := tx.NewManager(last, nil).Begin()
	defer txn.Abort()
	for i := 0; i < 20; i++ {
		if err := mutate(t, txn, rng.Intn(3*len(fragments)), rng.Int()); err != nil {
			t.Fatal(err)
		}
	}
	checkSerialize(t, "tx", txn)

	// Subtree hands its buffer to the writer in pieces once it has
	// gathered some tens of kilobytes; the pieces add up to the whole.
	var w bytes.Buffer
	if err := serialize.Document(&w, last, serialize.Options{Indent: "  "}); err != nil {
		t.Fatal(err)
	}
	whole, err := serialize.String(last, last.Root(), serialize.Options{Indent: "  "})
	if err != nil {
		t.Fatal(err)
	}
	if w.Len() < 64<<10 || w.String() != whole {
		t.Fatalf("Document wrote %d bytes, String %d; equal %v", w.Len(), len(whole), w.String() == whole)
	}
}

// FuzzSerializeMatchesReference holds the kernel, on the store and over
// the adapter, to the reference body, and the text each collects to the
// XPath string value, on any document the shredder accepts, built into
// small pages and then changed by a few fuzz-chosen deletes and inserts
// (each pair of ops bytes is one: the operation and fragment, then the
// target).
func FuzzSerializeMatchesReference(f *testing.F) {
	f.Add([]byte(`<r><a x="1">t</a><!--c--><?p i?><b/>u&#13;v</r>`), []byte{1, 3, 0, 2, 5, 1})
	f.Add([]byte(`<r a="&quot;&#13;">x<y>z</y>w</r>`), []byte{})
	f.Add([]byte(`<a><b><c/></b><b>t</b></a>`), []byte{4, 1, 9, 0, 3, 2, 16, 1})
	f.Fuzz(func(t *testing.T, doc, ops []byte) {
		tree, err := shred.Parse(bytes.NewReader(doc), shred.Options{})
		if err != nil {
			t.Skip()
		}
		s, err := core.Build(tree, core.Options{PageSize: 8, FillFactor: 0.75})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i+1 < len(ops) && i < 16; i += 2 {
			if mutate(t, s, int(ops[i]), int(ops[i+1])) != nil {
				t.Skip() // an insert past xenc.MaxLevel, say
			}
		}
		checkSerialize(t, "fuzz", s)
	})
}
