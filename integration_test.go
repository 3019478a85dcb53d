package mxq

// Cross-store differential tests: the paged updatable store (the paper's
// contribution) and the naive renumbering baseline implement the same
// logical document semantics with radically different physical layouts.
// Driving identical operation sequences into both and comparing
// serializations after every step is the strongest end-to-end oracle the
// reproduction has: any divergence in region bookkeeping, free-run
// handling, pageOffset splicing or node/pos maintenance shows up as a
// different document.

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"mxq/internal/core"
	"mxq/internal/naive"
	"mxq/internal/serialize"
	"mxq/internal/shred"
	"mxq/internal/xenc"
	"mxq/internal/xmark"
)

// liveElems returns the view ranks of live element nodes in doc order.
func liveElems(v xenc.DocView) []xenc.Pre {
	var out []xenc.Pre
	for p := xenc.SkipFree(v, 0); p < v.Len(); p = xenc.SkipFree(v, p+1) {
		if v.Kind(p) == xenc.KindElem {
			out = append(out, p)
		}
	}
	return out
}

func serializeView(t *testing.T, v xenc.DocView) string {
	t.Helper()
	s, err := serialize.String(v, v.Root(), serialize.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func randomOpFragment(rng *rand.Rand) *shred.Tree {
	b := shred.NewBuilder()
	switch rng.Intn(4) {
	case 0:
		b.Elem("leaf", fmt.Sprintf("t%d", rng.Intn(100)))
	case 1:
		b.Start("pair", shred.Attr{Name: "k", Value: fmt.Sprint(rng.Intn(10))}).
			Elem("a", "1").Elem("b", "2").End()
	case 2:
		b.Start("deep").Start("mid").Elem("bottom", "x").End().End()
	default:
		b.Elem("solo", "", shred.Attr{Name: "id", Value: fmt.Sprint(rng.Intn(1000))})
	}
	return b.Tree()
}

// TestPagedVsNaiveDifferential drives the same random structural update
// sequences into both stores, selecting targets by live-element rank so
// the logical operations coincide, and compares full serializations.
func TestPagedVsNaiveDifferential(t *testing.T) {
	const seedCount = 6
	for seed := int64(0); seed < seedCount; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			docXML := `<root><a><b>1</b><c>2</c></a><d><e/><f>3</f></d><g/></root>`
			treeA, err := shred.Parse(strings.NewReader(docXML), shred.Options{})
			if err != nil {
				t.Fatal(err)
			}
			treeB, _ := shred.Parse(strings.NewReader(docXML), shred.Options{})
			paged, err := core.Build(treeA, core.Options{PageSize: 16, FillFactor: 0.7})
			if err != nil {
				t.Fatal(err)
			}
			plain, err := naive.Build(treeB)
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(seed))
			for step := 0; step < 120; step++ {
				pe := liveElems(paged)
				ne := liveElems(plain)
				if len(pe) != len(ne) {
					t.Fatalf("step %d: element counts diverged: %d vs %d", step, len(pe), len(ne))
				}
				idx := rng.Intn(len(pe))
				frag := randomOpFragment(rng)
				fragCopy := &shred.Tree{Nodes: append([]shred.Node(nil), frag.Nodes...)}
				op := rng.Intn(4)
				var errP, errN error
				switch {
				case op == 0 && idx != 0:
					errP = paged.Delete(pe[idx])
					errN = plain.Delete(ne[idx])
				case op == 1 && idx != 0:
					_, errP = paged.InsertBefore(pe[idx], frag)
					errN = plain.InsertBefore(ne[idx], fragCopy)
				case op == 2 && idx != 0:
					_, errP = paged.InsertAfter(pe[idx], frag)
					errN = plain.InsertAfter(ne[idx], fragCopy)
				default:
					_, errP = paged.AppendChild(pe[idx], frag)
					errN = plain.AppendChild(ne[idx], fragCopy)
				}
				if (errP == nil) != (errN == nil) {
					t.Fatalf("step %d op %d: error divergence: paged=%v naive=%v", step, op, errP, errN)
				}
				if errP != nil {
					continue
				}
				if err := paged.CheckInvariants(); err != nil {
					t.Fatalf("step %d: paged invariants: %v", step, err)
				}
				got, want := serializeView(t, paged), serializeView(t, plain)
				if got != want {
					t.Fatalf("step %d op %d: documents diverged:\npaged %s\nnaive %s", step, op, got, want)
				}
			}
		})
	}
}

// TestFacadeEndToEndWorkflow exercises the whole public stack as a user
// would: durable DB, schema, transactions, conflict retry, checkpoint,
// reopen.
func TestFacadeEndToEndWorkflow(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(Options{Dir: dir, NoSync: true, PageSize: 64, FillFactor: 0.7})
	if err != nil {
		t.Fatal(err)
	}
	doc, err := db.LoadXMLString("inv", `<inventory><bin id="b1"/><bin id="b2"/></inventory>`)
	if err != nil {
		t.Fatal(err)
	}
	// Fill both bins through transactions.
	for bin := 1; bin <= 2; bin++ {
		for i := 0; i < 30; i++ {
			if _, err := doc.Update(fmt.Sprintf(
				`<xupdate:modifications version="1.0" xmlns:xupdate="http://www.xmldb.org/xupdate">
				   <xupdate:append select='/inventory/bin[@id="b%d"]'><unit n="%d"/></xupdate:append>
				 </xupdate:modifications>`, bin, i)); err != nil {
				t.Fatal(err)
			}
		}
	}
	if n, _ := doc.QueryValue(`count(//unit)`); n != "60" {
		t.Fatalf("units = %s", n)
	}
	if err := doc.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// More committed work after the checkpoint, left only in the WAL.
	if _, err := doc.Update(`<xupdate:modifications version="1.0" xmlns:xupdate="http://www.xmldb.org/xupdate">
	   <xupdate:remove select='//bin[@id="b1"]/unit[position() = 1]'/>
	 </xupdate:modifications>`); err != nil {
		t.Fatal(err)
	}
	want, _ := doc.XML()
	db.Close()

	db2, err := Open(Options{Dir: dir, NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	doc2, err := db2.OpenDocument("inv")
	if err != nil {
		t.Fatalf("document lost: %v", err)
	}
	got, _ := doc2.XML()
	if got != want {
		t.Fatalf("reopened document differs:\nwant %s\ngot  %s", want, got)
	}
	if n, _ := doc2.QueryValue(`count(//unit)`); n != "59" {
		t.Fatalf("units after recovery = %s", n)
	}
}

// TestQueryResultsStableAcrossPageSizes: the logical document must not
// depend on physical tuning knobs.
func TestQueryResultsStableAcrossPageSizes(t *testing.T) {
	var buf bytes.Buffer
	if _, err := xmark.NewGenerator(0.002, 4).WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	tree, err := shred.Parse(bytes.NewReader(buf.Bytes()), shred.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var ref [20]int
	for i, cfg := range []core.Options{
		{PageSize: 64, FillFactor: 0.5},
		{PageSize: 1024, FillFactor: 0.8},
		{PageSize: 4096, FillFactor: 1.0},
	} {
		s, err := core.Build(tree, cfg)
		if err != nil {
			t.Fatal(err)
		}
		counts, err := xmark.RunAll(s)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			ref = counts
			continue
		}
		if counts != ref {
			t.Fatalf("config %+v changed query results:\n%v\nvs\n%v", cfg, counts, ref)
		}
	}
}
