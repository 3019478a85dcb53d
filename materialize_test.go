package mxq

import (
	"bytes"
	"runtime"
	"strings"
	"testing"

	"mxq/internal/serialize"
	"mxq/internal/xenc"
	"mxq/internal/xmark"
	"mxq/internal/xpath"
)

// fetchShapes are the bulk subtree fetches of the served benchmark's
// fetch_ro workload: the first N children of three XMark paths.
var fetchShapes = []string{
	"/site/people/person[position() <= 200]",
	"/site/regions/europe/item[position() <= 60]",
	"/site/regions/namerica/item[position() <= 100]",
}

// perTuple hides a view's columns, so the serializer reads it through
// xenc.Columnar's adapter, one tuple a run.
type perTuple struct{ xenc.DocView }

// TestElementItemsMatchReference holds materialize's one walk per
// element to the two it replaced: every element item's Value is the
// XPath string value, and its XML is what the serializer writes over the
// adapter, away from the store's columns. (The serializer's own tests
// hold the kernel to its per-tuple reference body.)
func TestElementItemsMatchReference(t *testing.T) {
	var buf bytes.Buffer
	if _, err := xmark.NewGenerator(0.01, 42).WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	db, err := Open(Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	doc, err := db.LoadXMLString("x", buf.String())
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range fetchShapes {
		res, err := doc.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		if len(res) < 20 {
			t.Fatalf("%s: %d items", q, len(res))
		}
		expr, err := xpath.Parse(q)
		if err != nil {
			t.Fatal(err)
		}
		err = doc.read(func(v xenc.DocView) error {
			val, err := expr.Eval(v)
			if err != nil {
				return err
			}
			nodes := val.(xpath.NodeSet)
			if len(nodes) != len(res) {
				t.Fatalf("%s: %d items, %d nodes", q, len(res), len(nodes))
			}
			for i, n := range nodes {
				xml, err := serialize.String(perTuple{v}, n.Pre, serialize.Options{})
				if err != nil {
					return err
				}
				if it := res[i]; it.Kind != "element" || it.XML != xml || it.Value != xpath.StringValue(v, n) {
					t.Fatalf("%s: item %d (%s, %d XML bytes, %d value bytes) differs from the reference (%d, %d)",
						q, i, it.Kind, len(it.XML), len(it.Value), len(xml), len(xpath.StringValue(v, n)))
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestElementItemAllocatesOnce pins what Item's doc promises: an element
// item costs one allocation, both strings in it, and the buffers it is
// built in are reused across a result's items.
func TestElementItemAllocatesOnce(t *testing.T) {
	const items = 1000
	db, err := Open(Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	doc, err := db.LoadXMLString("a", "<r>"+strings.Repeat("<p>some <b>bold</b> text</p>", items)+"</r>")
	if err != nil {
		t.Fatal(err)
	}
	prep, err := doc.Prepare("/r/p")
	if err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(10, func() { prep.Run(nil) }); n > items+64 {
		t.Errorf("a result of %d element items costs %.0f allocations", items, n)
	}
}

// TestQueryValueIsFirstItem holds QueryValue to what it replaced: the
// first materialized item's Value, or "" for an empty result, over every
// kind of result. It evaluates without materializing, so it allocates
// less than Query for the same node-set.
func TestQueryValueIsFirstItem(t *testing.T) {
	var buf bytes.Buffer
	if _, err := xmark.NewGenerator(0.01, 42).WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	db, err := Open(Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	doc, err := db.LoadXMLString("x", buf.String())
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range []string{
		"/",                               // the document node
		"//person",                        // elements
		"/site/people/person/@id",         // attributes
		"/site/people/person/name/text()", // text nodes
		"count(//person)",                 // a number
		"concat(//person/name, '!')",      // a string
		"count(//person) > 1",             // a boolean
		"/site/people/person[@id='none']", // an empty node-set
	} {
		res, err := doc.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		want := ""
		if len(res) > 0 {
			want = res[0].Value
		}
		if got, err := doc.QueryValue(q); err != nil || got != want {
			t.Errorf("QueryValue(%q) = %.40q, %v; want %.40q", q, got, err, want)
		}
	}
	if _, err := doc.QueryValue("//[bad"); err == nil {
		t.Error("QueryValue of a malformed query returned no error")
	}

	allocated := func(f func()) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	value := allocated(func() { doc.QueryValue("//person") })
	query := allocated(func() { doc.Query("//person") })
	if value >= query {
		t.Errorf(`QueryValue("//person") allocated %d bytes, Query %d`, value, query)
	}
}
