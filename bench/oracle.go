package main

import (
	"fmt"
	"sort"

	"mxq"
	"mxq/client"
)

// answer is what a reply is checked against: its item count and the
// FNV-1a hash of every item's kind, value and XML.
type answer struct {
	Items int
	Hash  uint64
}

// itemHasher folds items into an answer. FNV-1a is written out here so
// that hashing a half-megabyte reply does not first copy it.
type itemHasher struct {
	h uint64
	n int
}

func newItemHasher() *itemHasher { return &itemHasher{h: 14695981039346656037} }

func (ih *itemHasher) add(kind, value, xml string) {
	h := ih.h
	for _, s := range [3]string{kind, value, xml} {
		for i := 0; i < len(s); i++ {
			h = (h ^ uint64(s[i])) * 1099511628211
		}
		h *= 1099511628211 // field separator: a zero byte
	}
	ih.h = h
	ih.n++
}

func (ih *itemHasher) answer() answer { return answer{Items: ih.n, Hash: ih.h} }

func answerOfResult(res mxq.Result) answer {
	ih := newItemHasher()
	for _, it := range res {
		ih.add(it.Kind, it.Value, it.XML)
	}
	return ih.answer()
}

func answerOfItems(items []client.Item) answer {
	ih := newItemHasher()
	for _, it := range items {
		ih.add(it.Kind, it.Value, it.XML)
	}
	return ih.answer()
}

// oracle answers queries through the library path (mxq.Document.Query)
// on the same generated document the server is given, with the same
// seeding commits applied, so a wire reply that differs from the
// library's is a wrong answer.
type oracle struct {
	doc  *mxq.Document
	want map[string]answer
}

func buildOracle(xml string, seeding []updOp) (*oracle, error) {
	db, err := mxq.Open(mxq.Options{})
	if err != nil {
		return nil, err
	}
	doc, err := db.LoadXMLString(docName, xml)
	if err != nil {
		return nil, fmt.Errorf("oracle: %w", err)
	}
	for _, op := range seeding {
		res, err := doc.Update(op.XU)
		if err != nil {
			return nil, fmt.Errorf("oracle: seeding: %w", err)
		}
		if res.Affected != 1 {
			return nil, fmt.Errorf("oracle: seeding commit touched %d nodes, want 1: %s", res.Affected, op.XU)
		}
	}
	return &oracle{doc: doc, want: map[string]answer{}}, nil
}

// expect returns the library's answer to q, evaluating it once.
func (o *oracle) expect(q string) (answer, error) {
	if a, ok := o.want[q]; ok {
		return a, nil
	}
	res, err := o.doc.Query(q)
	if err != nil {
		return answer{}, fmt.Errorf("oracle: %s: %w", q, err)
	}
	a := answerOfResult(res)
	o.want[q] = a
	return a, nil
}

// fetchQueries calibrates fetch_ro's query set on this document: for
// each target path, the element count whose serialized size is closest
// to the target's byte size.
func (o *oracle) fetchQueries() ([]string, error) {
	queries := make([]string, len(fetchTargets))
	for i, t := range fetchTargets {
		res, err := o.doc.Query(t.Path)
		if err != nil {
			return nil, fmt.Errorf("oracle: %s: %w", t.Path, err)
		}
		if len(res) == 0 {
			return nil, fmt.Errorf("oracle: %s selects nothing", t.Path)
		}
		cum := make([]int, len(res))
		total := 0
		for j, it := range res {
			total += len(it.XML)
			cum[j] = total
		}
		// First prefix at or above the target, or the one before it if
		// that is closer.
		n := sort.SearchInts(cum, t.Bytes)
		if n == len(cum) {
			n--
		} else if n > 0 && t.Bytes-cum[n-1] < cum[n]-t.Bytes {
			n--
		}
		queries[i] = fetchQuery(t.Path, n+1)
	}
	return queries, nil
}
