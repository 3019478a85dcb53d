package xpath_test

import (
	"bytes"
	"testing"

	"mxq/internal/core"
	"mxq/internal/shred"
	"mxq/internal/xenc"
	"mxq/internal/xmark"
	"mxq/internal/xpath"
)

// namesCounter counts how often the evaluator asks for the name pool —
// the string→id side of a node test, which costs a lock and a map probe.
type namesCounter struct {
	xenc.DocView
	calls int
}

func (n *namesCounter) Names() *xenc.QNamePool {
	n.calls++
	return n.DocView.Names()
}

// TestNameTestResolvedOncePerStep pins that a name test is resolved to an
// id once per step per evaluation, tree steps and attribute steps alike:
// the number of name-pool lookups is bounded by the step count, whatever
// the number of tuples the steps visit.
func TestNameTestResolvedOncePerStep(t *testing.T) {
	var buf bytes.Buffer
	if _, err := xmark.NewGenerator(0.01, 42).WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	tree, err := shred.Parse(&buf, shred.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s, err := core.Build(tree, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		q     string
		steps int
	}{
		{`//keyword`, 1},    // one fused descendant step
		{`//person/@id`, 2}, // descendant::person, attribute::id
		{`/site/people/person/@*`, 4},
	} {
		v := &namesCounter{DocView: s}
		ns, err := xpath.MustParse(tc.q).Select(v)
		if err != nil {
			t.Fatal(err)
		}
		if len(ns) < 100 {
			t.Fatalf("%s: %d results; the fixture should give hundreds", tc.q, len(ns))
		}
		if v.calls > tc.steps {
			t.Errorf("%s: %d name-pool lookups for %d steps and %d results", tc.q, v.calls, tc.steps, len(ns))
		}
	}
}
