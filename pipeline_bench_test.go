// BenchmarkXMarkQueryPipeline measures the query pipeline on the XMark
// shapes it was built for: each compiled expression runs over the same
// XMark document, and a counting view wrapper reports how many tuples
// the plan inspects. On descendant steps over many-ancestor contexts the
// staircase pruning touches each overlapping region once; the last three
// shapes run the numbering operator, which scans once per context node.
package mxq

import (
	"sync/atomic"
	"testing"

	"mxq/internal/xenc"
	"mxq/internal/xpath"
)

// countingView wraps a DocView and counts tuple inspections: every
// pre-addressed accessor call the evaluator makes. The count is the
// plan-quality metric the benchmark records — unlike wall time it is
// deterministic and machine-independent.
type countingView struct {
	xenc.DocView
	n atomic.Int64
}

func (c *countingView) Size(p xenc.Pre) xenc.Size   { c.n.Add(1); return c.DocView.Size(p) }
func (c *countingView) Level(p xenc.Pre) xenc.Level { c.n.Add(1); return c.DocView.Level(p) }
func (c *countingView) Kind(p xenc.Pre) xenc.Kind   { c.n.Add(1); return c.DocView.Kind(p) }
func (c *countingView) Name(p xenc.Pre) int32       { c.n.Add(1); return c.DocView.Name(p) }
func (c *countingView) Value(p xenc.Pre) string     { c.n.Add(1); return c.DocView.Value(p) }
func (c *countingView) Attrs(p xenc.Pre) []xenc.Attr {
	c.n.Add(1)
	return c.DocView.Attrs(p)
}
func (c *countingView) AttrValue(p xenc.Pre, name int32) (string, bool) {
	c.n.Add(1)
	return c.DocView.AttrValue(p, name)
}

// inspections evaluates e once over a counted wrapping of v and returns
// the tuple-inspection count.
func inspections(tb testing.TB, v xenc.DocView, e *xpath.Expr) int64 {
	tb.Helper()
	cv := &countingView{DocView: v}
	if _, err := e.Eval(cv); err != nil {
		tb.Fatal(err)
	}
	return cv.n.Load()
}

// pipelineQueries are the XMark query shapes the pipeline targets:
// //keyword-style descendant sweeps, multi-step descendant paths whose
// intermediate context sets overlap, fused positional predicates, a
// long child chain as the control (little overlap to prune), and the
// shapes that number per context: last(), a position on a reverse axis
// (the two the served scan_ro workload runs) and a position from
// attribute-node contexts.
var pipelineQueries = []struct{ name, q string }{
	{"keyword", `//keyword`},
	{"item-names", `/site/regions//item/name/text()`},
	{"nested-keyword", `//listitem//keyword`},
	{"parlist-text", `//parlist//listitem//text()`},
	{"bidder-first", `/site/open_auctions/open_auction/bidder[1]/increase/text()`},
	{"long-child-chain", `/site/closed_auctions/closed_auction/annotation/description/parlist/listitem/parlist/listitem/text/emph/keyword/text()`},
	{"pred-filter", `//item[description//keyword]/name/text()`},
	{"bidder-last", `count(//open_auction/bidder[last()])`},
	{"bidder-prev", `count(//bidder/preceding-sibling::bidder[1])`},
	{"attr-parent", `count(//person/@id/parent::*[1])`},
}

func BenchmarkXMarkQueryPipeline(b *testing.B) {
	f := getFixture(b, 0.01)
	for _, tc := range pipelineQueries {
		e, err := xpath.Parse(tc.q)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(tc.name, func(b *testing.B) {
			n := inspections(b, f.up, e)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := e.Eval(f.up); err != nil {
					b.Fatal(err)
				}
			}
			// After the loop: ResetTimer drops metrics reported before it.
			b.ReportMetric(float64(n), "inspections")
		})
	}
}
