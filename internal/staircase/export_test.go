package staircase

import "mxq/internal/xenc"

// Past exposes the kernels' subtree hop to the external tests: the rank
// past returns for the used tuple at p, and whether p+size+1 left p's
// run, where past must land exactly behind p's region.
func Past(v xenc.ColumnView, p xenc.Pre) (xenc.Pre, bool) {
	k := newCursor(v)
	i := k.at(p)
	crossed := p+k.Size[i]+1 > k.end
	return k.past(p, i), crossed
}

// Reference and ReferenceScan are EvalAxis and Scan over the per-tuple
// reference bodies, which the external tests hold the kernels to.
var (
	Reference     = reference
	ReferenceScan = refScan
)
