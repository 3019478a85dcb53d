package serialize

// The per-tuple reference the kernel is held to (kernel_test.go).

import (
	"fmt"

	"mxq/internal/xenc"
)

// referenceAppend is Append over the reference body.
func referenceAppend(xml, text []byte, v xenc.DocView, p xenc.Pre, opts Options) ([]byte, []byte, error) {
	if !xenc.IsUsed(v, p) {
		return xml, text, fmt.Errorf("serialize: pre %d is not a live node", p)
	}
	s := sink{buf: xml, text: text, texts: true, indent: opts.Indent, base: v.Level(p), names: v.Names().Table()}
	s.node(v, p)
	if s.indent != "" {
		s.buf = append(s.buf, '\n')
	}
	return s.buf, s.text, nil
}

// node is the reference body: it reads the DocView accessors tuple by
// tuple, writes the node at p, and returns after its whole region, one
// recursion per element.
func (s *sink) node(v xenc.DocView, p xenc.Pre) {
	if v.Kind(p) != xenc.KindElem {
		s.leaf(v.Kind(p), v.Name(p), v.Value(p))
		return
	}
	name := s.names[v.Name(p)]
	if !s.startTag(name, v.Attrs(p), v.Size(p)) {
		return
	}
	// Children: walk the region.
	remaining := v.Size(p)
	lvl := v.Level(p)
	q := p
	hasElemChild := false
	for remaining > 0 {
		q = xenc.SkipFree(v, q+1)
		if q >= v.Len() || v.Level(q) <= lvl {
			break
		}
		if v.Level(q) == lvl+1 {
			if v.Kind(q) != xenc.KindText {
				hasElemChild = true
			}
			if hasElemChild {
				s.newline(v.Level(q))
			}
			s.node(v, q)
		}
		remaining--
	}
	if hasElemChild {
		s.newline(lvl)
	}
	s.endTag(name)
}
