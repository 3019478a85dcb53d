// Package serialize renders encoded documents and subtrees back to XML
// text (the "XML Serialization" kernel extension in Figure 1), walking
// the pre/size/level view in document order and rebuilding nesting from
// the level column. The one body is a column kernel, as the staircase
// operators' are: one forward pass over the runs of the view's columns
// (xenc.Columnar's adapter, one tuple a run, for a view without them):
// free runs hopped by the size column, open elements on a stack, names
// from a table loaded once per call, every byte appended to one buffer.
// A differential test and a fuzz target hold it byte-equal to a per-tuple
// reference that walks the DocView accessors, one recursion per element.
// Append collects an element's text descendants, its XPath string value,
// in the same walk.
//
// Text escapes & < >, attribute values " too, and both write CR as
// &#13;: a parser turns a literal CR into LF, so only the reference
// survives a round trip. Comments and PIs are written as stored.
package serialize

import (
	"fmt"
	"io"
	"sync"

	"mxq/internal/xenc"
)

// Options configure serialization.
type Options struct {
	// Indent pretty-prints with the given string per nesting level.
	// Empty means compact output.
	Indent string
}

// Document writes the whole document rooted at v.Root().
func Document(w io.Writer, v xenc.DocView, opts Options) error {
	return Subtree(w, v, v.Root(), opts)
}

// flushAt is how many bytes Subtree gathers before it writes them.
const flushAt = 32 << 10

var buffers = sync.Pool{New: func() any { return new([]byte) }}

// Subtree writes the subtree rooted at p.
func Subtree(w io.Writer, v xenc.DocView, p xenc.Pre, opts Options) error {
	b := buffers.Get().(*[]byte)
	defer buffers.Put(b)
	s := sink{buf: (*b)[:0], w: w}
	err := s.subtree(v, p, opts)
	if err == nil && !s.spill(1) {
		err = s.err
	}
	*b = s.buf
	return err
}

// String renders the subtree at p to a string.
func String(v xenc.DocView, p xenc.Pre, opts Options) (string, error) {
	var s sink
	err := s.subtree(v, p, opts)
	return string(s.buf), err
}

// Append serializes the subtree at p onto xml and appends its text
// descendants (an element's XPath string value) to text, in one walk.
func Append(xml, text []byte, v xenc.DocView, p xenc.Pre, opts Options) ([]byte, []byte, error) {
	s := sink{buf: xml, text: text, texts: true}
	err := s.subtree(v, p, opts)
	return s.buf, s.text, err
}

// sink is what the walk writes to: XML onto buf, which goes to w (if
// any) every flushAt bytes, and text descendants onto text if texts.
type sink struct {
	buf, text []byte
	texts     bool
	w         io.Writer
	err       error // w's first error
	indent    string
	base      xenc.Level // the subtree root's level
	names     []string
}

func (s *sink) subtree(v xenc.DocView, p xenc.Pre, opts Options) error {
	if !xenc.IsUsed(v, p) {
		return fmt.Errorf("serialize: pre %d is not a live node", p)
	}
	s.indent, s.base, s.names = opts.Indent, v.Level(p), v.Names().Table()
	s.columns(xenc.Columnar(v), p)
	if s.indent != "" {
		s.buf = append(s.buf, '\n')
	}
	return s.err
}

// spill hands buf to w once it holds at bytes; false means w failed.
func (s *sink) spill(at int) bool {
	if s.w != nil && s.err == nil && len(s.buf) >= at {
		_, s.err = s.w.Write(s.buf)
		s.buf = s.buf[:0]
	}
	return s.err == nil
}

// newline starts the line of a node at level l (not in compact output).
func (s *sink) newline(l xenc.Level) {
	if s.indent != "" {
		s.buf = append(s.buf, '\n')
		for i := s.base; i < l; i++ {
			s.buf = append(s.buf, s.indent...)
		}
	}
}

// leaf writes a text, comment or processing-instruction node.
func (s *sink) leaf(k xenc.Kind, name int32, val string) {
	switch k {
	case xenc.KindText:
		s.buf = appendEscaped(s.buf, val, false)
		if s.texts {
			s.text = append(s.text, val...)
		}
	case xenc.KindComment:
		s.buf = append(append(append(s.buf, "<!--"...), val...), "-->"...)
	case xenc.KindPI:
		s.buf = append(append(s.buf, "<?"...), s.names[name]...)
		if val != "" {
			s.buf = append(append(s.buf, ' '), val...)
		}
		s.buf = append(s.buf, "?>"...)
	}
}

// startTag writes an element's start tag, or its empty-element tag if it
// has no children; it reports whether it has children.
func (s *sink) startTag(name string, attrs []xenc.Attr, size xenc.Size) bool {
	s.buf = append(append(s.buf, '<'), name...)
	for _, a := range attrs {
		s.buf = append(append(append(s.buf, ' '), s.names[a.Name]...), `="`...)
		s.buf = append(appendEscaped(s.buf, a.Val, true), '"')
	}
	if size == 0 {
		s.buf = append(s.buf, "/>"...)
	} else {
		s.buf = append(s.buf, '>')
	}
	return size > 0
}

func (s *sink) endTag(name string) {
	s.buf = append(append(append(s.buf, "</"...), name...), '>')
}

var escapes = [256]string{'&': "&amp;", '<': "&lt;", '>': "&gt;", '\r': "&#13;", '"': "&quot;"}

// appendEscaped appends t escaped, in one scan; " only in an attribute.
func appendEscaped(b []byte, t string, attr bool) []byte {
	last := 0
	for i := 0; i < len(t); i++ {
		if esc := escapes[t[i]]; esc != "" && (attr || t[i] != '"') {
			b = append(append(b, t[last:i]...), esc...)
			last = i + 1
		}
	}
	return append(b, t[last:]...)
}

// open is an element whose start tag is written and end tag is not.
type open struct {
	name  string
	level xenc.Level
	block bool // a non-text child was written: later children and the end tag start lines
}

// columns is the walk.
func (s *sink) columns(v xenc.ColumnView, p xenc.Pre) {
	var room [16]open
	c, i := v.Cols(p)
	stack := s.tuple(room[:0], v, &c, i, p)
walk:
	for q, n := p+1, v.Len(); q < n; {
		c, i = v.Cols(q)
		run := q - xenc.Pre(i) // the view rank of index 0
		q = run + xenc.Pre(len(c.Level))
		lv, sz, kd := c.Level, c.Size[:len(c.Level)], c.Kind[:len(c.Level)]
		for ; i < len(lv); i++ {
			l := lv[i]
			if l == xenc.LevelUnused {
				i += int(sz[i]) // hop the free run; it ends inside this run
				continue
			}
			if l <= s.base {
				break walk // the first used tuple past the region
			}
			stack = s.close(stack, l)
			top := &stack[len(stack)-1]
			top.block = top.block || kd[i] != uint8(xenc.KindText)
			if top.block {
				s.newline(l)
			}
			if stack = s.tuple(stack, v, &c, i, run+xenc.Pre(i)); !s.spill(flushAt) {
				return
			}
		}
	}
	s.close(stack, s.base)
}

// tuple writes the used tuple at index i of c, view rank q, and pushes
// an element with children.
func (s *sink) tuple(stack []open, v xenc.DocView, c *xenc.Columns, i int, q xenc.Pre) []open {
	if k := xenc.Kind(c.Kind[i]); k != xenc.KindElem {
		s.leaf(k, c.Name[i], c.Text[i])
	} else if name := s.names[c.Name[i]]; s.startTag(name, v.Attrs(q), c.Size[i]) {
		stack = append(stack, open{name: name, level: c.Level[i]})
	}
	return stack
}

// close ends and pops the open elements at level l and deeper.
func (s *sink) close(stack []open, l xenc.Level) []open {
	for len(stack) > 0 && stack[len(stack)-1].level >= l {
		e := stack[len(stack)-1]
		if e.block {
			s.newline(e.level)
		}
		s.endTag(e.name)
		stack = stack[:len(stack)-1]
	}
	return stack
}
