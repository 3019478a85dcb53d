// Package shred turns XML text into the neutral pre-ordered node table
// that every store of the reproduction builds from (the "document
// shredder" of the paper). The shredder walks the document once,
// assigning pre ranks in arrival order and computing size (live
// descendant count) and level on the fly — exactly the counting pass
// that defines the pre/size/level encoding of Figure 2.
//
// The pass runs on the package's own Tokenizer, a pull tokenizer over
// the document held in memory; internal/xupdate reads XUpdate programs
// with the same one, so a document, a fragment and a program are
// well-formed by one rule. The pass hands its nodes to a Sink: Parse's
// builds a Tree, and internal/core's builds a store's pages with no tree
// between. A Tree straight from a parse may hold substrings of the
// parsed text; internal/core copies what it keeps.
package shred

import (
	"fmt"
	"io"
	"strings"

	"mxq/internal/xenc"
)

// Attr is a raw (uninterned) attribute.
type Attr struct {
	Name  string
	Value string
}

// Node is one shredded node in document order.
type Node struct {
	Kind  xenc.Kind
	Name  string // element name or PI target
	Value string // text/comment/PI content
	Size  int32  // descendant count
	Level int16  // depth; the root of the tree (or fragment root) is 0
	Attrs []Attr
}

// Tree is a forest of shredded nodes in document order. A full document
// has exactly one level-0 node (the root element); XUpdate content
// fragments may have several.
type Tree struct {
	Nodes []Node
}

// Check reports whether t has a shape the shredder produces: levels
// start at 0 and never rise by more than one, every size is the count of
// the nodes the levels put under it, every kind is an element, text,
// comment or PI, and only elements have attributes or children. A tree
// from outside the process (a WAL record) is checked before a store
// trusts its levels and sizes.
func (t *Tree) Check() error {
	var open []int // the nodes whose subtrees are still open
	closeTo := func(depth, end int) error {
		for len(open) > depth {
			top := open[len(open)-1]
			open = open[:len(open)-1]
			if n := t.Nodes[top].Size; int(n) != end-top-1 {
				return fmt.Errorf("shred: node %d has size %d, its subtree holds %d", top, n, end-top-1)
			}
		}
		return nil
	}
	for i := range t.Nodes {
		n := &t.Nodes[i]
		if n.Level < 0 || int(n.Level) > len(open) {
			return fmt.Errorf("shred: node %d at level %d under a node at level %d", i, n.Level, len(open)-1)
		}
		if err := closeTo(int(n.Level), i); err != nil {
			return err
		}
		if n.Kind > xenc.KindPI {
			return fmt.Errorf("shred: node %d has kind %v", i, n.Kind)
		}
		if len(open) > 0 && t.Nodes[open[len(open)-1]].Kind != xenc.KindElem || n.Kind != xenc.KindElem && len(n.Attrs) > 0 {
			return fmt.Errorf("shred: node %d: only an element has children or attributes", i)
		}
		open = append(open, i)
	}
	return closeTo(0, len(t.Nodes))
}

// Options configure the shredder.
type Options struct {
	// PreserveWhitespace keeps text nodes that consist only of whitespace.
	// By default they are dropped (boundary-whitespace stripping), which is
	// what the MonetDB/XQuery shredder does for data-centric documents.
	PreserveWhitespace bool
}

// ReadAll reads a document into memory whole, pre-sized when r has a
// Len, for Parse and for a caller that shreds it into its own Sink.
func ReadAll(r io.Reader) (string, error) {
	var sb strings.Builder
	if sized, ok := r.(interface{ Len() int }); ok {
		sb.Grow(sized.Len())
	}
	if _, err := io.Copy(&sb, r); err != nil {
		return "", fmt.Errorf("shred: %w", err)
	}
	return sb.String(), nil
}

// Parse shreds a complete XML document, which it reads into memory
// whole. The document must have a single root element.
func Parse(r io.Reader, opts Options) (*Tree, error) {
	doc, err := ReadAll(r)
	if err != nil {
		return nil, err
	}
	return ParseString(doc, opts)
}

// ParseString is Parse over a string. The tree's names and values may
// be substrings of doc (see Tokenizer); core.Build copies what it keeps.
func ParseString(doc string, opts Options) (*Tree, error) {
	t := newTreeSink(doc)
	if err := Shred(doc, opts, t); err != nil {
		return nil, err
	}
	return &t.Tree, nil
}

// ParseFragment shreds a well-formed XML fragment: a sequence of elements,
// text, comments and processing instructions. Used for XUpdate content.
func ParseFragment(s string, opts Options) (*Tree, error) {
	t := newTreeSink(s)
	if _, err := parse(s, opts, false, t); err != nil {
		return nil, err
	}
	return &t.Tree, nil
}

// A Sink takes the nodes of a shredded document in document order, as
// the counting pass finds them: the table without the Tree.
type Sink interface {
	// Node takes the next node; the nodes are numbered from 0 in the
	// order they arrive. An element's Size is not known yet (Close sets
	// it). n and its Attrs are the pass's own and change with the next
	// call; names and values may be substrings of the input.
	Node(n *Node)
	// Close sets the size of node i, an element whose end tag the pass
	// has just read.
	Close(i int, size int32)
}

// Shred runs the counting pass over a complete document into sink, by
// Parse's rule: one root element, document-level comments and PIs
// dropped. A refused document may have sent sink some of its nodes.
func Shred(doc string, opts Options, sink Sink) error {
	sh, err := parse(doc, opts, true, sink)
	if err != nil {
		return err
	}
	if sh.roots != 1 || sh.rootKind != xenc.KindElem {
		return fmt.Errorf("shred: document must have exactly one root element, got %d roots", sh.roots)
	}
	return nil
}

// treeSink is the Sink behind Parse: it appends to a Tree.
type treeSink struct{ Tree }

func newTreeSink(src string) *treeSink {
	// Data-centric XML comes to about one node per '<' (a leaf element
	// is two tags and two nodes; XMark: 1.04); the eighth on top saves
	// the table its one regrowth there.
	tags := strings.Count(src, "<")
	return &treeSink{Tree{Nodes: make([]Node, 0, tags+tags/8)}}
}

func (t *treeSink) Node(n *Node) {
	t.Nodes = append(t.Nodes, *n)
	if len(n.Attrs) > 0 {
		t.Nodes[len(t.Nodes)-1].Attrs = append([]Attr(nil), n.Attrs...)
	}
}

func (t *treeSink) Close(i int, size int32) { t.Nodes[i].Size = size }

// shredder is the counting pass over the token stream.
type shredder struct {
	sink  Sink
	opts  Options
	n     int   // nodes sent to sink
	stack []int // numbers of the open elements; its length is the depth
	node  Node  // the node being sent
	attrs []Attr
	// roots counts the level-0 nodes, and rootKind is the first one's.
	roots    int
	rootKind xenc.Kind
	// A run of adjacent character data and CDATA sections is one text
	// node: text holds a run of one token, joined one of several.
	text    string
	joined  []byte
	pending int             // tokens in the run
	names   map[Name]string // "{uri}local" for each namespaced name seen
}

// emit sends the node being built to the sink as node number sh.n.
func (sh *shredder) emit() {
	if sh.node.Level == 0 {
		if sh.roots++; sh.roots == 1 {
			sh.rootKind = sh.node.Kind
		}
	}
	sh.sink.Node(&sh.node)
	sh.n++
}

// parse shreds tokens into sink; document mode additionally drops
// document-level comments and PIs (fragments keep theirs — they become
// real children).
func parse(src string, opts Options, document bool, sink Sink) (*shredder, error) {
	z := NewTokenizer(src)
	sh := &shredder{sink: sink, opts: opts}
	for {
		tok, err := z.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("shred: %w", err)
		}
		switch tok.Kind {
		case TokStart:
			sh.flushText()
			sh.node = Node{
				Kind:  xenc.KindElem,
				Name:  sh.flatName(tok.Name, true),
				Level: sh.level(),
				Attrs: sh.attrList(tok.Attrs),
			}
			sh.stack = append(sh.stack, sh.n)
			sh.emit()
		case TokEnd:
			sh.flushText()
			top := sh.stack[len(sh.stack)-1]
			sh.stack = sh.stack[:len(sh.stack)-1]
			sh.sink.Close(top, int32(sh.n-1-top))
		case TokText:
			switch sh.pending++; sh.pending {
			case 1:
				sh.text = tok.Text
			case 2:
				sh.joined = append(append(sh.joined[:0], sh.text...), tok.Text...)
			default:
				sh.joined = append(sh.joined, tok.Text...)
			}
		case TokComment, TokPI:
			// Document-level comments and PIs (the XML declaration is
			// one) are dropped so that the first tuple of any full
			// document is always its root element (which is what
			// Root() == pre 0 in the read-only schema relies on).
			if document && len(sh.stack) == 0 {
				continue
			}
			sh.flushText()
			sh.node = Node{Kind: xenc.KindComment, Value: tok.Text, Level: sh.level()}
			if tok.Kind == TokPI {
				sh.node.Kind, sh.node.Name = xenc.KindPI, tok.Name.Local
			}
			sh.emit()
		}
	}
	sh.flushText()
	return sh, nil
}

func (sh *shredder) level() int16 { return int16(len(sh.stack)) }

// flushText ends the current run of character data and emits its text
// node — unless the whole run is XML white space (S: space, tab, CR,
// LF) and boundary white space is being stripped.
func (sh *shredder) flushText() {
	if sh.pending == 0 {
		return
	}
	s := sh.text
	if sh.pending > 1 {
		s = string(sh.joined)
	}
	sh.pending, sh.text = 0, ""
	if s == "" || !sh.opts.PreserveWhitespace && isSpace(s) {
		return
	}
	sh.node = Node{Kind: xenc.KindText, Value: s, Level: sh.level()}
	sh.emit()
}

func isSpace(s string) bool {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c != ' ' && c != '\t' && c != '\r' && c != '\n' {
			return false
		}
	}
	return true
}

// attrList converts a start tag's attributes into the pass's own list,
// which the next start tag overwrites.
func (sh *shredder) attrList(in []TokAttr) []Attr {
	if len(in) == 0 {
		return nil
	}
	sh.attrs = sh.attrs[:0]
	for _, a := range in {
		sh.attrs = append(sh.attrs, Attr{Name: sh.flatName(a.Name, false), Value: a.Value})
	}
	return sh.attrs
}

// flatName flattens a resolved name. The reproduction works with local
// names (XMark and the paper's examples are namespace-free); a non-empty
// namespace is kept as a "{uri}local" expanded name so distinct
// namespaces cannot collide. xmlns declarations stay readable: an
// attribute xmlns:p is named "p".
func (sh *shredder) flatName(n Name, element bool) string {
	if n.Space == "" || !element && n.Space == "xmlns" {
		return n.Local
	}
	flat, ok := sh.names[n]
	if !ok {
		if sh.names == nil {
			sh.names = make(map[Name]string)
		}
		flat = "{" + n.Space + "}" + n.Local
		sh.names[n] = flat
	}
	return flat
}

// Builder assembles a Tree programmatically; the XMark generator and the
// XUpdate element constructors use it to avoid a parse round-trip.
type Builder struct {
	t     Tree
	stack []int
	depth int16
}

// NewBuilder returns an empty builder.
func NewBuilder() *Builder { return &Builder{} }

// Start opens an element.
func (b *Builder) Start(name string, attrs ...Attr) *Builder {
	b.t.Nodes = append(b.t.Nodes, Node{Kind: xenc.KindElem, Name: name, Level: b.depth, Attrs: attrs})
	b.stack = append(b.stack, len(b.t.Nodes)-1)
	b.depth++
	return b
}

// Open reports whether an element is currently open.
func (b *Builder) Open() bool { return len(b.stack) > 0 }

// Attr adds an attribute to the innermost open element. It panics if no
// element is open.
func (b *Builder) Attr(name, value string) *Builder {
	if len(b.stack) == 0 {
		panic("shred: Builder.Attr without an open element")
	}
	top := b.stack[len(b.stack)-1]
	b.t.Nodes[top].Attrs = append(b.t.Nodes[top].Attrs, Attr{Name: name, Value: value})
	return b
}

// End closes the most recently opened element.
func (b *Builder) End() *Builder {
	top := b.stack[len(b.stack)-1]
	b.stack = b.stack[:len(b.stack)-1]
	b.depth--
	b.t.Nodes[top].Size = int32(len(b.t.Nodes) - 1 - top)
	return b
}

// Text appends a text node.
func (b *Builder) Text(s string) *Builder {
	b.t.Nodes = append(b.t.Nodes, Node{Kind: xenc.KindText, Value: s, Level: b.depth})
	return b
}

// Comment appends a comment node.
func (b *Builder) Comment(s string) *Builder {
	b.t.Nodes = append(b.t.Nodes, Node{Kind: xenc.KindComment, Value: s, Level: b.depth})
	return b
}

// PI appends a processing instruction.
func (b *Builder) PI(target, inst string) *Builder {
	b.t.Nodes = append(b.t.Nodes, Node{Kind: xenc.KindPI, Name: target, Value: inst, Level: b.depth})
	return b
}

// Elem writes a leaf element with optional text content in one call.
func (b *Builder) Elem(name, text string, attrs ...Attr) *Builder {
	b.Start(name, attrs...)
	if text != "" {
		b.Text(text)
	}
	return b.End()
}

// Tree returns the built forest. It panics if elements remain open.
func (b *Builder) Tree() *Tree {
	if len(b.stack) != 0 {
		panic(fmt.Sprintf("shred: Builder.Tree with %d open elements", len(b.stack)))
	}
	return &b.t
}
