// Package xupdate implements the update language of the paper
// (Section 2.1): the XUpdate structural commands remove, insert-before,
// insert-after and append (with its optional child position), plus the
// value commands update and rename and the element/attribute/text/
// comment/processing-instruction content constructors.
//
// A parsed modification list is executed against a Target: the paged
// core store directly, or a transaction's image. Selections are
// evaluated with the XPath engine; selected nodes are pinned by their
// immutable NodeIDs before any mutation, so earlier commands in a list
// cannot invalidate the targets of later ones. Each command then becomes
// wal.Ops on those ids — the resolved operations a transaction logs and
// commit replays — which is the translation of XUpdate statements into
// bulk updates on the pos/size/level, pageOffset and node/pos tables
// that Section 3.1 describes.
package xupdate

import (
	"fmt"
	"io"
	"math"
	"strings"

	"mxq/internal/shred"
	"mxq/internal/staircase"
	"mxq/internal/wal"
	"mxq/internal/xenc"
	"mxq/internal/xpath"
)

// NS is the XUpdate namespace. The parser accepts both the prefixed
// namespace-resolved form and bare "xupdate:*" names.
const NS = "http://www.xmldb.org/xupdate"

// OpKind enumerates XUpdate commands.
type OpKind int

// The supported commands.
const (
	OpRemove OpKind = iota
	OpInsertBefore
	OpInsertAfter
	OpAppend
	OpUpdate
	OpRename
	OpVariable
)

func (k OpKind) String() string {
	switch k {
	case OpRemove:
		return "remove"
	case OpInsertBefore:
		return "insert-before"
	case OpInsertAfter:
		return "insert-after"
	case OpAppend:
		return "append"
	case OpUpdate:
		return "update"
	case OpRename:
		return "rename"
	case OpVariable:
		return "variable"
	}
	return fmt.Sprintf("OpKind(%d)", int(k))
}

// Op is one parsed XUpdate command.
type Op struct {
	Kind    OpKind
	Select  *xpath.Expr
	Child   int         // append: 0-based child index, -1 = last
	Frag    *shred.Tree // content for the insert commands
	Attrs   []shred.Attr
	Text    string // update: new content; rename: new name
	VarName string // variable: the binding name
}

// Mods is a parsed xupdate:modifications document.
type Mods struct {
	Ops []Op
}

// Parse reads an XUpdate modification list.
func Parse(r io.Reader) (*Mods, error) {
	src, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("xupdate: %w", err)
	}
	return ParseString(string(src))
}

// ParseString is Parse over a string. A program is XML by the rule
// documents are — shred.Tokenizer's — and, like a document's tree, the
// parsed commands may alias s.
func ParseString(s string) (*Mods, error) {
	z := shred.NewTokenizer(s)
	mods := &Mods{}
	seenRoot := false
	for {
		tok, err := z.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("xupdate: %w", err)
		}
		if tok.Kind != shred.TokStart {
			continue
		}
		if !isXU(tok.Name) {
			return nil, fmt.Errorf("xupdate: unexpected element %q", tok.Name.Local)
		}
		if tok.Name.Local == "modifications" {
			if seenRoot {
				return nil, fmt.Errorf("xupdate: nested modifications")
			}
			seenRoot = true
			continue
		}
		if !seenRoot {
			return nil, fmt.Errorf("xupdate: %s outside modifications", tok.Name.Local)
		}
		op, err := parseOp(z, tok)
		if err != nil {
			return nil, err
		}
		mods.Ops = append(mods.Ops, *op)
	}
	if !seenRoot {
		return nil, fmt.Errorf("xupdate: missing xupdate:modifications root")
	}
	return mods, nil
}

func isXU(n shred.Name) bool {
	return n.Space == NS || n.Space == "xupdate" || n.Space == ""
}

// parseOp parses the command whose start tag is the tokenizer's current
// token.
func parseOp(z *shred.Tokenizer, start *shred.Token) (*Op, error) {
	op := &Op{Child: -1}
	command := start.Name.Local
	switch command {
	case "remove":
		op.Kind = OpRemove
	case "insert-before":
		op.Kind = OpInsertBefore
	case "insert-after":
		op.Kind = OpInsertAfter
	case "append":
		op.Kind = OpAppend
	case "update":
		op.Kind = OpUpdate
	case "rename":
		op.Kind = OpRename
	case "variable":
		op.Kind = OpVariable
	default:
		return nil, fmt.Errorf("xupdate: unknown command %q", command)
	}
	var selectSrc string
	for _, a := range start.Attrs {
		switch a.Name.Local {
		case "select":
			selectSrc = a.Value
		case "name":
			if op.Kind == OpVariable {
				op.VarName = a.Value
			}
		case "child":
			var c int
			if _, err := fmt.Sscanf(a.Value, "%d", &c); err != nil || c < 1 || c > math.MaxInt32 {
				return nil, fmt.Errorf("xupdate: bad child position %q", a.Value)
			}
			op.Child = c - 1 // XUpdate child counts from 1
		}
	}
	if selectSrc == "" {
		return nil, fmt.Errorf("xupdate: %s without select", command)
	}
	sel, err := xpath.Parse(selectSrc)
	if err != nil {
		return nil, err
	}
	op.Select = sel

	b := shred.NewBuilder()
	var text strings.Builder
	if err := parseContent(z, b, &text, op); err != nil {
		return nil, err
	}
	frag := b.Tree()
	if len(frag.Nodes) > 0 {
		op.Frag = frag
	}
	op.Text = strings.TrimSpace(text.String())
	if err := op.check(); err != nil {
		return nil, err
	}
	return op, nil
}

// check refuses a parsed command that has nothing to apply. A top-level
// attribute constructor sets an attribute on the selected element, which
// only append does: insert-before and insert-after place siblings, and
// an attribute is not one.
func (op *Op) check() error {
	switch op.Kind {
	case OpInsertBefore, OpInsertAfter:
		if len(op.Attrs) > 0 {
			return fmt.Errorf("xupdate: %s cannot insert an attribute constructor", op.Kind)
		}
		if op.Frag == nil {
			return fmt.Errorf("xupdate: %s without content", op.Kind)
		}
	case OpAppend:
		if op.Frag == nil && len(op.Attrs) == 0 {
			return fmt.Errorf("xupdate: %s without content", op.Kind)
		}
	case OpRename:
		if op.Text == "" {
			return fmt.Errorf("xupdate: rename without a new name")
		}
	case OpVariable:
		if op.VarName == "" {
			return fmt.Errorf("xupdate: variable without a name")
		}
	}
	return nil
}

// parseContent fills the builder with the content constructors and
// literal XML of the command (or xupdate:element) just opened, up to its
// end tag.
func parseContent(z *shred.Tokenizer, b *shred.Builder, text *strings.Builder, op *Op) error {
	depth := 0
	for {
		tok, err := z.Next()
		if err != nil {
			return fmt.Errorf("xupdate: %w", err)
		}
		switch tok.Kind {
		case shred.TokStart:
			if isXU(tok.Name) && tok.Name.Space != "" {
				if err := parseConstructor(z, tok, b, op, depth); err != nil {
					return err
				}
				continue
			}
			// Literal element content.
			var attrs []shred.Attr
			for _, a := range tok.Attrs {
				attrs = append(attrs, shred.Attr{Name: a.Name.Local, Value: a.Value})
			}
			b.Start(tok.Name.Local, attrs...)
			depth++
		case shred.TokEnd:
			if depth == 0 {
				return nil
			}
			b.End()
			depth--
		case shred.TokText:
			if strings.TrimSpace(tok.Text) == "" {
				continue
			}
			if depth == 0 {
				text.WriteString(tok.Text)
			} else {
				b.Text(tok.Text)
			}
		case shred.TokComment:
			if depth > 0 {
				b.Comment(tok.Text)
			}
		}
	}
}

// parseConstructor handles xupdate:element / attribute / text / comment /
// processing-instruction, whose start tag is the current token.
func parseConstructor(z *shred.Tokenizer, start *shred.Token, b *shred.Builder, op *Op, depth int) error {
	constructor := start.Name.Local
	name := ""
	for _, a := range start.Attrs {
		if a.Name.Local == "name" {
			name = a.Value
		}
	}
	inner := func() (string, error) {
		var sb strings.Builder
		for {
			tok, err := z.Next()
			if err != nil {
				return "", fmt.Errorf("xupdate: %w", err)
			}
			switch tok.Kind {
			case shred.TokText:
				sb.WriteString(tok.Text)
			case shred.TokEnd:
				return sb.String(), nil
			case shred.TokStart:
				return "", fmt.Errorf("xupdate: %s cannot contain elements", constructor)
			}
		}
	}
	switch constructor {
	case "element":
		if name == "" {
			return fmt.Errorf("xupdate: element constructor without name")
		}
		b.Start(name)
		var ignored strings.Builder
		if err := parseContent(z, b, &ignored, op); err != nil {
			return err
		}
		b.End()
	case "attribute":
		if name == "" {
			return fmt.Errorf("xupdate: attribute constructor without name")
		}
		val, err := inner()
		if err != nil {
			return err
		}
		if depth == 0 && !b.Open() {
			// Top-level attribute constructor: applies to the target.
			op.Attrs = append(op.Attrs, shred.Attr{Name: name, Value: val})
		} else {
			b.Attr(name, val)
		}
	case "text":
		val, err := inner()
		if err != nil {
			return err
		}
		b.Text(val)
	case "comment":
		val, err := inner()
		if err != nil {
			return err
		}
		b.Comment(val)
	case "processing-instruction":
		if name == "" {
			return fmt.Errorf("xupdate: processing-instruction constructor without name")
		}
		val, err := inner()
		if err != nil {
			return err
		}
		b.PI(name, strings.TrimSpace(val))
	default:
		return fmt.Errorf("xupdate: unknown constructor %q", constructor)
	}
	return nil
}

// Target is the store the executor mutates: the DocView read surface
// plus Apply, which performs one resolved operation — a wal.Op on node
// ids, the paged store's update primitives of Section 3 — and returns
// the ids of the nodes it inserted. *core.Store and *tx.Tx implement it.
type Target interface {
	xenc.DocView
	Apply(op wal.Op) ([]xenc.NodeID, error)
}

// Result summarizes an execution.
type Result struct {
	Ops      int // commands executed
	Affected int // nodes the commands were applied to
}

// Execute runs all commands in order against the store.
// xupdate:variable bindings are evaluated when the command runs and are
// visible to the select expressions of all later commands ($name). Node
// set bindings are converted to their string value at definition time,
// since later structural commands may relocate the selected nodes.
func Execute(st Target, mods *Mods) (Result, error) {
	var res Result
	vars := map[string]xpath.Value{}
	for i := range mods.Ops {
		op := &mods.Ops[i]
		if op.Kind == OpVariable {
			val, err := op.Select.EvalVars(st, vars)
			if err != nil {
				return res, fmt.Errorf("xupdate: command %d (variable %s): %w", i+1, op.VarName, err)
			}
			vars[op.VarName] = xpath.String(xpath.StringOf(st, val))
			res.Ops++
			continue
		}
		n, err := executeOp(st, op, vars)
		if err != nil {
			return res, fmt.Errorf("xupdate: command %d (%s): %w", i+1, op.Kind, err)
		}
		res.Ops++
		res.Affected += n
	}
	return res, nil
}

func executeOp(st Target, op *Op, vars map[string]xpath.Value) (int, error) {
	ns, err := op.Select.SelectVars(st, vars)
	if err != nil {
		return 0, err
	}
	if len(ns) == 0 {
		return 0, nil // XUpdate: empty selection is a no-op
	}
	// Pin targets by immutable node id (attribute targets keep their
	// owner's id plus the attribute name).
	type pinned struct {
		id       xenc.NodeID
		attrName string
	}
	targets := make([]pinned, 0, len(ns))
	for _, n := range ns {
		if n.Pre == xpath.DocNodePre {
			return 0, fmt.Errorf("cannot apply %s to the document node", op.Kind)
		}
		p := pinned{id: st.NodeOf(n.Pre)}
		if n.Attr != xpath.NoAttr {
			attrs := st.Attrs(n.Pre)
			if int(n.Attr) >= len(attrs) {
				return 0, fmt.Errorf("stale attribute selection")
			}
			p.attrName = st.Names().Name(attrs[n.Attr].Name)
		}
		targets = append(targets, p)
	}
	count := 0
	for _, tgt := range targets {
		p := st.PreOf(tgt.id)
		if p == xenc.NoPre {
			continue // removed by an earlier target of this same command
		}
		if err := applyOne(st, op, p, tgt.id, tgt.attrName); err != nil {
			return count, err
		}
		count++
	}
	return count, nil
}

// applyOne runs the command on one pinned target, node id at view rank
// p (or its attribute attrName), as the wal.Ops it resolves to.
func applyOne(st Target, op *Op, p xenc.Pre, id xenc.NodeID, attrName string) error {
	apply := func(o wal.Op) error {
		o.Target = id
		_, err := st.Apply(o)
		return err
	}
	if attrName != "" {
		switch op.Kind {
		case OpRemove:
			return apply(wal.Op{Kind: wal.OpRemoveAttr, Name: attrName})
		case OpUpdate:
			return apply(wal.Op{Kind: wal.OpSetAttr, Name: attrName, Value: op.Text})
		case OpRename:
			val, _ := attrValue(st, p, attrName)
			if err := apply(wal.Op{Kind: wal.OpRemoveAttr, Name: attrName}); err != nil {
				return err
			}
			return apply(wal.Op{Kind: wal.OpSetAttr, Name: op.Text, Value: val})
		}
		return fmt.Errorf("%s cannot target an attribute", op.Kind)
	}
	switch op.Kind {
	case OpRemove:
		return apply(wal.Op{Kind: wal.OpDelete})
	case OpUpdate:
		return updateContent(st, p, id, op.Text)
	case OpRename:
		return apply(wal.Op{Kind: wal.OpRename, Name: op.Text})
	case OpInsertBefore:
		return apply(wal.Op{Kind: wal.OpInsertBefore, Frag: op.Frag})
	case OpInsertAfter:
		return apply(wal.Op{Kind: wal.OpInsertAfter, Frag: op.Frag})
	case OpAppend:
		for _, a := range op.Attrs {
			if err := apply(wal.Op{Kind: wal.OpSetAttr, Name: a.Name, Value: a.Value}); err != nil {
				return err
			}
		}
		if op.Frag == nil {
			return nil
		}
		if op.Child < 0 {
			return apply(wal.Op{Kind: wal.OpAppendChild, Frag: op.Frag})
		}
		return apply(wal.Op{Kind: wal.OpInsertChildAt, Child: int32(op.Child), Frag: op.Frag})
	}
	return fmt.Errorf("unknown command %v", op.Kind)
}

func attrValue(st Target, p xenc.Pre, name string) (string, bool) {
	id, ok := st.Names().Lookup(name)
	if !ok {
		return "", false
	}
	return st.AttrValue(p, id)
}

// updateContent implements xupdate:update on an element or value node,
// id at view rank p: value nodes get their content replaced; elements
// get their children replaced by a single text node.
func updateContent(st Target, p xenc.Pre, id xenc.NodeID, text string) error {
	if st.Kind(p) != xenc.KindElem {
		_, err := st.Apply(wal.Op{Kind: wal.OpSetValue, Target: id, Value: text})
		return err
	}
	// Pin the children by id, then delete them: a delete shifts nothing
	// in the paged store, but ids are the stable handle.
	var kids []xenc.NodeID
	for _, q := range staircase.EvalAxis(st, []xenc.Pre{p}, staircase.AxisChild, staircase.AnyNode()) {
		kids = append(kids, st.NodeOf(q))
	}
	for _, kid := range kids {
		if _, err := st.Apply(wal.Op{Kind: wal.OpDelete, Target: kid}); err != nil {
			return err
		}
	}
	if text == "" {
		return nil
	}
	frag := &shred.Tree{Nodes: []shred.Node{{Kind: xenc.KindText, Value: text}}}
	_, err := st.Apply(wal.Op{Kind: wal.OpAppendChild, Target: id, Frag: frag})
	return err
}
