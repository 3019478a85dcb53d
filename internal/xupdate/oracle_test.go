package xupdate

import (
	"encoding/xml"
	"fmt"
	"io"
	"reflect"
	"strings"
	"testing"

	"mxq/internal/shred"
	"mxq/internal/xpath"
)

// The parser as it walked encoding/xml's Decoder until shred.Tokenizer
// replaced it, kept as the differential oracle: parseChecked holds
// ParseString to the same accept/refuse decision and the same commands
// on every program the tests and the fuzzer parse. The two share only
// Op.check, the rule for a command with nothing to apply, which does not
// depend on how the XML was read.

func oracleParse(r io.Reader) (*Mods, error) {
	dec := xml.NewDecoder(r)
	mods := &Mods{}
	seenRoot := false
	for {
		tok, err := dec.Token()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("xupdate: %w", err)
		}
		switch tk := tok.(type) {
		case xml.StartElement:
			if !oracleIsXU(tk.Name) {
				return nil, fmt.Errorf("xupdate: unexpected element %q", tk.Name.Local)
			}
			if tk.Name.Local == "modifications" {
				if seenRoot {
					return nil, fmt.Errorf("xupdate: nested modifications")
				}
				seenRoot = true
				continue
			}
			if !seenRoot {
				return nil, fmt.Errorf("xupdate: %s outside modifications", tk.Name.Local)
			}
			op, err := oracleParseOp(dec, tk)
			if err != nil {
				return nil, err
			}
			mods.Ops = append(mods.Ops, *op)
		}
	}
	if !seenRoot {
		return nil, fmt.Errorf("xupdate: missing xupdate:modifications root")
	}
	return mods, nil
}

func oracleIsXU(n xml.Name) bool {
	return n.Space == NS || n.Space == "xupdate" || n.Space == ""
}

func oracleParseOp(dec *xml.Decoder, start xml.StartElement) (*Op, error) {
	op := &Op{Child: -1}
	switch start.Name.Local {
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
		return nil, fmt.Errorf("xupdate: unknown command %q", start.Name.Local)
	}
	var selectSrc string
	for _, a := range start.Attr {
		switch a.Name.Local {
		case "select":
			selectSrc = a.Value
		case "name":
			if op.Kind == OpVariable {
				op.VarName = a.Value
			}
		case "child":
			var c int
			if _, err := fmt.Sscanf(a.Value, "%d", &c); err != nil || c < 1 {
				return nil, fmt.Errorf("xupdate: bad child position %q", a.Value)
			}
			op.Child = c - 1 // XUpdate child counts from 1
		}
	}
	if selectSrc == "" {
		return nil, fmt.Errorf("xupdate: %s without select", start.Name.Local)
	}
	sel, err := xpath.Parse(selectSrc)
	if err != nil {
		return nil, err
	}
	op.Select = sel

	b := shred.NewBuilder()
	var text strings.Builder
	if err := oracleParseContent(dec, start.Name, b, &text, op); err != nil {
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

// parseContent fills the builder with the command's content constructors
// and literal XML until the command's end element.
func oracleParseContent(dec *xml.Decoder, until xml.Name, b *shred.Builder, text *strings.Builder, op *Op) error {
	depth := 0
	for {
		tok, err := dec.Token()
		if err != nil {
			return fmt.Errorf("xupdate: %w", err)
		}
		switch tk := tok.(type) {
		case xml.StartElement:
			if oracleIsXU(tk.Name) && tk.Name.Space != "" {
				if err := oracleParseConstructor(dec, tk, b, op, depth); err != nil {
					return err
				}
				continue
			}
			// Literal element content.
			var attrs []shred.Attr
			for _, a := range tk.Attr {
				attrs = append(attrs, shred.Attr{Name: a.Name.Local, Value: a.Value})
			}
			b.Start(tk.Name.Local, attrs...)
			depth++
		case xml.EndElement:
			if depth == 0 {
				if tk.Name.Local != until.Local {
					return fmt.Errorf("xupdate: unbalanced %q", tk.Name.Local)
				}
				return nil
			}
			b.End()
			depth--
		case xml.CharData:
			s := string(tk)
			if strings.TrimSpace(s) == "" {
				continue
			}
			if depth == 0 {
				text.WriteString(s)
			} else {
				b.Text(s)
			}
		case xml.Comment:
			if depth > 0 {
				b.Comment(string(tk))
			}
		}
	}
}

// parseConstructor handles xupdate:element / attribute / text / comment /
// processing-instruction.
func oracleParseConstructor(dec *xml.Decoder, start xml.StartElement, b *shred.Builder, op *Op, depth int) error {
	name := ""
	for _, a := range start.Attr {
		if a.Name.Local == "name" {
			name = a.Value
		}
	}
	inner := func() (string, error) {
		var sb strings.Builder
		for {
			tok, err := dec.Token()
			if err != nil {
				return "", fmt.Errorf("xupdate: %w", err)
			}
			switch tk := tok.(type) {
			case xml.CharData:
				sb.WriteString(string(tk))
			case xml.EndElement:
				return sb.String(), nil
			case xml.StartElement:
				return "", fmt.Errorf("xupdate: %s cannot contain elements", start.Name.Local)
			}
		}
	}
	switch start.Name.Local {
	case "element":
		if name == "" {
			return fmt.Errorf("xupdate: element constructor without name")
		}
		b.Start(name)
		var ignored strings.Builder
		if err := oracleParseContent(dec, start.Name, b, &ignored, op); err != nil {
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
		return fmt.Errorf("xupdate: unknown constructor %q", start.Name.Local)
	}
	return nil
}

// parseChecked is ParseString, failing the test when the oracle
// disagrees with it.
func parseChecked(t testing.TB, src string) (*Mods, error) {
	t.Helper()
	got, gotErr := ParseString(src)
	want, wantErr := oracleParse(strings.NewReader(src))
	if (gotErr == nil) != (wantErr == nil) {
		t.Fatalf("%q: tokenizer error %v, encoding/xml error %v", src, gotErr, wantErr)
	}
	if gotErr != nil {
		if !strings.HasPrefix(gotErr.Error(), "xupdate: ") && !strings.HasPrefix(gotErr.Error(), "xpath: ") {
			t.Fatalf("%q: error %q lacks the xupdate: prefix", src, gotErr)
		}
		return nil, gotErr
	}
	if len(got.Ops) != len(want.Ops) {
		t.Fatalf("%q: %d commands, encoding/xml gives %d", src, len(got.Ops), len(want.Ops))
	}
	for i := range got.Ops {
		g, w := got.Ops[i], want.Ops[i]
		if g.Select.Source() != w.Select.Source() {
			t.Fatalf("%q: command %d selects %q, encoding/xml gives %q", src, i, g.Select.Source(), w.Select.Source())
		}
		g.Select, w.Select = nil, nil
		if !reflect.DeepEqual(g, w) {
			t.Fatalf("%q: command %d is %+v, encoding/xml gives %+v", src, i, g, w)
		}
	}
	return got, nil
}

// TestParseMatchesOracleOnBenchOps covers the four command shapes the
// served-path benchmark generates (bench/gen.go): text update, bidder
// append, remove, attribute update.
func TestParseMatchesOracleOnBenchOps(t *testing.T) {
	const open = `<xupdate:modifications xmlns:xupdate="http://www.xmldb.org/xupdate">`
	for k := 1; k <= 50; k++ {
		marker := fmt.Sprintf("w%d", k)
		for _, body := range []string{
			fmt.Sprintf(`<xupdate:update select="/site/people/person[%d]/name/text()">%s</xupdate:update>`, k, marker),
			fmt.Sprintf(`<xupdate:update select="/site/regions/asia/item[%d]/location/text()">%s</xupdate:update>`, k, marker),
			fmt.Sprintf(`<xupdate:append select="/site/open_auctions/open_auction[%d]">`+
				`<bidder><date>01/01/2001</date><time>12:00:00</time><personref person="person%d"/><increase>%s</increase></bidder>`+
				`</xupdate:append>`, k, k*7, marker),
			fmt.Sprintf(`<xupdate:remove select="/site/open_auctions/open_auction[%d]/bidder[last()]"/>`, k),
			fmt.Sprintf(`<xupdate:update select="/site/closed_auctions/closed_auction[%d]/buyer/@person">%s</xupdate:update>`, k, marker),
		} {
			mods, err := parseChecked(t, open+body+`</xupdate:modifications>`)
			if err != nil || len(mods.Ops) != 1 {
				t.Fatalf("%s: %v, %v", body, mods, err)
			}
		}
	}
}
