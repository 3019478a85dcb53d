package shred

import (
	"fmt"
	"io"
	"strconv"
	"strings"
	"unicode/utf8"

	"mxq/internal/xenc"
)

// TokenKind tells the tokens of a Tokenizer apart.
type TokenKind uint8

// The token kinds. A self-closing tag yields TokStart then TokEnd; a
// CDATA section is a TokText of its own; <!DOCTYPE ...> and the other
// <!...> directives are skipped (entity declarations are not read, so
// only the five predefined entities and character references resolve).
const (
	TokStart TokenKind = iota + 1
	TokEnd
	TokText
	TokComment
	TokPI
)

// Name is a namespace-resolved XML name: Space is the URI bound to the
// name's prefix, the prefix itself when nothing binds it, and "" for an
// unprefixed name outside any default namespace. The xmlns prefix is
// never resolved, and the default namespace does not apply to
// attributes.
type Name struct {
	Space, Local string
}

// TokAttr is one attribute of a start tag.
type TokAttr struct {
	Name  Name
	Value string
}

// Token is one event of the token stream. Text and attribute values are
// substrings of the input unless a reference or a carriage return forced
// a decode. The Token Next returns and its Attrs are the tokenizer's
// own, overwritten by the next call; a copy of the struct keeps its
// strings.
type Token struct {
	Kind  TokenKind
	Name  Name      // TokStart, TokEnd; TokPI: the target, in Local
	Attrs []TokAttr // TokStart
	Text  string    // TokText, TokComment; TokPI: the instruction
}

// Tokenizer is a pull tokenizer over an XML text held in memory. It
// accepts the strict XML subset the reproduction has always accepted —
// UTF-8 only, characters within the XML Char range, names per the XML
// 1.0 name tables, matching end tags, no '<' in attribute values, no
// "]]>" in text, no "--" in comments, <?xml?> declaring version 1.0 and
// UTF-8 — and, like its predecessor, does not insist on a single root
// or reject text outside it: the shredder and the XUpdate parser decide
// what a token sequence means.
type Tokenizer struct {
	src     string
	pos     int
	open    []openElem
	ns      []nsBinding
	attrs   []TokAttr
	scratch []byte
	names   map[string]int // rawName.colon of each name validated the slow way
	tok     Token
	// endOwed is set between the two tokens of a self-closing tag.
	endOwed bool
}

type openElem struct {
	raw  string // the name as written, which the end tag must repeat
	name Name
	ns   int // len(Tokenizer.ns) outside the element
}

type nsBinding struct {
	prefix, uri string
}

// rawName is a name as written. colon is where "p:l" splits into prefix
// and local part: the index of its colon, or noColon when the name is
// all local part — no colon, or one at either end — or manyColons for a
// name with two, a valid PI target but no element or attribute name.
type rawName struct {
	raw   string
	colon int
}

const (
	noColon    = -1
	manyColons = -2
)

func (n rawName) prefix() string {
	if n.colon > 0 {
		return n.raw[:n.colon]
	}
	return ""
}

func (n rawName) local() string {
	if n.colon > 0 {
		return n.raw[n.colon+1:]
	}
	return n.raw
}

// NewTokenizer returns a tokenizer positioned at the start of src.
func NewTokenizer(src string) *Tokenizer {
	return &Tokenizer{src: src}
}

func (z *Tokenizer) fail(format string, args ...any) error {
	return z.failAt(z.pos, format, args...)
}

func (z *Tokenizer) failAt(pos int, format string, args ...any) error {
	line := 1 + strings.Count(z.src[:pos], "\n")
	return fmt.Errorf("XML syntax error on line %d: %s", line, fmt.Sprintf(format, args...))
}

const errEOF = "unexpected EOF"

// Next returns the next token, or io.EOF once the input is exhausted
// with every element closed.
func (z *Tokenizer) Next() (*Token, error) {
	if err := z.next(); err != nil {
		return nil, err
	}
	return &z.tok, nil
}

func (z *Tokenizer) next() error {
	if z.endOwed {
		z.endOwed = false
		z.pop()
		return nil
	}
	s := z.src
	for {
		if z.pos >= len(s) {
			if n := len(z.open); n > 0 {
				return z.fail("unexpected EOF: <%s> is not closed", z.open[n-1].raw)
			}
			return io.EOF
		}
		if s[z.pos] != '<' {
			return z.text(modeText)
		}
		z.pos++
		if z.pos >= len(s) {
			return z.fail(errEOF)
		}
		switch s[z.pos] {
		case '/':
			z.pos++
			return z.endTag()
		case '?':
			z.pos++
			return z.procInst()
		case '!':
			z.pos++
			switch {
			case strings.HasPrefix(s[z.pos:], "--"):
				z.pos += 2
				return z.comment()
			case strings.HasPrefix(s[z.pos:], "[CDATA["):
				z.pos += len("[CDATA[")
				return z.text(modeCDATA)
			case z.pos >= len(s):
				return z.fail(errEOF)
			case s[z.pos] == '-' || s[z.pos] == '[':
				return z.fail("invalid <!- or <![ sequence")
			}
			if err := z.skipDirective(); err != nil {
				return err
			}
		default:
			return z.startTag()
		}
	}
}

func (z *Tokenizer) text(mode int) error {
	text, err := z.chars(mode, 0)
	z.tok = Token{Kind: TokText, Text: text}
	return err
}

func (z *Tokenizer) pop() {
	top := &z.open[len(z.open)-1]
	z.tok = Token{Kind: TokEnd, Name: top.name}
	z.ns = z.ns[:top.ns]
	z.open = z.open[:len(z.open)-1]
}

func (z *Tokenizer) skipSpace() {
	for z.pos < len(z.src) {
		switch z.src[z.pos] {
		case ' ', '\t', '\n', '\r':
			z.pos++
		default:
			return
		}
	}
}

// name scans the name at z.pos; what names an element or attribute. A
// plain ASCII name is judged by its first byte; one with a colon or a
// multi-byte rune is validated and split once, on first sight.
func (z *Tokenizer) name(what string) (rawName, error) {
	s, i := z.src, z.pos
	plain := true
	for ; i < len(s) && nameByte[s[i]]; i++ {
		if s[i] >= utf8.RuneSelf || s[i] == ':' {
			plain = false
		}
	}
	n := rawName{s[z.pos:i], noColon}
	if n.raw == "" {
		if i == len(s) {
			return n, z.fail(errEOF)
		}
		return n, z.fail("expected %s name", what)
	}
	if !plain || nameRestOnly[n.raw[0]] {
		colon, seen := z.names[n.raw]
		if !seen {
			if !isName(n.raw) {
				return n, z.fail("invalid XML name: %q", n.raw)
			}
			colon = noColon
			if c := strings.IndexByte(n.raw, ':'); strings.Count(n.raw, ":") > 1 {
				colon = manyColons
			} else if c > 0 && c < len(n.raw)-1 {
				colon = c
			}
			if z.names == nil {
				z.names = make(map[string]int)
			}
			z.names[n.raw] = colon
		}
		n.colon = colon
	}
	z.pos = i
	return n, nil
}

// qname is name for the places where a second colon is an error.
func (z *Tokenizer) qname(what string) (rawName, error) {
	n, err := z.name(what)
	if err == nil && n.colon == manyColons {
		err = z.fail("expected %s name, found %q", what, n.raw)
	}
	return n, err
}

const xmlNamespace = "http://www.w3.org/XML/1998/namespace"

// resolve maps a name's prefix to its namespace (see Name).
func (z *Tokenizer) resolve(prefix, local string, element bool) Name {
	switch {
	case prefix == "" && (!element || len(z.ns) == 0 || local == "xmlns"),
		prefix == "xmlns":
		return Name{prefix, local}
	case prefix == "xml":
		return Name{xmlNamespace, local}
	}
	for i := len(z.ns) - 1; i >= 0; i-- {
		if z.ns[i].prefix == prefix {
			return Name{z.ns[i].uri, local}
		}
	}
	return Name{prefix, local}
}

func (z *Tokenizer) startTag() error {
	if len(z.open) >= xenc.MaxLevel {
		return z.fail("elements nested deeper than %d", xenc.MaxLevel)
	}
	elem, err := z.qname("element")
	if err != nil {
		return err
	}
	s := z.src
	outer := len(z.ns)
	z.attrs = z.attrs[:0]
	for {
		z.skipSpace()
		if z.pos >= len(s) {
			return z.fail(errEOF)
		}
		if c := s[z.pos]; c == '>' {
			z.pos++
			break
		} else if c == '/' {
			if !strings.HasPrefix(s[z.pos:], "/>") {
				return z.fail("expected /> in element")
			}
			z.pos += 2
			z.endOwed = true
			break
		}
		an, err := z.qname("attribute")
		if err != nil {
			return err
		}
		z.skipSpace()
		if z.pos >= len(s) || s[z.pos] != '=' {
			return z.fail("attribute name without = in element")
		}
		z.pos++
		z.skipSpace()
		if z.pos >= len(s) || s[z.pos] != '"' && s[z.pos] != '\'' {
			return z.fail("unquoted or missing attribute value in element")
		}
		z.pos++
		val, err := z.chars(modeAttr, s[z.pos-1])
		if err != nil {
			return err
		}
		name := Name{an.prefix(), an.local()}
		switch {
		case name.Space == "xmlns":
			z.ns = append(z.ns, nsBinding{name.Local, val})
		case name.Space == "" && name.Local == "xmlns":
			z.ns = append(z.ns, nsBinding{"", val})
		}
		z.attrs = append(z.attrs, TokAttr{Name: name, Value: val})
	}
	// The element's own declarations apply to its name and to every
	// attribute, whatever their order.
	for i := range z.attrs {
		if a := &z.attrs[i]; a.Name.Space != "" {
			a.Name = z.resolve(a.Name.Space, a.Name.Local, false)
		}
	}
	name := z.resolve(elem.prefix(), elem.local(), true)
	z.open = append(z.open, openElem{raw: elem.raw, name: name, ns: outer})
	z.tok = Token{Kind: TokStart, Name: name, Attrs: z.attrs}
	return nil
}

func (z *Tokenizer) endTag() error {
	s, i := z.src, z.pos
	for i < len(s) && nameByte[s[i]] {
		i++
	}
	raw := s[z.pos:i]
	if raw == "" {
		return z.fail("expected element name after </")
	}
	if len(z.open) == 0 {
		return z.fail("unexpected end element </%s>", raw)
	}
	if top := z.open[len(z.open)-1].raw; top != raw {
		return z.fail("element <%s> closed by </%s>", top, raw)
	}
	z.pos = i
	z.skipSpace()
	if z.pos >= len(s) {
		return z.fail(errEOF)
	}
	if s[z.pos] != '>' {
		return z.fail("invalid characters between </%s and >", raw)
	}
	z.pos++
	z.pop()
	return nil
}

func (z *Tokenizer) procInst() error {
	target, err := z.name("processing instruction target")
	if err != nil {
		return err
	}
	z.skipSpace()
	end := strings.Index(z.src[z.pos:], "?>")
	if end < 0 {
		return z.failAt(len(z.src), errEOF)
	}
	inst := z.src[z.pos : z.pos+end]
	if target.raw == "xml" {
		if v := declParam("version", inst); v != "" && v != "1.0" {
			return z.fail("unsupported version %q; only version 1.0 is supported", v)
		}
		if e := declParam("encoding", inst); e != "" && !strings.EqualFold(e, "utf-8") {
			return z.fail("unsupported encoding %q; only UTF-8 is supported", e)
		}
	}
	z.pos += end + 2
	z.tok = Token{Kind: TokPI, Name: Name{Local: target.raw}, Text: inst}
	return nil
}

// declParam returns the quoted value of param in an <?xml?> declaration,
// or "" — the first `param=` that a quote follows wins.
func declParam(param, s string) string {
	param += "="
	for {
		k := strings.Index(s, param)
		if k < 0 || k+len(param) >= len(s) {
			return ""
		}
		q := s[k+len(param)]
		s = s[k+len(param)+1:]
		if q == '\'' || q == '"' {
			if end := strings.IndexByte(s, q); end >= 0 {
				return s[:end]
			}
			return ""
		}
	}
}

// comment scans past "<!--"; the first "--" must be the terminator's.
func (z *Tokenizer) comment() error {
	rest := z.src[z.pos:]
	end := strings.Index(rest, "--")
	if end < 0 || end+2 >= len(rest) {
		return z.failAt(len(z.src), errEOF)
	}
	if rest[end+2] != '>' {
		return z.failAt(z.pos+end, `invalid sequence "--" not allowed in comments`)
	}
	z.pos += end + 3
	z.tok = Token{Kind: TokComment, Text: rest[:end]}
	return nil
}

// skipDirective skips a <!DOCTYPE ...>-style directive, z.pos being
// past its "<!": up to the first '>' outside quotes, nested <...>
// (an internal subset's declarations) and <!-- --> comments.
func (z *Tokenizer) skipDirective() error {
	s := z.src
	var quote byte
	depth := 0
	for i := z.pos + 1; i < len(s); i++ {
		switch c := s[i]; {
		case quote == 0 && depth == 0 && c == '>':
			z.pos = i + 1
			return nil
		case c == quote:
			quote = 0
		case quote != 0:
		case c == '\'' || c == '"':
			quote = c
		case c == '>':
			depth--
		case c == '<':
			if !strings.HasPrefix(s[i+1:], "!--") {
				depth++
				continue
			}
			end := strings.Index(s[i+4:], "-->")
			if end < 0 {
				i = len(s)
				continue
			}
			i += 4 + end + 2
		}
	}
	return z.failAt(len(s), errEOF)
}

// The three places character data is scanned.
const (
	modeText  = iota // up to '<' or the end of input
	modeAttr         // up to the closing quote
	modeCDATA        // up to "]]>", nothing inside is markup
)

// Byte classes for chars: everything but cPlain needs a look.
const (
	cPlain = iota
	cLT
	cAmp
	cCR
	cGT
	cQuote
	cIllegal
	cMultibyte
)

var charClass = func() (t [256]uint8) {
	for c := range t {
		switch {
		case c >= utf8.RuneSelf:
			t[c] = cMultibyte
		case c < 0x20 && c != '\t' && c != '\n':
			t[c] = cIllegal
		}
	}
	t['<'], t['&'], t['\r'], t['>'], t['"'], t['\''] = cLT, cAmp, cCR, cGT, cQuote, cQuote
	return t
}()

// chars scans character data from z.pos and leaves z.pos past its
// terminator. The result is a substring of the input unless a
// reference or a carriage return (normalised to "\n", as is "\r\n")
// made the text differ from its source, in which case it is a copy.
func (z *Tokenizer) chars(mode int, quote byte) (string, error) {
	s := z.src
	start, i := z.pos, z.pos
	lit := start // s[lit:i] is scanned but not yet copied to buf
	buf := z.scratch[:0]
	decoded := false
	end := -1
scan:
	for {
		for i < len(s) && charClass[s[i]] == cPlain {
			i++
		}
		if i == len(s) {
			if mode != modeText {
				return "", z.failAt(i, errEOF)
			}
			end, z.pos = i, i
			break
		}
		switch c := s[i]; charClass[c] {
		case cLT:
			if mode == modeText {
				end, z.pos = i, i
				break scan
			}
			if mode == modeAttr {
				return "", z.failAt(i, "unescaped < inside quoted string")
			}
			i++
		case cQuote:
			if mode == modeAttr && c == quote {
				end, z.pos = i, i+1
				break scan
			}
			i++
		case cGT:
			if mode != modeAttr && i-2 >= start && s[i-2:i] == "]]" {
				if mode == modeText {
					return "", z.failAt(i, "unescaped ]]> not in CDATA section")
				}
				end, z.pos = i-2, i+1
				break scan
			}
			i++
		case cAmp:
			if mode == modeCDATA {
				i++
				continue
			}
			decoded = true
			buf = append(buf, s[lit:i]...)
			var err error
			if buf, i, err = z.reference(buf, i); err != nil {
				return "", err
			}
			lit = i
		case cCR:
			decoded = true
			buf = append(append(buf, s[lit:i]...), '\n')
			i++
			if i < len(s) && s[i] == '\n' {
				i++
			}
			lit = i
		case cIllegal:
			return "", z.failAt(i, "illegal character code %U", c)
		case cMultibyte:
			r, size := utf8.DecodeRuneInString(s[i:])
			if r == utf8.RuneError && size == 1 {
				return "", z.failAt(i, "invalid UTF-8")
			}
			if r == 0xFFFE || r == 0xFFFF {
				return "", z.failAt(i, "illegal character code %U", r)
			}
			i += size
		}
	}
	if !decoded {
		return s[start:end], nil
	}
	if lit < end {
		buf = append(buf, s[lit:end]...)
	}
	z.scratch = buf
	return string(buf), nil
}

// reference decodes the character reference or predefined entity at
// s[i] == '&' onto buf and returns the index past its ';'.
func (z *Tokenizer) reference(buf []byte, i int) ([]byte, int, error) {
	s := z.src
	for _, e := range [...]struct {
		ref string
		c   byte
	}{{"&lt;", '<'}, {"&gt;", '>'}, {"&amp;", '&'}, {"&apos;", '\''}, {"&quot;", '"'}} {
		if strings.HasPrefix(s[i:], e.ref) {
			return append(buf, e.c), i + len(e.ref), nil
		}
	}
	// &#N; or &#xN; — the digits are strconv's to judge.
	semi := strings.IndexByte(s[i:], ';')
	if !strings.HasPrefix(s[i:], "&#") || semi < 0 {
		return buf, i, z.failAt(i, "invalid character entity")
	}
	digits, base := s[i+2:i+semi], 10
	if strings.HasPrefix(digits, "x") {
		digits, base = digits[1:], 16
	}
	n, err := strconv.ParseUint(digits, base, 32)
	r := rune(n)
	switch {
	case err != nil || n > utf8.MaxRune:
		return buf, i, z.failAt(i, "invalid character entity %s", s[i:i+semi+1])
	case 0xD800 <= r && r < 0xE000:
		// A surrogate has no UTF-8 form; the reproduction has always
		// stored U+FFFD for one.
		r = utf8.RuneError
	case r < 0x20 && r != '\t' && r != '\n' && r != '\r', r == 0xFFFE, r == 0xFFFF:
		return buf, i, z.failAt(i, "illegal character code %U", r)
	}
	return utf8.AppendRune(buf, r), i + semi + 1, nil
}
