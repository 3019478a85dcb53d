package xpath

import (
	"fmt"
	"strconv"
)

// Expr is a compiled XPath expression, safe for concurrent evaluation.
type Expr struct {
	root expr
	src  string
}

// String returns a normalized rendering of the expression.
func (e *Expr) String() string { return e.root.String() }

// Source returns the original expression text.
func (e *Expr) Source() string { return e.src }

// Parse compiles an XPath 1.0 expression (the subset described in the
// package documentation).
func Parse(src string) (*Expr, error) {
	toks, err := lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	root, _, err := p.parseExpr()
	if err != nil {
		return nil, fmt.Errorf("xpath: %w (in %q)", err, src)
	}
	if p.peek().kind != tokEOF {
		return nil, fmt.Errorf("xpath: trailing input at %v (in %q)", p.peek(), src)
	}
	// Lower every location path into its sequence-at-a-time plan (see
	// compile.go); the compiled form is immutable and safe to share, so
	// Prepared queries pay for compilation exactly once.
	compilePlans(root)
	return &Expr{root: root, src: src}, nil
}

// MustParse is Parse for statically known expressions.
func MustParse(src string) *Expr {
	e, err := Parse(src)
	if err != nil {
		panic(err)
	}
	return e
}

// maxDepth bounds the height of an expression's tree. Parentheses,
// predicates, function arguments, unary minus, path steps and every
// operator of a binary or union chain each add a level above their
// operands, and the parse functions return the height of what they
// built. The compiler, the evaluator and String all recurse over that
// tree, and a stack overflow is fatal to the process, not a panic a
// server can recover, so an expression past the bound is refused the way
// a document nested past xenc.MaxLevel is. Real queries are a few
// levels tall: the tallest any test or fuzz seed parses is 7.
const maxDepth = 1000

var errTooDeep = fmt.Errorf("expression nests deeper than %d levels", maxDepth)

type parser struct {
	toks []token
	at   int
	// depth counts the parseExpr and unary-minus levels open at the
	// current token. Each is one level of the tree being built (the
	// parentheses, predicate, function call or minus around it), so
	// refusing past maxDepth here refuses nothing the height bound would
	// pass; it only stops the parser's own recursion before the heights
	// come back.
	depth int
}

// descend opens one level of the parser's recursion; the caller closes
// it with p.depth-- once the level's subtree is parsed.
func (p *parser) descend() error {
	if p.depth++; p.depth > maxDepth {
		return errTooDeep
	}
	return nil
}

func (p *parser) peek() token { return p.toks[p.at] }
func (p *parser) next() token { t := p.toks[p.at]; p.at++; return t }
func (p *parser) accept(k tokKind) bool {
	if p.toks[p.at].kind == k {
		p.at++
		return true
	}
	return false
}

func (p *parser) expect(k tokKind, what string) (token, error) {
	if p.toks[p.at].kind != k {
		return token{}, fmt.Errorf("expected %s, found %v", what, p.toks[p.at])
	}
	return p.next(), nil
}

// parseExpr := OrExpr. It refuses a tree taller than maxDepth.
func (p *parser) parseExpr() (expr, int, error) {
	if err := p.descend(); err != nil {
		return nil, 0, err
	}
	e, h, err := p.parseBinary(0)
	p.depth--
	if err == nil && h > maxDepth {
		err = errTooDeep
	}
	return e, h, err
}

// binaryOps lists the binary operators by precedence, loosest first:
// OrExpr, AndExpr, EqualityExpr, RelationalExpr, AdditiveExpr,
// MultiplicativeExpr. All of them associate to the left.
var binaryOps = [...][]struct {
	tok tokKind
	op  string
}{
	{{tokOr, "or"}},
	{{tokAnd, "and"}},
	{{tokEq, "="}, {tokNeq, "!="}},
	{{tokLt, "<"}, {tokLe, "<="}, {tokGt, ">"}, {tokGe, ">="}},
	{{tokPlus, "+"}, {tokMinus, "-"}},
	{{tokStar, "*"}, {tokDiv, "div"}, {tokMod, "mod"}},
}

// parseBinary parses a chain of the operators at precedence level whose
// operands are the next level's; past the last level it parses a
// UnaryExpr. A chain is as tall as it is long, on top of its first
// operand.
func (p *parser) parseBinary(level int) (expr, int, error) {
	if level == len(binaryOps) {
		return p.parseUnary()
	}
	l, hl, err := p.parseBinary(level + 1)
	if err != nil {
		return nil, 0, err
	}
	for {
		op := ""
		for _, o := range binaryOps[level] {
			if p.peek().kind == o.tok {
				op = o.op
			}
		}
		if op == "" {
			return l, hl, nil
		}
		p.next()
		r, hr, err := p.parseBinary(level + 1)
		if err != nil {
			return nil, 0, err
		}
		l, hl = &binaryExpr{op: op, l: l, r: r}, max(hl, hr)+1
	}
}

func (p *parser) parseUnary() (expr, int, error) {
	if p.accept(tokMinus) {
		if err := p.descend(); err != nil {
			return nil, 0, err
		}
		e, h, err := p.parseUnary()
		p.depth--
		if err != nil {
			return nil, 0, err
		}
		return &negExpr{e: e}, h + 1, nil
	}
	return p.parseUnion()
}

func (p *parser) parseUnion() (expr, int, error) {
	l, hl, err := p.parsePath()
	if err != nil {
		return nil, 0, err
	}
	for p.accept(tokPipe) {
		r, hr, err := p.parsePath()
		if err != nil {
			return nil, 0, err
		}
		l, hl = &unionExpr{l: l, r: r}, max(hl, hr)+1
	}
	return l, hl, nil
}

// parsePath := LocationPath | FilterExpr (('/'|'//') RelativeLocationPath)?
// A path or filter is a level above its start and its predicates.
func (p *parser) parsePath() (expr, int, error) {
	switch p.peek().kind {
	case tokSlash:
		p.next()
		pe := &pathExpr{absolute: true}
		h := 0
		if p.startsStep() {
			var err error
			if h, err = p.parseRelativePath(pe); err != nil {
				return nil, 0, err
			}
		}
		return pe, h + 1, nil
	case tokDblSlash:
		p.next()
		pe := &pathExpr{absolute: true}
		pe.steps = append(pe.steps, step{axis: AxisDescendantOrSelf, tk: testNode})
		h, err := p.parseRelativePath(pe)
		if err != nil {
			return nil, 0, err
		}
		return pe, h + 1, nil
	}
	if p.startsPrimary() {
		base, h, err := p.parsePrimary()
		if err != nil {
			return nil, 0, err
		}
		var preds []expr
		for p.peek().kind == tokLBracket {
			pr, hp, err := p.parsePredicate()
			if err != nil {
				return nil, 0, err
			}
			preds, h = append(preds, pr), max(h, hp)
		}
		if len(preds) > 0 {
			base, h = &filterExpr{base: base, preds: preds}, h+1
		}
		if p.peek().kind == tokSlash || p.peek().kind == tokDblSlash {
			pe := &pathExpr{start: base}
			if p.accept(tokDblSlash) {
				pe.steps = append(pe.steps, step{axis: AxisDescendantOrSelf, tk: testNode})
			} else {
				p.next()
			}
			hs, err := p.parseRelativePath(pe)
			if err != nil {
				return nil, 0, err
			}
			return pe, max(h, hs) + 1, nil
		}
		return base, h, nil
	}
	pe := &pathExpr{}
	h, err := p.parseRelativePath(pe)
	if err != nil {
		return nil, 0, err
	}
	return pe, h + 1, nil
}

// startsPrimary reports whether the next token begins a primary
// expression rather than a location path. A name followed by '(' is a
// function call unless it is a node-type test.
func (p *parser) startsPrimary() bool {
	switch p.peek().kind {
	case tokNumber, tokLiteral, tokLParen, tokDollar:
		return true
	case tokName:
		if p.toks[p.at+1].kind == tokLParen && !isNodeType(p.peek().text) {
			return true
		}
	}
	return false
}

func (p *parser) startsStep() bool {
	switch p.peek().kind {
	case tokName, tokAt, tokDot, tokDotDot, tokAxis:
		return true
	}
	return false
}

func isNodeType(name string) bool {
	switch name {
	case "node", "text", "comment", "processing-instruction":
		return true
	}
	return false
}

// parseRelativePath appends the steps to pe and returns the height of
// their tallest predicate.
func (p *parser) parseRelativePath(pe *pathExpr) (int, error) {
	h := 0
	for {
		st, hs, err := p.parseStep()
		if err != nil {
			return 0, err
		}
		pe.steps, h = append(pe.steps, st), max(h, hs)
		if p.accept(tokSlash) {
			continue
		}
		if p.accept(tokDblSlash) {
			pe.steps = append(pe.steps, step{axis: AxisDescendantOrSelf, tk: testNode})
			continue
		}
		return h, nil
	}
}

func (p *parser) parseStep() (step, int, error) {
	var st step
	switch p.peek().kind {
	case tokDot:
		p.next()
		return step{axis: AxisSelf, tk: testNode}, 0, nil
	case tokDotDot:
		p.next()
		return step{axis: AxisParent, tk: testNode}, 0, nil
	case tokAt:
		p.next()
		st.axis = AxisAttribute
	case tokAxis:
		t := p.next()
		ax, ok := axisNames[t.text]
		if !ok {
			return st, 0, fmt.Errorf("unknown axis %q", t.text)
		}
		st.axis = ax
	default:
		st.axis = AxisChild
	}
	if err := p.parseNodeTest(&st); err != nil {
		return st, 0, err
	}
	h := 0
	for p.peek().kind == tokLBracket {
		pr, hp, err := p.parsePredicate()
		if err != nil {
			return st, 0, err
		}
		st.preds, h = append(st.preds, pr), max(h, hp)
	}
	return st, h, nil
}

func (p *parser) parseNodeTest(st *step) error {
	t, err := p.expect(tokName, "node test")
	if err != nil {
		return err
	}
	if p.peek().kind == tokLParen && isNodeType(t.text) {
		p.next()
		switch t.text {
		case "node":
			st.tk = testNode
		case "text":
			st.tk = testText
		case "comment":
			st.tk = testComment
		case "processing-instruction":
			st.tk = testPI
			if p.peek().kind == tokLiteral {
				st.name = p.next().text
			}
		}
		if _, err := p.expect(tokRParen, "')'"); err != nil {
			return err
		}
		return nil
	}
	st.tk = testName
	if t.text != "*" {
		st.name = t.text
	}
	return nil
}

func (p *parser) parsePredicate() (expr, int, error) {
	if _, err := p.expect(tokLBracket, "'['"); err != nil {
		return nil, 0, err
	}
	e, h, err := p.parseExpr()
	if err != nil {
		return nil, 0, err
	}
	if _, err := p.expect(tokRBracket, "']'"); err != nil {
		return nil, 0, err
	}
	return e, h, nil
}

func (p *parser) parsePrimary() (expr, int, error) {
	switch t := p.next(); t.kind {
	case tokNumber:
		f, err := strconv.ParseFloat(t.text, 64)
		if err != nil {
			return nil, 0, fmt.Errorf("bad number %q", t.text)
		}
		return numberLit(f), 1, nil
	case tokLiteral:
		return stringLit(t.text), 1, nil
	case tokDollar:
		return varRef(t.text), 1, nil
	case tokLParen:
		e, h, err := p.parseExpr()
		if err != nil {
			return nil, 0, err
		}
		if _, err := p.expect(tokRParen, "')'"); err != nil {
			return nil, 0, err
		}
		// Parentheses build no node but count as one, so that every
		// level descend opens is a level of the tree.
		return e, h + 1, nil
	case tokName:
		// Function call (startsPrimary guaranteed the '(').
		if _, err := p.expect(tokLParen, "'('"); err != nil {
			return nil, 0, err
		}
		fc := &funcCall{name: t.text}
		h := 0
		if p.peek().kind != tokRParen {
			for {
				arg, ha, err := p.parseExpr()
				if err != nil {
					return nil, 0, err
				}
				fc.args, h = append(fc.args, arg), max(h, ha)
				if !p.accept(tokComma) {
					break
				}
			}
		}
		if _, err := p.expect(tokRParen, "')'"); err != nil {
			return nil, 0, err
		}
		return fc, h + 1, nil
	default:
		return nil, 0, fmt.Errorf("unexpected %v", t)
	}
}
