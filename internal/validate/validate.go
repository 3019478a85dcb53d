// Package validate checks encoded documents against lightweight content
// models. It stands in for the schema validation of Grust & Klinger
// ([GK04]) that the paper's transaction protocol runs as the last stage
// before commit ("run XML document validation (if there is a schema); if
// this fails, the transaction is aborted") — the consistency leg of ACID.
//
// A Schema maps element names to rules: which child elements are allowed,
// which attributes are required, and whether text content is permitted.
// Validation walks the encoded tree once through the staircase
// operators, without materializing a DOM.
package validate

import (
	"fmt"

	"mxq/internal/staircase"
	"mxq/internal/xenc"
)

// Rule constrains one element type.
type Rule struct {
	// Children lists the allowed child element names. Empty means any
	// child element is allowed (unless NoElements is set).
	Children []string
	// NoElements forbids child elements entirely (text-only elements).
	NoElements bool
	// NoText forbids text children.
	NoText bool
	// RequiredAttrs must all be present.
	RequiredAttrs []string
}

// Schema maps element names to rules. Elements without a rule are
// unconstrained.
type Schema struct {
	rules map[string]Rule
	// RequireRules makes elements without a rule invalid (closed schema).
	RequireRules bool
}

// NewSchema returns an empty (fully permissive) schema.
func NewSchema() *Schema { return &Schema{rules: make(map[string]Rule)} }

// Elem adds or replaces the rule for an element name.
func (s *Schema) Elem(name string, r Rule) *Schema {
	s.rules[name] = r
	return s
}

// Error describes one validation failure.
type Error struct {
	Pre  xenc.Pre
	Elem string
	Msg  string
}

func (e *Error) Error() string {
	return fmt.Sprintf("validate: <%s> at pre %d: %s", e.Elem, e.Pre, e.Msg)
}

// Check validates the whole document and returns the first violation.
func (s *Schema) Check(v xenc.DocView) error {
	var err error
	staircase.Scan(v, v.Root(), staircase.AxisDescendantOrSelf, staircase.Element(xenc.NoName), func(p xenc.Pre) bool {
		err = s.checkElem(v, p)
		return err == nil
	})
	return err
}

func (s *Schema) checkElem(v xenc.DocView, p xenc.Pre) error {
	name := v.Names().Name(v.Name(p))
	rule, ok := s.rules[name]
	if !ok {
		if s.RequireRules {
			return &Error{Pre: p, Elem: name, Msg: "no rule for element in closed schema"}
		}
		return nil
	}
	for _, attr := range rule.RequiredAttrs {
		id, ok := v.Names().Lookup(attr)
		if !ok {
			return &Error{Pre: p, Elem: name, Msg: fmt.Sprintf("missing required attribute %q", attr)}
		}
		if _, ok := v.AttrValue(p, id); !ok {
			return &Error{Pre: p, Elem: name, Msg: fmt.Sprintf("missing required attribute %q", attr)}
		}
	}
	allowed := map[string]bool{}
	for _, c := range rule.Children {
		allowed[c] = true
	}
	for _, q := range staircase.EvalAxis(v, []xenc.Pre{p}, staircase.AxisChild, staircase.AnyNode()) {
		switch v.Kind(q) {
		case xenc.KindElem:
			child := v.Names().Name(v.Name(q))
			if rule.NoElements {
				return &Error{Pre: p, Elem: name, Msg: fmt.Sprintf("child element <%s> not allowed (text-only element)", child)}
			}
			if len(rule.Children) > 0 && !allowed[child] {
				return &Error{Pre: p, Elem: name, Msg: fmt.Sprintf("child element <%s> not allowed", child)}
			}
		case xenc.KindText:
			if rule.NoText {
				return &Error{Pre: p, Elem: name, Msg: "text content not allowed"}
			}
		}
	}
	return nil
}
